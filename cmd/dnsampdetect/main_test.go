package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlagsScale: a -scale outside (0, 1] is refused before
// anything is planned, not read as another scale.
func TestCheckFlagsScale(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), 2} {
		if err := checkFlags(bad); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Errorf("-scale %g: error %v, want a refusal", bad, err)
		}
	}
	for _, ok := range []float64{0.02, 1} {
		if err := checkFlags(ok); err != nil {
			t.Errorf("-scale %g refused: %v", ok, err)
		}
	}
}
