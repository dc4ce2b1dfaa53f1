package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckWindow: fewer than one day or a -scale outside (0, 1] is
// refused before anything is planned, not read as the default.
func TestCheckWindow(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), 2} {
		if err := checkWindow(8, bad); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Errorf("-scale %g: error %v, want a refusal", bad, err)
		}
	}
	for _, days := range []int{0, -1} {
		if err := checkWindow(days, 0.05); err == nil || !strings.Contains(err.Error(), "want at least 1") {
			t.Errorf("-days %d: error %v, want a refusal", days, err)
		}
	}
	for _, ok := range []float64{0.05, 1} {
		if err := checkWindow(1, ok); err != nil {
			t.Errorf("-days 1 -scale %g refused: %v", ok, err)
		}
	}
}
