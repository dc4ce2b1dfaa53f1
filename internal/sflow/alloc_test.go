//go:build !race

// The AllocsPerRun guards are compiled out under the race detector:
// race instrumentation adds its own allocations, which is noise, not a
// hot-path regression. CI runs them in the non-race build job.

package sflow

import (
	"io"
	"testing"
)

// TestLogWriterAllocs guards the log writer: once its entry buffer and
// the batcher's sample list have grown, adding records and flushing
// their datagrams allocates nothing.
func TestLogWriterAllocs(t *testing.T) {
	recs, inputs := logRecords()
	lw, err := NewLogWriter(io.Discard, [4]byte{198, 51, 100, 7}, DefaultRate)
	if err != nil {
		t.Fatal(err)
	}
	write := func() {
		for i, rec := range recs {
			if err := lw.Add(rec, inputs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write() // grows the buffers
	if allocs := testing.AllocsPerRun(5, write); allocs != 0 {
		t.Errorf("LogWriter: %.0f allocations per %d records and their flushes, want 0", allocs, len(recs))
	}
}
