//go:build !race

// Compiled out under the race detector, whose instrumentation allocates
// (the convention of internal/core's alloc guards).

package server

import "testing"

// TestWindowRefreshZeroAllocUnchangedList guards the steady state of
// the periodic refresh: when the touched names admit nothing new to
// either ranking, the list is kept and the refresh allocates nothing.
func TestWindowRefreshZeroAllocUnchangedList(t *testing.T) {
	w, ids := refreshWindow(t, 2000)
	at, list := dayTime(0), w.names
	allocs := testing.AllocsPerRun(100, func() {
		w.touched = append(w.touched[:0], ids...)
		w.refresh(at)
	})
	if allocs != 0 {
		t.Errorf("refresh with an unchanged list allocates %.1f times, want 0", allocs)
	}
	if st := w.Stats(); st.Jaccard != 1 || len(list) != st.ListNames {
		t.Errorf("unchanged refresh moved the list: %+v", st)
	}
}
