package names

import (
	"sync"
	"testing"
)

func TestInternLookupRoundTrip(t *testing.T) {
	tab := NewTable()
	in := []string{"doj.gov.", ".", "nsf.gov.", "doj.gov.", "a.b.c."}
	ids := make([]uint32, len(in))
	for i, n := range in {
		ids[i] = tab.Intern(n)
	}
	if ids[0] != ids[3] {
		t.Errorf("re-intern changed ID: %d vs %d", ids[0], ids[3])
	}
	if tab.Len() != 4 {
		t.Fatalf("len = %d, want 4", tab.Len())
	}
	for i, n := range in {
		if got := tab.Name(ids[i]); got != n {
			t.Errorf("Name(%d) = %q, want %q", ids[i], got, n)
		}
		id, ok := tab.Lookup(n)
		if !ok || id != ids[i] {
			t.Errorf("Lookup(%q) = %d,%v", n, id, ok)
		}
	}
	if _, ok := tab.Lookup("missing."); ok {
		t.Error("Lookup of un-interned name succeeded")
	}
	if id := tab.InternBytes([]byte("nsf.gov.")); id != ids[2] {
		t.Errorf("InternBytes = %d, want %d", id, ids[2])
	}
}

func TestInternDenseIDs(t *testing.T) {
	tab := NewTable()
	for i, n := range []string{"a.", "b.", "c."} {
		if id := tab.Intern(n); id != uint32(i) {
			t.Errorf("Intern(%q) = %d, want %d", n, id, i)
		}
	}
}

// TestSharedTableConcurrentReads is the table's side of the one-table
// invariant under the race detector: once every name is interned, any
// number of shards may Lookup, Name and re-Intern known names at once.
func TestSharedTableConcurrentReads(t *testing.T) {
	names := []string{"doj.gov.", "nsf.gov.", ".", "nic.cz.", "nask.pl."}
	tab := NewTable()
	for _, n := range names {
		tab.Intern(n)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				want := uint32((i*7 + w) % len(names))
				n := names[want]
				if id, ok := tab.Lookup(n); !ok || id != want || tab.Intern(n) != want ||
					tab.InternBytes([]byte(n)) != want || tab.Name(id) != n {
					t.Errorf("worker %d: %q resolved to %d, want %d", w, n, id, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tab.Len() != len(names) {
		t.Errorf("len = %d after read-only use, want %d", tab.Len(), len(names))
	}
}
