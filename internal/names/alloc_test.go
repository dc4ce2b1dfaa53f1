//go:build !race

package names

import "testing"

// TestAppendRangeAllocs: a range costs the table a constant number of
// allocations however many names it holds — the range value's box, the
// slab grown once and the end column grown once — not one per name.
func TestAppendRangeAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(10, func() { NewTable().AppendRange(testRange{N: 10_000}) }); a > 3 {
		t.Errorf("a 10 000-name range: %.0f allocs, want the range, the slab and the end column", a)
	}
}
