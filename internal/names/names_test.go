package names

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
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

// TestNameViewsOutliveGrowth: Name returns a view into the slab, and a
// view taken before the slab and the index grow many times over still
// reads its name; the empty name is a name like any other.
func TestNameViewsOutliveGrowth(t *testing.T) {
	var tab Table // the zero Table is ready
	if id := tab.Intern(""); id != 0 || tab.Name(0) != "" {
		t.Fatalf("empty name: ID %d, Name %q", id, tab.Name(0))
	}
	first := tab.Name(tab.Intern("doj.gov."))
	buf := []byte("nsf.gov.")
	view := tab.Name(tab.InternBytes(buf))
	copy(buf, "XXXXXXXX") // the table copied the bytes it was handed
	for i := 0; i < 10_000; i++ {
		tab.Intern(fmt.Sprintf("n%d.example.", i))
	}
	if first != "doj.gov." || view != "nsf.gov." || tab.Name(2) != "nsf.gov." {
		t.Fatalf("views after growth: %q %q %q", first, view, tab.Name(2))
	}
	if id, ok := tab.Lookup(""); !ok || id != 0 {
		t.Fatalf("Lookup(\"\") = %d, %v", id, ok)
	}
}

// TestKeep: a release renumbers the kept names densely in ID order, a
// dropped name is gone until interned again (then under the next dense
// ID), views taken before the release still read their names, and each
// release advances Gen.
func TestKeep(t *testing.T) {
	tab := NewTable()
	in := []string{"a.", "drop1.", "b.", "drop2.", "c."}
	var views []string
	for _, n := range in {
		views = append(views, tab.Name(tab.Intern(n)))
	}
	if tab.Gen() != 0 {
		t.Fatalf("Gen before any release = %d", tab.Gen())
	}
	remap := tab.Keep(func(id uint32) bool { return id%2 == 0 })
	want := []uint32{0, Dropped, 1, Dropped, 2}
	if fmt.Sprint(remap) != fmt.Sprint(want) || tab.Len() != 3 || tab.Gen() != 1 {
		t.Fatalf("Keep: remap %v, Len %d, Gen %d; want %v, 3, 1", remap, tab.Len(), tab.Gen(), want)
	}
	for old, n := range in {
		id, ok := tab.Lookup(n)
		if remap[old] == Dropped {
			if ok {
				t.Errorf("dropped %q still looks up to %d", n, id)
			}
			continue
		}
		if !ok || id != remap[old] || tab.Name(id) != n {
			t.Errorf("kept %q: Lookup %d,%v, Name %q; want %d", n, id, ok, tab.Name(id), remap[old])
		}
	}
	for i, v := range views {
		if v != in[i] {
			t.Errorf("view of %q taken before Keep reads %q", in[i], v)
		}
	}
	if id := tab.InternBytes([]byte("drop1.")); id != 3 || tab.Name(3) != "drop1." {
		t.Errorf("re-interned dropped name got ID %d, want the next dense ID 3", id)
	}
	if tab.Keep(func(uint32) bool { return false }); tab.Len() != 0 || tab.Gen() != 2 {
		t.Errorf("dropping everything: Len %d, Gen %d", tab.Len(), tab.Gen())
	}
	if id := tab.Intern("c."); id != 0 {
		t.Errorf("first name after an empty release got ID %d", id)
	}
}

// testRange is the tests' Range: name i is "r", i in decimal (no
// leading zero), ".range.", for i < N.
type testRange struct{ N int }

func (r testRange) Len() int { return r.N }

func (r testRange) Size() int {
	size := r.N * len("r0.range.")
	for lo := 10; lo < r.N; lo *= 10 {
		size += r.N - lo // one more digit from lo on
	}
	return size
}

func (r testRange) AppendName(dst []byte, i int) []byte {
	dst = append(dst, 'r')
	dst = strconv.AppendInt(dst, int64(i), 10)
	return append(dst, ".range."...)
}

func (r testRange) ParseName(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "r")
	if digits, ok = strings.CutSuffix(digits, ".range."); !ok || digits == "" || digits[0] == '0' && digits != "0" {
		return 0, false
	}
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 || i >= r.N || strconv.Itoa(i) != digits {
		return 0, false
	}
	return i, true
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestAppendRange: a range takes the next dense IDs, every way back to
// a name of it finds its ID without the name being hashed, the index
// sizes to the hashed names alone, names interned after it come after
// it, a name that already parses into it or a second range panics, and
// Keep indexes the kept range names like any other. Two tables built by
// the same steps stay reflect.DeepEqual. (TestAppendRangeAllocs counts
// its allocations.)
func TestAppendRange(t *testing.T) {
	build := func() *Table {
		tab := NewTable()
		tab.Intern(".")
		tab.Intern("r12.range.x.") // not a range name: the suffix differs
		if base := tab.AppendRange(testRange{N: 10_000}); base != 2 {
			t.Fatalf("range base %d, want 2", base)
		}
		tab.Intern("after.")
		return tab
	}
	tab := build()
	if tab.Len() != 10_003 || len(tab.index) != minIndex {
		t.Fatalf("Len %d, index %d slots; want 10 003 names and a %d-slot index of 3", tab.Len(), len(tab.index), minIndex)
	}
	for _, i := range []int{0, 1, 9, 10, 4321, 9999} {
		name, id := testRange{}.AppendName(nil, i), uint32(2+i)
		if tab.Name(id) != string(name) {
			t.Fatalf("Name(%d) = %q, want %q", id, tab.Name(id), name)
		}
		if got, ok := tab.Lookup(string(name)); !ok || got != id || tab.Intern(string(name)) != id || tab.InternBytes(name) != id {
			t.Fatalf("%q: Lookup %d,%v; want %d from every path", name, got, ok, id)
		}
	}
	for _, miss := range []string{"r10000.range.", "r01.range.", "r-1.range.", "r.range."} {
		if id, ok := tab.Lookup(miss); ok {
			t.Fatalf("Lookup(%q) = %d outside the range", miss, id)
		}
	}
	if id := tab.Intern("r10000.range."); id != 10_003 || tab.Name(id) != "r10000.range." {
		t.Fatalf("a name past the range interned as %d", id)
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Fatal("two tables built alike differ")
	}
	if !panics(func() { tab.AppendRange(testRange{N: 1}) }) {
		t.Fatal("a second range did not panic")
	}
	clash := NewTable()
	clash.Intern("r5.range.")
	if !panics(func() { clash.AppendRange(testRange{N: 6}) }) {
		t.Fatal("a range holding an earlier name did not panic")
	}
	if clash.AppendRange(testRange{N: 5}) != 1 {
		t.Fatal("a range that holds no earlier name was refused")
	}

	remap := tab.Keep(func(id uint32) bool { return id%2 == 0 })
	if tab.rng != nil || len(tab.index) != indexSizeFor(tab.Len()) {
		t.Fatalf("after Keep: range %v, %d-slot index for %d names", tab.rng, len(tab.index), tab.Len())
	}
	if id, ok := tab.Lookup("r4.range."); !ok || id != remap[6] {
		t.Fatalf("kept range name: Lookup %d,%v, want %d", id, ok, remap[6])
	}
	if _, ok := tab.Lookup("r5.range."); ok {
		t.Fatal("a released range name still looks up")
	}
}

// TestAdoptRange: names interned one by one and then adopted as a
// range make the very table AppendRange builds (reflect.DeepEqual), and
// adoption refuses, changing nothing, a table with a range already, IDs
// that do not hold the range's names in order and a range that runs
// past the table.
func TestAdoptRange(t *testing.T) {
	r := testRange{N: 3000}
	appended := NewTable()
	appended.Intern("a.")
	appended.AppendRange(r)
	appended.Intern("b.")

	adopted := NewTable()
	adopted.Intern("a.")
	for i := range r.N {
		adopted.InternBytes(r.AppendName(nil, i))
	}
	adopted.Intern("b.")
	if !adopted.AdoptRange(1, r) || !reflect.DeepEqual(adopted, appended) {
		t.Fatal("adopting the range did not make the appended table")
	}
	if adopted.AdoptRange(1, r) {
		t.Fatal("a second range was adopted")
	}

	loose := NewTable()
	loose.Intern("r2.range.")
	loose.Intern("r0.range.")
	loose.Intern("r1.range.")
	before := fmt.Sprint(*loose)
	for _, c := range []struct {
		base uint32
		r    testRange
	}{{0, testRange{N: 3}}, {0, testRange{N: 1}}, {2, testRange{N: 2}}, {1, testRange{N: 3}}} {
		if loose.AdoptRange(c.base, c.r) || fmt.Sprint(*loose) != before {
			t.Fatalf("adopted %d names at %d that are not the range's names in order", c.r.N, c.base)
		}
	}
	if !loose.AdoptRange(1, testRange{N: 2}) {
		t.Fatal("r0, r1 at IDs 1, 2 were not adopted")
	}
	if id, ok := loose.Lookup("r1.range."); !ok || id != 2 || len(loose.index) != minIndex {
		t.Fatalf("after adoption: Lookup(r1.range.) = %d,%v", id, ok)
	}
}

// TestTableWholeCacheLines holds the table's size to whole 64-byte
// lines (see its pad).
func TestTableWholeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Table{}); size%64 != 0 {
		t.Fatalf("Table is %d bytes, not a whole number of 64-byte lines: resize its pad", size)
	}
}

// TestInternAllocs is the table's allocation guard: a known name costs
// no allocation on any path, and interning n fresh names costs a
// logarithmic number of allocations (the slab, end and index arrays
// grow geometrically), not one per name.
func TestInternAllocs(t *testing.T) {
	const n = 1 << 14
	fresh := make([][]byte, n)
	for i := range fresh {
		fresh[i] = fmt.Appendf(nil, "host%d.zone%d.example.", i, i%997)
	}
	tab := NewTable()
	for _, b := range fresh {
		tab.InternBytes(b)
	}
	known, knownStr := fresh[n/2], string(fresh[n/3])
	if a := testing.AllocsPerRun(100, func() {
		tab.InternBytes(known)
		tab.Intern(knownStr)
		tab.Lookup(knownStr)
		_ = tab.Name(7)
	}); a != 0 {
		t.Errorf("known name: %.1f allocs, want 0", a)
	}

	a := testing.AllocsPerRun(5, func() {
		tab := NewTable()
		for _, b := range fresh {
			tab.InternBytes(b)
		}
	})
	if limit := 8 * float64(bits.Len(n)); a > limit {
		t.Errorf("%d fresh names: %.0f allocs, want at most %.0f (O(log n))", n, a, limit)
	}
}

// FuzzTable drives random interleavings of every Table operation
// against a map + slice reference: after each one, Len, every ID's
// Name and every name's Lookup must agree, and each Name view taken
// earlier must still read its name — a released name's too. Names are
// decoded from the input: literal bytes, near-twins of one name (one
// byte apart), long names, the empty name, re-uses of names already
// interned, names of the test range and near misses of them, and bulk
// runs that force several index growths. A Keep step releases the
// names an input byte's bits select. A range step appends a testRange,
// which must panic when the table holds a range already or a name that
// parses into it, and otherwise takes the next IDs in order.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 3, 'a', 'b', '.', 1, 1, 7, 2, 5, 3, 3, 0})
	f.Add([]byte{5, 200, 2, 1, 9, 4, 60, 0, 2, 40, 1, 6, 'x'})
	f.Add([]byte{1, 5, 1, 1, 9, 1, 5, 2, 4, 3, 3, 7, 5, 255, 5, 255})
	f.Add([]byte{5, 40, 6, 0x5a, 0, 0, 2, 'a', '.', 6, 0, 5, 9, 6, 0xff, 1, 3, 0})
	f.Add([]byte{0, 4, 3, 6, 2, 0, 4, 1, 2, 4, 1, 5, 0x55, 0, 4, 1, 6, 5, 1, 4, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		tab := NewTable()
		ids := map[string]uint32{}
		var ref, views []string
		var gone, goneViews []string // released names and their earlier views
		hasRange := false
		name := func() string {
			switch mode := next(); mode % 5 {
			case 0: // literal bytes
				n := min(int(next()%64), len(prog))
				s := string(prog[:n])
				prog = prog[n:]
				return s
			case 1: // one byte apart from "www.example."
				b := []byte("www.example.")
				b[int(mode>>2)%len(b)] = next()
				return string(b)
			case 2: // long
				return strings.Repeat(string(rune('a'+(mode>>2)%26)), 200+int(next()))
			case 4: // a range name, or with a leading zero a near miss
				s := fmt.Sprintf("r%d.range.", int(next())<<2|int(mode>>3&3))
				if mode>>5&1 != 0 {
					s = "r0" + s[1:]
				}
				return s
			}
			// The empty name, or one already interned.
			if k := next(); k != 0 && len(ref) > 0 {
				return ref[int(k)%len(ref)]
			}
			return ""
		}
		intern := func(s string, got uint32) {
			want, ok := ids[s]
			if !ok {
				want = uint32(len(ref))
				ids[s] = want
				ref = append(ref, s)
				views = append(views, tab.Name(want))
			}
			if got != want {
				t.Fatalf("intern %q: ID %d, want %d", s, got, want)
			}
		}
		for step := 0; len(prog) > 0 && step < 64; step++ {
			switch op := next(); op % 7 {
			case 0:
				s := name()
				intern(s, tab.Intern(s))
			case 1:
				s := name()
				b := []byte(s)
				id := tab.InternBytes(b)
				for i := range b {
					b[i] ^= 0xff // the caller's buffer is the caller's
				}
				intern(s, id)
			case 2:
				s := name()
				id, ok := tab.Lookup(s)
				if want, wok := ids[s]; ok != wok || id != want {
					t.Fatalf("Lookup(%q) = %d,%v; want %d,%v", s, id, ok, want, wok)
				}
			case 3:
				if len(ref) > 0 {
					id := uint32(int(next()) % len(ref))
					if got := tab.Name(id); got != ref[id] {
						t.Fatalf("Name(%d) = %q, want %q", id, got, ref[id])
					}
				}
			case 4:
				base := len(ref)
				for i := range int(next() % 64) {
					s := fmt.Sprintf("bulk%d.%d.", base, i)
					intern(s, tab.InternBytes([]byte(s)))
				}
			case 5:
				mask, gen := next(), tab.Gen()
				kept := func(id int) bool { return mask>>(id%8)&1 != 0 }
				remap := tab.Keep(func(id uint32) bool { return kept(int(id)) })
				if tab.Gen() != gen+1 || len(remap) != len(ref) {
					t.Fatalf("step %d: Keep left Gen %d (was %d) and a %d-entry remap for %d names", step, tab.Gen(), gen, len(remap), len(ref))
				}
				var kref, kviews []string
				clear(ids)
				for old, s := range ref {
					want := uint32(len(kref))
					if !kept(old) {
						want = Dropped
						gone, goneViews = append(gone, s), append(goneViews, views[old])
					} else {
						ids[s] = want
						kref, kviews = append(kref, s), append(kviews, views[old])
					}
					if remap[old] != want {
						t.Fatalf("step %d: remap[%d] = %d, want %d", step, old, remap[old], want)
					}
				}
				ref, views = kref, kviews
				hasRange = false // Keep indexes the range's kept names
			case 6:
				r := testRange{N: int(next()) * 4}
				clash := hasRange
				for _, s := range ref {
					if _, in := r.ParseName(s); in {
						clash = true
					}
				}
				var base uint32
				if panicked := panics(func() { base = tab.AppendRange(r) }); panicked != clash {
					t.Fatalf("step %d: AppendRange of %d names panicked %v, want %v", step, r.N, panicked, clash)
				}
				if !clash {
					hasRange = true
					for i := range r.N {
						intern(string(r.AppendName(nil, i)), base+uint32(i))
					}
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, want %d", step, tab.Len(), len(ref))
			}
			for i, s := range gone {
				if goneViews[i] != s {
					t.Fatalf("step %d: view of released %q reads %q", step, s, goneViews[i])
				}
				if _, back := ids[s]; back {
					continue // interned again: checked with ref below
				}
				if id, ok := tab.Lookup(s); ok {
					t.Fatalf("step %d: released %q looks up to %d", step, s, id)
				}
			}
			for id, s := range ref {
				if got := tab.Name(uint32(id)); got != s || views[id] != s {
					t.Fatalf("step %d: Name(%d) = %q, earlier view %q, want %q", step, id, got, views[id], s)
				}
				if got, ok := tab.Lookup(s); !ok || got != uint32(id) {
					t.Fatalf("step %d: Lookup(%q) = %d,%v, want %d", step, s, got, ok, id)
				}
			}
		}
	})
}

// internSink keeps the benchmark's result live.
var internSink uint32

// BenchmarkInternBytes is the live window's interning load, shaped like
// the serve-coarse benchmark recording: 40 566 distinct names over
// 166 000 InternBytes calls, about a quarter of them first sights, the
// rest re-uses skewed toward early (popular) names. One op interns the
// whole sequence into a fresh table, so allocs/op counts its growths.
// fresh keeps every name; daily splits the sequence into the
// recording's ten days and, as the window's day close does, releases
// all but about a tenth of the names at the end of each (the r0–r9
// names; the window keeps 3 649 of 40 566), so a released name that
// recurs is a first sight again.
func BenchmarkInternBytes(b *testing.B) {
	const calls, distinct, days = 166_000, 40_566, 10
	rng := rand.New(rand.NewPCG(21, 0))
	seq := make([][]byte, calls)
	var seen [][]byte
	for i := range seq {
		if len(seen)*calls < (i+1)*distinct {
			seen = append(seen, fmt.Appendf(nil, "r%d.host%d.zone%d.example.", rng.IntN(100), len(seen), len(seen)%997))
			seq[i] = seen[len(seen)-1]
			continue
		}
		u := rng.Float64()
		seq[i] = seen[int(u*u*u*float64(len(seen)))]
	}
	for _, release := range []bool{false, true} {
		name := "fresh"
		if release {
			name = "daily"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				tab := NewTable()
				keep := func(id uint32) bool { return tab.Name(id)[2] == '.' }
				for i, name := range seq {
					internSink = tab.InternBytes(name)
					if release && (i+1)%(calls/days) == 0 {
						tab.Keep(keep)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/intern")
		})
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
