package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"dnsamp/internal/dnswire"
)

// runTopNProgram interprets prog as a stream of aggregator operations —
// Observe (three bytes: name, size class, flags), a day close
// (ResetClients), a snapshot round trip, an explicit Rescan — while a TopN pair of size n
// follows along the way server.Window drives one: observed IDs are
// logged, offered in batches, and the rankings rescanned when the
// aggregator is restored. After every batch each TopN must equal the
// first n of the full-sort ranking.
//
// The name pool is small and the size classes few, so the rank-n cut
// almost always runs through a group of names tied on score, and names
// enter mid-stream as the program reaches them.
func runTopNProgram(t *testing.T, n int, prog []byte) {
	t.Helper()
	sizes := [...]int{0, 512, 512, 1400, 4096, 4096, 4096, 9000}
	ag := NewAggregator(nil, nil)
	ag.SetTrackAll(true)
	top1, top2 := NewTopNMaxSize(n), NewTopNANYCount(n)
	var touched []uint32
	day := 0

	// offer checks Offer's report against membership before and after.
	offer := func(step int, top *TopN, id uint32) {
		t.Helper()
		name := ag.Table.Name(id)
		was := slices.Contains(top.Names(ag), name)
		entered := top.Offer(ag, id)
		if is := slices.Contains(top.Names(ag), name); entered != (!was && is) {
			t.Fatalf("step %d: Offer(%q) = %v, member before %v, after %v", step, name, entered, was, is)
		}
	}
	check := func(step int, what string) {
		t.Helper()
		for _, id := range touched {
			offer(step, top1, id)
			offer(step, top2, id)
		}
		touched = touched[:0]
		if got, want := top1.Names(ag), Selector1MaxSize(ag).Top(n); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): selector 1 top %d\n got %v\nwant %v", step, what, n, got, want)
		}
		if got, want := top2.Names(ag), Selector2ANYCount(ag).Top(n); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): selector 2 top %d\n got %v\nwant %v", step, what, n, got, want)
		}
	}

	top1.Rescan(ag)
	top2.Rescan(ag)
	check(-1, "empty")
	for step := 0; len(prog) > 0; step++ {
		op := prog[0]
		prog = prog[1:]
		switch {
		case op < 232: // Observe
			if len(prog) < 2 {
				return
			}
			size, flags := sizes[prog[0]%8], prog[1]
			prog = prog[2:]
			qt := dnswire.TypeA
			if flags&1 != 0 {
				qt = dnswire.TypeANY
			}
			s := mkSample(ag.Table, op%16, day, fmt.Sprintf("n%02d.test", op%58), qt, size, flags&2 != 0)
			ag.Observe(s)
			touched = append(touched, s.Name)
			if flags&0xc == 0 {
				check(step, "observe")
			}
		case op < 240:
			day++
			ag.ResetClients()
			check(step, "reset")
		case op < 248:
			ag = roundTrip(t, ag)
			touched = touched[:0]
			top1.Rescan(ag)
			top2.Rescan(ag)
			check(step, "restore")
		default:
			touched = touched[:0]
			top1.Rescan(ag)
			top2.Rescan(ag)
			check(step, "rescan")
		}
	}
	check(len(prog), "end")
}

// TestTopNMatchesFullRanking: seeded random programs at list sizes below,
// at and above the name pool.
func TestTopNMatchesFullRanking(t *testing.T) {
	for _, n := range []int{0, 1, 29, 1000} {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(n)))
			prog := make([]byte, 6000)
			for i := range prog {
				prog[i] = byte(rng.IntN(256))
			}
			runTopNProgram(t, n, prog)
		}
	}
}

func FuzzTopN(f *testing.F) {
	f.Add(uint8(29), []byte{1, 4, 3, 2, 4, 3, 1, 4, 2, 235, 3, 7, 1, 245, 2, 4, 3, 250})
	f.Add(uint8(1), []byte{10, 4, 2, 9, 4, 2, 10, 7, 14})
	f.Add(uint8(200), []byte{0, 1, 1, 57, 1, 1})
	f.Fuzz(func(t *testing.T, n uint8, prog []byte) {
		runTopNProgram(t, int(n), prog)
	})
}

// rankingAggregator builds an aggregator with nNames scored names whose
// MaxSize values collide heavily, as truncated-capture sizes do.
func rankingAggregator(nNames int) *Aggregator {
	ag := NewAggregator(nil, nil)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < nNames; i++ {
		qt := dnswire.TypeA
		if rng.IntN(4) == 0 {
			qt = dnswire.TypeANY
		}
		ag.Observe(mkSample(ag.Table, byte(i), 0, fmt.Sprintf("name%07d.example", i), qt, 64*(1+rng.IntN(64)), true))
	}
	return ag
}

var rankSink int

// BenchmarkSelectorFullRank is the full-sort ranking of both selectors:
// the report-time path and the oracle TopN is tested against.
func BenchmarkSelectorFullRank(b *testing.B) {
	for _, nNames := range []int{12_000, 1_000_000} {
		b.Run(fmt.Sprintf("names=%d", nNames), func(b *testing.B) {
			ag := rankingAggregator(nNames)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rankSink += len(Selector1MaxSize(ag).Top(29)) + len(Selector2ANYCount(ag).Top(29))
			}
		})
	}
}

// BenchmarkTopNRescan is the bounded rebuild of both selectors over the
// same tables: linear in the table, no strings off the tie path, no sort.
func BenchmarkTopNRescan(b *testing.B) {
	for _, nNames := range []int{12_000, 1_000_000} {
		b.Run(fmt.Sprintf("names=%d", nNames), func(b *testing.B) {
			ag := rankingAggregator(nNames)
			top1, top2 := NewTopNMaxSize(29), NewTopNANYCount(29)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				top1.Rescan(ag)
				top2.Rescan(ag)
			}
		})
	}
}
