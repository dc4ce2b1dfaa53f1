//go:build !race

// The AllocsPerRun guards are compiled out under the race detector:
// race instrumentation adds its own allocations, which is noise, not a
// hot-path regression. CI runs them in the non-race build job.

package core

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// TestObserveZeroAllocSteadyState guards the aggregate hot path: once a
// (client, day) profile and the name slots exist, Observe must not
// allocate — the property that keeps the parallel pass GC-quiet.
func TestObserveZeroAllocSteadyState(t *testing.T) {
	ag := NewAggregator(nil, []string{"doj.gov.", "."})
	resp := mkSample(ag.Table, 1, 0, "doj.gov", dnswire.TypeANY, 4000, true)
	req := mkSample(ag.Table, 1, 0, "doj.gov", dnswire.TypeANY, 40, false)
	other := mkSample(ag.Table, 2, 0, "bulk.test", dnswire.TypeA, 120, false)
	// Warm every slot the measured loop touches.
	ag.Observe(resp)
	ag.Observe(req)
	ag.Observe(other)

	allocs := testing.AllocsPerRun(200, func() {
		ag.Observe(resp)
		ag.Observe(req)
		ag.Observe(other)
	})
	if allocs != 0 {
		t.Errorf("Observe steady state allocates %.1f times per 3 samples, want 0", allocs)
	}
}

// TestObserveBatchZeroAllocSteadyState guards the batch-native
// aggregation path: once the name slots, client-day arena entries, and
// tracked lists exist, replaying a whole batch must not allocate — the
// memo, the client-index probes and the fold all run on preexisting
// storage.
func TestObserveBatchZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ag := NewAggregator(nil, []string{"evil.example.", "."})
	b := randomBatch(rng, ag.Table, testNamePool(ag.Table), 600)
	// Warm pass: creates every slot the measured loop touches.
	ag.ObserveBatch(b)

	allocs := testing.AllocsPerRun(20, func() { ag.ObserveBatch(b) })
	if allocs != 0 {
		t.Errorf("ObserveBatch steady state allocates %.2f per %d-row batch, want 0", allocs, b.N)
	}
}

// TestResetClientsZeroAllocSameSizedDay guards the live window's day
// turnover: ResetClients keeps the arena, the tracked rows and both
// indexes, so a day no larger than the last refills them without
// allocating — with no name tracked, and in the window's track-all mode
// with each client asking for several names.
func TestResetClientsZeroAllocSameSizedDay(t *testing.T) {
	for _, trackAll := range []bool{false, true} {
		t.Run(map[bool]string{false: "untracked", true: "track-all"}[trackAll], func(t *testing.T) {
			ag := NewAggregator(nil, nil)
			ag.SetTrackAll(trackAll)
			var day []*ixp.BatchRecord
			for c := 0; c < 500; c++ {
				for n := range 1 + c%5 {
					day = append(day, resetSample(0, c, "zone"+strconv.Itoa((c+n)%7)+".example.", ag.Table))
				}
			}
			turnover := func() {
				for _, s := range day {
					ag.Observe(s)
				}
				if n := ag.ResetClients(); n != 500 {
					t.Fatalf("ResetClients released %d profiles, want 500", n)
				}
			}
			turnover() // grows the arena, the tracked rows and both indexes
			if allocs := testing.AllocsPerRun(20, turnover); allocs != 0 {
				t.Errorf("a same-sized day after ResetClients allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestArenaChunkGrowthAlloc guards the chunked arena: opening the
// profile that crosses a chunk boundary allocates the new chunk and
// nothing of the size of the arena — no profile is
// copied — and a profile pointer taken before the growth still reads
// the same profile after it.
func TestArenaChunkGrowthAlloc(t *testing.T) {
	ag := NewAggregator(nil, nil)
	sample := func(c int) *ixp.BatchRecord { return resetSample(0, c, "zone.example.", ag.Table) }
	for c := range chunkLen {
		ag.Observe(sample(c))
	}
	first := sample(0)
	held := ag.ClientOf(ClientDay{Client: first.Src, Day: first.Time.Day()})
	crossing := sample(chunkLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ag.Observe(crossing)
	runtime.ReadMemStats(&after)
	// The allocator rounds a chunk up to whole 8 KiB pages.
	chunkBytes := (uint64(unsafe.Sizeof(arenaChunk{})) + 8<<10 - 1) &^ (8<<10 - 1)
	if got := after.TotalAlloc - before.TotalAlloc; got > chunkBytes+256 {
		t.Errorf("crossing a chunk boundary allocated %d bytes, want the new chunk's %d", got, chunkBytes)
	}
	if ag.ArenaCap() != 2*chunkLen {
		t.Errorf("ArenaCap %d after one crossing, want %d", ag.ArenaCap(), 2*chunkLen)
	}
	ag.Observe(first)
	if now := ag.ClientOf(ClientDay{Client: first.Src, Day: first.Time.Day()}); now != held || held.Total != 2 {
		t.Errorf("a profile taken before the growth moved (%p -> %p) or misreads: %+v", held, now, *held)
	}
}

// TestNameColumnAllocOnceFrozenTable guards pass 1's per-name columns:
// shards observing a frozen table through the pass-1 split each
// allocate their column once, sized to the table, and the barrier folds
// them into the first one without allocating another.
func TestNameColumnAllocOnceFrozenTable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab := names.NewTable()
	pool := testNamePool(tab)
	for i := range 5000 {
		tab.Intern("filler" + strconv.Itoa(i) + ".test.")
	}
	var batches []*ixp.SampleBatch
	for range 12 {
		batches = append(batches, randomBatch(rng, tab, pool, 200))
	}
	top := &ixp.SampleBatch{Table: tab}
	top.Append(ixp.BatchRecord{Time: simclock.MeasurementStart.Add(simclock.Days(1)), Name: uint32(tab.Len() - 1), QType: dnswire.TypeA, MsgSize: 60})
	batches = append(batches, top)

	w := simclock.Window{Start: simclock.MeasurementStart.Add(simclock.Days(1)), End: simclock.MeasurementStart.Add(simclock.Days(3))}
	shards := make([]*Aggregator, 3)
	exts := make([]*Aggregator, 3)
	cols := make([]*NameStats, 3)
	for i := range shards {
		shards[i], exts[i] = NewAggregator(tab, []string{"evil.example."}), NewAggregator(tab, nil)
	}
	for i, b := range batches {
		sh := i % len(shards)
		ObserveBatchSplit(shards[sh], exts[sh], b, w)
		if cap(shards[sh].names) != tab.Len() {
			t.Fatalf("batch %d: shard %d column cap %d, want the table's %d names", i, sh, cap(shards[sh].names), tab.Len())
		}
		if cols[sh] == nil {
			cols[sh] = &shards[sh].names[:1][0]
		} else if &shards[sh].names[:1][0] != cols[sh] {
			t.Fatalf("batch %d: shard %d reallocated its name column", i, sh)
		}
	}
	if ag := MergeShards(shards); &ag.names[:1][0] != cols[0] || cap(ag.names) != tab.Len() {
		t.Errorf("the barrier moved the name column (cap %d, table %d names)", cap(ag.names), tab.Len())
	}
}

// TestMergeShardsDropsChunksAlloc guards the barrier's hand-over: once
// MergeShards returns, no shard holds a chunk, an index or a name
// column, so the merged aggregate is the only copy left alive.
func TestMergeShardsDropsChunksAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := names.NewTable()
	pool := testNamePool(tab)
	shards := []*Aggregator{NewAggregator(tab, nil), NewAggregator(tab, nil)}
	for c := range 3 * chunkLen {
		shards[c%2].Observe(resetSample(c%3, c, "zone.example.", tab))
	}
	shards[1].ObserveBatch(randomBatch(rng, tab, pool, 500))
	total := shards[0].NumClients() + shards[1].NumClients()
	ag := MergeShards(shards)
	checkMerged(t, "barrier", ag, shards)
	if ag.NumClients() > total || ag.NumClients() < 3*chunkLen {
		t.Fatalf("%d merged profiles from %d shard profiles", ag.NumClients(), total)
	}
}

// TestDetectScanZeroAllocSteadyState guards the columnar threshold
// scan: with the scratch columns warmed, a Detect sweep that emits no
// detections must not allocate — the candidate marks, the cand/total
// column fill, and the integer threshold pass all reuse the
// aggregator's scratch (emitted detections are the only allocation of
// a hit-bearing sweep).
func TestDetectScanZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ag := NewAggregator(nil, []string{"evil.example.", "."})
	for i := 0; i < 3; i++ {
		ag.ObserveBatch(randomBatch(rng, ag.Table, testNamePool(ag.Table), 500))
	}
	ag = MergeShards([]*Aggregator{ag})
	cands := map[string]bool{"evil.example.": true, ".": true}
	none := Thresholds{MinShare: 0.5, MinPackets: 1 << 30} // scan runs, nothing passes
	if dets := Detect(ag, cands, none); dets != nil {
		t.Fatalf("expected no detections, got %d", len(dets))
	}
	allocs := testing.AllocsPerRun(20, func() { Detect(ag, cands, none) })
	if allocs != 0 {
		t.Errorf("Detect scan steady state allocates %.2f per sweep over %d client-days, want 0",
			allocs, ag.NumClients())
	}
}

// TestCollectorObserveAllocBound guards pass 2's reject path, the
// overwhelming majority of rows: a batch of rows of a name that is no
// candidate, and of the candidate for clients no detection wants, must
// pass through ObserveBatch without allocating. Accepted rows only
// append to amortized slices.
func TestCollectorObserveAllocBound(t *testing.T) {
	ag := NewAggregator(nil, []string{"bad.test."})
	var warm []*ixp.BatchRecord
	for i := 0; i < 15; i++ {
		warm = append(warm, mkSample(ag.Table, 1, 0, "bad.test", dnswire.TypeANY, 4000, true))
	}
	for _, s := range warm {
		ag.Observe(s)
	}
	dets := Detect(ag, map[string]bool{"bad.test.": true}, DefaultThresholds())
	col := NewCollector(NewCandidates(ag.Table, map[string]bool{"bad.test.": true}), dets)
	reject := &ixp.SampleBatch{Table: ag.Table}
	for c := byte(0); c < 64; c++ {
		reject.Append(*mkSample(ag.Table, 1+c%4, 0, "bulk.test", dnswire.TypeA, 100, false))
		reject.Append(*mkSample(ag.Table, 77+c, 0, "bad.test", dnswire.TypeANY, 4000, true))
	}
	allocs := testing.AllocsPerRun(200, func() { col.ObserveBatch(reject, nil) })
	if allocs != 0 {
		t.Errorf("Collector reject path allocates %.1f per %d-row batch, want 0", allocs, reject.N)
	}
	if recs := col.Records(); recs[0].Packets != 0 {
		t.Fatalf("the reject batch was collected: %+v", recs[0])
	}
}

// highIDNames is the table size of the NewCollector guards: about the
// 4.4 M names of a dnsampdetect run at scale 0.02, whose selected
// candidates reach IDs in the millions.
const highIDNames = 4 << 20

// highIDTable returns a table of n short names and its last name, whose
// ID is n-1.
func highIDTable(n int) (*names.Table, string) {
	tab := names.NewTable()
	var buf []byte
	for i := range n {
		buf = append(strconv.AppendInt(buf[:0], int64(i), 36), '.')
		tab.InternBytes(buf)
	}
	return tab, string(buf)
}

// TestNewCollectorAllocNotTableSized guards pass 2's per-day set-up: a
// collector over a 4 M-name table whose one candidate has the top ID
// allocates in its detections and candidates, not in the table. The
// table-sized candidate column is the shared Candidates', built once
// per pass.
func TestNewCollectorAllocNotTableSized(t *testing.T) {
	tab, top := highIDTable(highIDNames)
	cands := NewCandidates(tab, map[string]bool{top: true})
	dets := []*Detection{{Victim: [4]byte{10, 0, 0, 1}, Day: simclock.MeasurementStart.Day()}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	col := NewCollector(cands, dets)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(col)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("NewCollector over a %d-name table allocated %d bytes for one candidate and one detection, want O(candidates)",
			tab.Len(), got)
	}
}

// BenchmarkNewCollectorHighID measures that set-up: one collector per
// op over the shared candidates of a 4 M-name table whose candidate has
// the top ID.
func BenchmarkNewCollectorHighID(b *testing.B) {
	tab, top := highIDTable(highIDNames)
	cands := NewCandidates(tab, map[string]bool{top: true})
	dets := []*Detection{{Victim: [4]byte{10, 0, 0, 1}, Day: simclock.MeasurementStart.Day()}}
	b.ReportAllocs()
	for b.Loop() {
		NewCollector(cands, dets)
	}
}
