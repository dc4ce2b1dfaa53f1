package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// key4 builds a ClientDay from a compact test spec.
func key4(a, b, c, d byte, day int) ClientDay {
	return ClientDay{Client: [4]byte{a, b, c, d}, Day: day}
}

// TestClientIndexGrowRehash drives the index through several doublings
// and checks that every inserted pair stays findable and distinct pairs
// get distinct arena slots.
func TestClientIndexGrowRehash(t *testing.T) {
	ag := NewAggregator(nil, nil)
	const n = 5000 // well past several grow thresholds from the initial 16
	seen := map[ClientDay]*ClientAgg{}
	for i := 0; i < n; i++ {
		key := key4(byte(i>>8), byte(i), 7, 1, i%97)
		slot, isNew := ag.clientFor(key)
		if !isNew {
			t.Fatalf("key %v reported as existing on first insert", key)
		}
		ca := ag.at(slot)
		ca.Total = i + 1
		seen[key] = ca
	}
	if ag.NumClients() != n {
		t.Fatalf("NumClients = %d, want %d", ag.NumClients(), n)
	}
	for i := 0; i < n; i++ {
		key := key4(byte(i>>8), byte(i), 7, 1, i%97)
		ca := ag.ClientOf(key)
		if ca == nil || ca.Total != i+1 {
			t.Fatalf("key %v lost after rehash: %+v", key, ca)
		}
	}
	if ag.ClientOf(key4(255, 255, 255, 255, 1)) != nil {
		t.Error("lookup of absent key returned a profile")
	}
}

// TestClientIndexDeterminism: identical insertion sequences must yield
// byte-identical aggregators (arena, keys, and probe-table layout), and
// different insertion orders must converge through MergeShards.
func TestClientIndexDeterminism(t *testing.T) {
	build := func(perm []int) *Aggregator {
		ag := NewAggregator(nil, nil)
		for _, i := range perm {
			slot, isNew := ag.clientFor(key4(byte(i>>8), byte(i), 3, 9, i%31))
			ca := ag.at(slot)
			if isNew {
				ca.First = simclock.Time(i)
				ca.Last = simclock.Time(i)
			}
			ca.Total++
		}
		return ag
	}
	fwd := make([]int, 800)
	for i := range fwd {
		fwd[i] = i
	}
	if a, b := build(fwd), build(fwd); !reflect.DeepEqual(a, b) {
		t.Error("identical insertion sequences produced different aggregators")
	}
	rev := make([]int, len(fwd))
	for i := range rev {
		rev[i] = len(fwd) - 1 - i
	}
	a, b := MergeShards([]*Aggregator{build(fwd)}), MergeShards([]*Aggregator{build(rev)})
	if !reflect.DeepEqual(a, b) {
		t.Error("canonicalized aggregators differ across insertion orders")
	}
	// The canonical arena must be sorted by (day, client).
	prev := ClientDay{Day: -1 << 30}
	a.EachClient(func(key ClientDay, _ *ClientAgg) {
		if prev.less(key) >= 0 {
			t.Fatalf("canonical arena out of order: %v after %v", key, prev)
		}
		prev = key
	})
}

// randomBatch synthesizes a randomized sample batch over tab: a small
// client population (to force shared (client, day) pairs), a name pool
// with tracked and untracked members, response/ANY mixes, and times
// spread across several days around the main-window start.
func randomBatch(rng *rand.Rand, tab *names.Table, pool []uint32, n int) *ixp.SampleBatch {
	b := &ixp.SampleBatch{Table: tab}
	b.Grow(n)
	for i := 0; i < n; i++ {
		day := rng.Intn(4)
		tm := simclock.MeasurementStart.Add(simclock.Days(day)).Add(simclock.Duration(rng.Int63n(int64(simclock.Day))))
		resp := rng.Intn(2) == 0
		qt := dnswire.TypeA
		if rng.Intn(3) == 0 {
			qt = dnswire.TypeANY
		}
		client := [4]byte{10, 0, 0, byte(1 + rng.Intn(12))}
		server := [4]byte{203, 0, 113, byte(1 + rng.Intn(4))}
		src, dst := client, server
		if resp {
			src, dst = server, client
		}
		ingress := uint32(0)
		if !resp && rng.Intn(3) == 0 {
			ingress = uint32(100 + rng.Intn(5))
		}
		b.Append(ixp.BatchRecord{
			Time:      tm,
			Src:       src,
			Dst:       dst,
			SrcPort:   uint16(1024 + rng.Intn(60000)),
			DstPort:   53,
			IPTTL:     uint8(32 + rng.Intn(200)),
			IPID:      uint16(rng.Intn(1 << 16)),
			Resp:      resp,
			Name:      pool[rng.Intn(len(pool))],
			QType:     qt,
			TXID:      uint16(rng.Intn(1 << 16)),
			MsgSize:   int32(40 + rng.Intn(4000)),
			ANCount:   uint16(rng.Intn(3)),
			VisibleNS: uint16(rng.Intn(4)),
			Ingress:   ingress,
		})
	}
	return b
}

// testNamePool interns a mixed tracked/untracked name pool.
func testNamePool(tab *names.Table) []uint32 {
	pool := make([]uint32, 0, 8)
	for _, n := range []string{
		"evil.example.", ".", "bulk-a.test.", "bulk-b.test.",
		"bulk-c.test.", "other.example.", "doj.gov.", "cdn.test.",
	} {
		pool = append(pool, tab.Intern(n))
	}
	return pool
}

// TestObserveBatchMatchesObserve is the randomized equivalence guard:
// for generated batches, ObserveBatch (behind its memo) and Observe
// (one index probe per sample) must both read as the naive model
// counting every row, and leave byte-identical aggregators — arena
// order and index layout included. Exercised in explicit-track and
// track-all modes.
func TestObserveBatchMatchesObserve(t *testing.T) {
	track := []string{"evil.example.", "."}
	for _, trackAll := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		batchAg := NewAggregator(nil, track)
		rowAg := NewAggregator(batchAg.Table, track)
		batchAg.SetTrackAll(trackAll)
		rowAg.SetTrackAll(trackAll)
		m := newModel(track, trackAll)
		pool := testNamePool(batchAg.Table)
		for round := 0; round < 5; round++ {
			b := randomBatch(rng, batchAg.Table, pool, 400+round*150)
			if round%2 == 1 {
				burst(b)
			}
			batchAg.ObserveBatch(b)
			for i := range b.Rows {
				rowAg.Observe(&b.Rows[i])
			}
			m.observeBatch(b)
			what := fmt.Sprintf("trackAll=%v round %d", trackAll, round)
			m.check(t, batchAg, what+", ObserveBatch")
			m.check(t, rowAg, what+", Observe")
			if !reflect.DeepEqual(batchAg, rowAg) {
				t.Fatalf("%s: ObserveBatch state diverged from per-sample Observe", what)
			}
		}
	}
}

// burst rewrites b into runs of one (client, day): each row takes the
// attribution of the row before it unless it starts a run of eight,
// the shape of an attack flow that the batch path memoizes.
func burst(b *ixp.SampleBatch) {
	for i := 1; i < b.N; i++ {
		if i%8 == 0 {
			continue
		}
		r, prev := &b.Rows[i], &b.Rows[i-1]
		r.Time = prev.Time
		if r.Resp == prev.Resp {
			r.Src, r.Dst = prev.Src, prev.Dst
		} else {
			r.Src, r.Dst = prev.Dst, prev.Src
		}
	}
}

// TestObserveBatchSplitMatchesRows checks the window-split path: the
// main/extended pair fed through ObserveBatchSplit must match a
// per-sample split on Window.Contains, for batches straddling the
// boundary, entirely inside it and entirely outside.
func TestObserveBatchSplitMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := names.NewTable()
	pool := testNamePool(tab)
	// A window covering days 0-1 of the generated 0-3 day spread, so
	// random batches straddle it; rounds 4 and 5 shift a batch wholly
	// inside and wholly outside.
	w := simclock.Window{Start: simclock.MeasurementStart, End: simclock.MeasurementStart.Add(simclock.Days(2))}

	mkPair := func() (*Aggregator, *Aggregator) {
		in := NewAggregator(tab, []string{"evil.example."})
		out := NewAggregator(tab, []string{"evil.example."})
		return in, out
	}
	sIn, sOut := mkPair()
	rIn, rOut := mkPair()
	for round := 0; round < 6; round++ {
		b := randomBatch(rng, tab, pool, 500)
		for i := range b.Rows {
			r := &b.Rows[i]
			switch round {
			case 4: // fold the four-day spread into the window's two
				r.Time = w.Start.Add(r.Time.Sub(w.Start) / 2)
			case 5:
				r.Time = r.Time.Add(simclock.Days(2))
			}
		}
		ObserveBatchSplit(sIn, sOut, b, w)
		for i := range b.Rows {
			s := &b.Rows[i]
			if w.Contains(s.Time) {
				rIn.Observe(s)
			} else {
				rOut.Observe(s)
			}
		}
	}
	if !reflect.DeepEqual(sIn, rIn) {
		t.Error("inside-window batch state diverged from per-sample split")
	}
	if !reflect.DeepEqual(sOut, rOut) {
		t.Error("outside-window batch state diverged from per-sample split")
	}
	if sIn.Samples < 500 || sOut.Samples < 500 {
		t.Fatalf("window split degenerate: in=%d out=%d samples", sIn.Samples, sOut.Samples)
	}
}

// TestMergeArenasMatchesSingle shards randomized batches across
// aggregators — disjoint and overlapping client populations — and
// checks MergeShards equals one aggregator observing everything (the
// arena-level analogue of the map-era merge guarantee).
func TestMergeArenasMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tab := names.NewTable()
	pool := testNamePool(tab)
	track := []string{"evil.example.", "."}

	single := NewAggregator(tab, track)
	shards := []*Aggregator{NewAggregator(tab, track), NewAggregator(tab, track), NewAggregator(tab, track)}
	for round := 0; round < 6; round++ {
		b := randomBatch(rng, tab, pool, 300)
		single.ObserveBatch(b)
		shards[round%len(shards)].ObserveBatch(b)
	}
	if !reflect.DeepEqual(MergeShards(shards), MergeShards([]*Aggregator{single})) {
		t.Error("merged shard arenas differ from a single aggregator over the same batches")
	}
}

// TestCollectorObserveBatchMatchesObserve checks the pass-2 batch path
// against the reference collector: fed the same rows sample by sample,
// it must collect the same records — per-name counts, sizes in order —
// and the same VisibleNS sequence.
func TestCollectorObserveBatchMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tab := names.NewTable()
	pool := testNamePool(tab)
	cands := map[string]bool{"evil.example.": true, ".": true}
	var dets []*Detection
	for c := byte(1); c <= 12; c++ {
		for d := 0; d < 4; d++ {
			dets = append(dets, &Detection{
				Victim: [4]byte{10, 0, 0, c}, Day: simclock.MeasurementStart.Add(simclock.Days(d)).Day(),
				First: simclock.MeasurementStart.Add(simclock.Days(d)),
				Last:  simclock.MeasurementStart.Add(simclock.Days(d)),
			})
		}
	}
	col := NewCollector(NewCandidates(tab, cands), dets)
	ref := newRefCollector(cands, dets)
	for round := 0; round < 4; round++ {
		b := randomBatch(rng, tab, pool, 500)
		col.ObserveBatch(b, nil)
		for i := range b.Rows {
			ref.observe(tab, &b.Rows[i])
		}
	}
	got, want := col.Records(), ref.records()
	if len(got) != len(want) {
		t.Fatalf("%d records, reference %d", len(got), len(want))
	}
	for i, r := range got {
		plain := *r
		plain.nameCounts = nil
		if !reflect.DeepEqual(&plain, want[i]) {
			t.Errorf("record %v day %d:\n got %+v\nwant %+v", r.Victim, r.Day, plain, *want[i])
		}
	}
	if !slices.Equal(col.VisibleNS, ref.visibleNS) {
		t.Errorf("VisibleNS %v, reference %v", col.VisibleNS, ref.visibleNS)
	}
	if len(col.VisibleNS) == 0 || got[0].Packets == 0 {
		t.Fatal("degenerate case: collector saw no candidate traffic")
	}
}

// TestDetectMatchesNaiveShare pins the columnar threshold scan to the
// reference semantics: Detect must flag exactly the (client, day) pairs
// whose share of candidate-name packets, counted by the naive model
// (modelAgg) from the same batches, and packet count pass the
// thresholds, in (day, victim) order, on canonicalized and raw arenas
// alike. CandidatePackets must read the model's numerators too.
func TestDetectMatchesNaiveShare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	track := []string{"evil.example.", "."}
	ag := NewAggregator(nil, track)
	m := newModel(track, false)
	pool := testNamePool(ag.Table)
	for round := 0; round < 4; round++ {
		b := randomBatch(rng, ag.Table, pool, 600)
		ag.ObserveBatch(b)
		m.observeBatch(b)
	}
	cands := map[string]bool{"evil.example.": true, ".": true, "absent.test.": false}
	th := Thresholds{MinShare: 0.30, MinPackets: 3}

	candOf := func(mc *modelClient) int {
		c := 0
		for name, n := range mc.tracked {
			if cands[name] {
				c += n
			}
		}
		return c
	}
	var want []*Detection
	for key, mc := range m.clients {
		cand := candOf(mc)
		share := float64(cand) / float64(mc.total)
		if cand == 0 || mc.total < th.MinPackets || share < th.MinShare {
			continue
		}
		want = append(want, &Detection{
			Victim: key.Client, Day: key.Day,
			Packets: mc.total, CandidatePackets: cand, Share: share,
			First: mc.first, Last: mc.last,
		})
	}
	slices.SortFunc(want, func(a, b *Detection) int {
		return ClientDay{Client: a.Victim, Day: a.Day}.less(ClientDay{Client: b.Victim, Day: b.Day})
	})
	if len(want) == 0 {
		t.Fatal("degenerate case: no reference detections")
	}
	for _, canonical := range []bool{false, true} {
		if canonical {
			ag = MergeShards([]*Aggregator{ag})
		}
		if got := Detect(ag, cands, th); !reflect.DeepEqual(got, want) {
			t.Errorf("canonical=%v: Detect = %d detections, reference = %d (or contents differ)",
				canonical, len(got), len(want))
		}
		col, slot := ag.CandidatePackets(cands), 0
		ag.EachClient(func(key ClientDay, _ *ClientAgg) {
			if got, want := int(col[slot]), candOf(m.clients[key]); got != want {
				t.Errorf("canonical=%v: CandidatePackets of %v = %d, model %d", canonical, key, got, want)
			}
			slot++
		})
	}
}
