package core

import (
	"reflect"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// mergeSample builds a minimal sanitized sample for merge tests,
// interned in tab.
func mergeSample(tab *names.Table, client byte, name string, qtype dnswire.Type, size int, t simclock.Time, response bool) *ixp.BatchRecord {
	s := &ixp.BatchRecord{
		Time:    t,
		Name:    tab.Intern(name),
		QType:   qtype,
		MsgSize: int32(size),
		Resp:    response,
	}
	if response {
		s.Dst = [4]byte{10, 0, 0, client}
	} else {
		s.Src = [4]byte{10, 0, 0, client}
	}
	return s
}

var mergeTrack = []string{"evil.example.", "."}

func day0(offset simclock.Duration) simclock.Time {
	return simclock.MeasurementStart.Add(offset)
}

// merged runs the barrier over shards.
func merged(shards ...*Aggregator) *Aggregator { return MergeShards(shards) }

func TestMergeEmpty(t *testing.T) {
	tab := names.NewTable()
	observed := func() *Aggregator {
		ag := NewAggregator(tab, mergeTrack)
		ag.Observe(mergeSample(tab, 1, "evil.example.", dnswire.TypeANY, 900, day0(10), true))
		return ag
	}
	want := merged(observed())

	// Merging an empty shard (on either side) must not change state.
	if !reflect.DeepEqual(merged(observed(), NewAggregator(tab, mergeTrack)), want) {
		t.Error("merging an empty aggregator changed state")
	}
	if !reflect.DeepEqual(merged(NewAggregator(tab, mergeTrack), observed()), want) {
		t.Error("merging into an empty aggregator lost state")
	}
	if got := merged(NewAggregator(tab, mergeTrack), NewAggregator(tab, mergeTrack)); got.NumClients() != 0 || got.Samples != 0 {
		t.Errorf("two empty shards merged into %d profiles, %d samples", got.NumClients(), got.Samples)
	}
}

func TestMergeDisjoint(t *testing.T) {
	// Shards covering different clients and names must union cleanly.
	tab := names.NewTable()
	a := NewAggregator(tab, mergeTrack)
	a.Observe(mergeSample(tab, 1, "evil.example.", dnswire.TypeANY, 900, day0(10), true))
	b := NewAggregator(tab, mergeTrack)
	b.Observe(mergeSample(tab, 2, "benign.example.", dnswire.TypeA, 80, day0(20), false))

	m := merged(a, b)
	if m.Samples != 2 || m.Requests != 1 || m.TotalBytes != 980 {
		t.Fatalf("global counters: samples=%d requests=%d bytes=%d", m.Samples, m.Requests, m.TotalBytes)
	}
	if m.NumClients() != 2 {
		t.Fatalf("clients=%d, want 2", m.NumClients())
	}
	if ns := m.NameStatsOf("evil.example."); ns.MaxSize != 900 || ns.ANYPackets != 1 {
		t.Errorf("evil stats: %+v", ns)
	}
	if ns := m.NameStatsOf("benign.example."); ns.MaxSize != 0 || ns.Packets != 1 {
		t.Errorf("benign stats: %+v", ns)
	}
}

func TestMergeOverlapping(t *testing.T) {
	// Two shards observing the same client and name: sums, maxima, and
	// time bounds must match one aggregator observing everything.
	tab := names.NewTable()
	samples := []*ixp.BatchRecord{
		mergeSample(tab, 1, "evil.example.", dnswire.TypeANY, 900, day0(100), true),
		mergeSample(tab, 1, "evil.example.", dnswire.TypeANY, 1400, day0(50), true),
		mergeSample(tab, 1, ".", dnswire.TypeNS, 120, day0(300), false),
		mergeSample(tab, 1, "evil.example.", dnswire.TypeANY, 700, day0(200), true),
	}
	a := NewAggregator(tab, mergeTrack)
	b := NewAggregator(tab, mergeTrack)
	single := NewAggregator(tab, mergeTrack)
	for i, s := range samples {
		if i%2 == 0 {
			a.Observe(s)
		} else {
			b.Observe(s)
		}
		single.Observe(s)
	}
	m := merged(a, b)
	if !reflect.DeepEqual(m, merged(single)) {
		t.Error("merged shards differ from a single aggregator over the same samples")
	}
	key := ClientDay{Client: [4]byte{10, 0, 0, 1}, Day: day0(0).Day()}
	ca := m.ClientOf(key)
	if ca == nil || ca.Total != 4 || ca.First != day0(50) || ca.Last != day0(300) {
		t.Fatalf("client profile after merge: %+v", ca)
	}
	if got := trackedCounts(t, m, "merged")[key]["evil.example."]; got != 3 {
		t.Errorf("tracked count = %d, want 3", got)
	}
}

// TestMergeForeignTablePanics pins the one-table invariant at the
// barrier: a shard over any other table than the first's is refused,
// never translated, and no shard is touched.
func TestMergeForeignTablePanics(t *testing.T) {
	a := NewAggregator(names.NewTable(), mergeTrack)
	b := NewAggregator(names.NewTable(), mergeTrack)
	b.Observe(mergeSample(b.Table, 1, "evil.example.", dnswire.TypeANY, 900, day0(10), true))
	defer func() {
		if recover() == nil {
			t.Error("MergeShards accepted an aggregator over a foreign name table")
		}
		if a.Samples != 0 || a.NumClients() != 0 || b.NumClients() != 1 {
			t.Errorf("refused merge still moved state: samples=%d clients=%d, foreign shard %d",
				a.Samples, a.NumClients(), b.NumClients())
		}
	}()
	merged(a, b)
}

func TestConsensusPointParallelMatchesSerial(t *testing.T) {
	sel := func(names ...string) SelectorResult { return SelectorResult{Ranked: names} }
	s1 := sel("a", "b", "c", "d", "e", "f")
	s2 := sel("b", "a", "c", "e", "d", "g")
	s3 := sel("a", "c", "b", "d", "f", "e")
	wantN, wantCurve := ConsensusPoint(6, s1, s2, s3)
	for _, conc := range []int{2, 4, 16} {
		gotN, gotCurve := ConsensusPointParallel(6, conc, s1, s2, s3)
		if gotN != wantN || !reflect.DeepEqual(gotCurve, wantCurve) {
			t.Errorf("concurrency %d: N=%d curve=%v, want N=%d curve=%v", conc, gotN, gotCurve, wantN, wantCurve)
		}
	}
}
