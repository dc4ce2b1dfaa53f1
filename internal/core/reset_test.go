package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
)

// resetSample builds a deterministic sample for (day, client, name).
func resetSample(day, client int, name string, tab interface{ Intern(string) uint32 }) *ixp.BatchRecord {
	return &ixp.BatchRecord{
		Time:    simclock.MeasurementStart.Add(simclock.Days(day)).Add(simclock.Duration(client)),
		Src:     [4]byte{10, 0, byte(client >> 8), byte(client)},
		Dst:     [4]byte{198, 51, 100, 1},
		Name:    tab.Intern(name),
		MsgSize: int32(100 + client%7),
	}
}

// arenaOf returns copies of ag's held keys and profiles, in arena order.
func arenaOf(ag *Aggregator) ([]ClientDay, []ClientAgg) {
	var keys []ClientDay
	var profs []ClientAgg
	ag.EachClient(func(key ClientDay, ca *ClientAgg) {
		keys = append(keys, key)
		profs = append(profs, *ca)
	})
	return keys, profs
}

// TestResetClientsMatchesFresh pins the reset contract: every profile is
// released and unresolvable, the cumulative per-name and global
// statistics are untouched, the kept chunks pin nothing, and the
// client-day state after re-observing is that of a fresh aggregator
// given the same samples — arena, key column and index layout alike (the
// next day has the size of the last, so the retained index is the size a
// fresh one grows to).
func TestResetClientsMatchesFresh(t *testing.T) {
	const clients = 300
	feed := func(ag *Aggregator, day int) {
		for c := 0; c < clients; c++ {
			for p := 0; p < 1+c%3; p++ {
				ag.Observe(resetSample(day, c, fmt.Sprintf("zone%d.example.", (c+p)%5), ag.Table))
			}
		}
	}
	ag := NewAggregator(nil, nil)
	ag.SetTrackAll(true)
	feed(ag, 0)
	feed(ag, 1) // a straggler day beside the open one: both leave

	keys, _ := arenaOf(ag)
	names := append([]NameStats(nil), ag.names...)
	samples := ag.Samples

	if got := ag.ResetClients(); got != 2*clients {
		t.Fatalf("ResetClients released %d profiles, want %d", got, 2*clients)
	}
	if ag.NumClients() != 0 {
		t.Fatalf("NumClients after reset = %d", ag.NumClients())
	}
	for _, key := range keys {
		if ag.ClientOf(key) != nil {
			t.Fatalf("ClientOf(%v) resolved a released profile", key)
		}
	}
	ag.EachClient(func(key ClientDay, _ *ClientAgg) { t.Fatalf("EachClient visited %v after reset", key) })
	if !reflect.DeepEqual(ag.names, names) || ag.Samples != samples {
		t.Fatal("reset touched the cumulative statistics")
	}
	for i := range uint32(2 * clients) {
		if *ag.at(i) != (ClientAgg{}) || ag.keyAt(i) != (ClientDay{}) {
			t.Fatalf("vacated slot %d still holds its profile", i)
		}
	}
	if len(ag.pairs.rows) != 0 || slices.ContainsFunc(ag.pairs.ctrl, func(c uint32) bool { return c != 0 }) {
		t.Fatalf("reset left %d tracked rows or a non-empty pair index", len(ag.pairs.rows))
	}
	if got := ag.ResetClients(); got != 0 {
		t.Fatalf("second reset released %d profiles", got)
	}

	feed(ag, 2)
	feed(ag, 3)
	fresh := NewAggregator(ag.Table, nil)
	fresh.SetTrackAll(true)
	feed(fresh, 2)
	feed(fresh, 3)
	if !reflect.DeepEqual(ag.chunks, fresh.chunks) || ag.n != fresh.n {
		t.Fatal("arena after reset + re-observe differs from a fresh aggregator's")
	}
	if !reflect.DeepEqual(ag.idx, fresh.idx) {
		t.Fatal("index layout after reset + re-observe differs from a fresh aggregator's")
	}
	if !reflect.DeepEqual(ag.pairs, fresh.pairs) {
		t.Fatal("tracked rows or their index after reset + re-observe differ from a fresh aggregator's")
	}
}

// TestEvictRecyclesArenaSlots is the arena-size assertion: a consumer
// that resets at every day close over a steady per-day client
// population keeps the arena capacity and index size its first day
// reached — released slots are recycled, not reallocated.
func TestEvictRecyclesArenaSlots(t *testing.T) {
	ag := NewAggregator(nil, nil)
	ag.SetTrackAll(true)
	const clients, totalDays = 200, 40
	var steadyCap, steadyIdx int
	for d := 0; d < totalDays; d++ {
		for c := 0; c < clients; c++ {
			ag.Observe(resetSample(d, c, "zone.example.", ag.Table))
		}
		if got := ag.NumClients(); got != clients {
			t.Fatalf("day %d: NumClients = %d, want %d", d, got, clients)
		}
		if d == 0 {
			steadyCap, steadyIdx = ag.ArenaCap(), len(ag.idx.ctrl)
		}
		if ag.ArenaCap() != steadyCap || len(ag.idx.ctrl) != steadyIdx {
			t.Fatalf("day %d: arena capacity %d -> %d, index size %d -> %d despite a steady population",
				d, steadyCap, ag.ArenaCap(), steadyIdx, len(ag.idx.ctrl))
		}
		ag.ResetClients()
	}
}

// TestEvictThenDetect proves the reset composes with the columnar
// detection sweep: detections over the days observed since equal those
// of a fresh aggregator that only ever saw those days.
func TestEvictThenDetect(t *testing.T) {
	names := map[string]bool{"zone0.example.": true, "zone1.example.": true}
	th := Thresholds{MinShare: 0.5, MinPackets: 3}
	feed := func(ag *Aggregator, fromDay, toDay int) {
		for d := fromDay; d < toDay; d++ {
			for c := 0; c < 20; c++ {
				for p := 0; p < 3+c%3; p++ {
					ag.Observe(resetSample(d, c, fmt.Sprintf("zone%d.example.", c%4), ag.Table))
				}
			}
		}
	}
	reset := NewAggregator(nil, nil)
	reset.SetTrackAll(true)
	feed(reset, 0, 5)
	reset.ResetClients()
	feed(reset, 5, 8)

	fresh := NewAggregator(nil, nil)
	fresh.SetTrackAll(true)
	feed(fresh, 5, 8)

	got := Detect(reset, names, th)
	want := Detect(fresh, names, th)
	if len(want) == 0 {
		t.Fatal("reference detection found nothing; the fixture is too weak")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("detections diverge after a reset:\n got %d detections\nwant %d", len(got), len(want))
	}
}

// TestReleaseNames pins the name-release contract: the kept names keep
// their statistics under dense new IDs in their old order, the released
// ones are gone from the table and the column alike, a name of the
// explicit tracked universe is kept whatever keep says, a ranking remapped over the release reads as a rescan of
// the released aggregate does — and a release with a profile held
// panics.
func TestReleaseNames(t *testing.T) {
	ag := NewAggregator(nil, []string{"tracked.test"})
	feed := []struct {
		name string
		qt   dnswire.Type
		size int
		resp bool
	}{
		{"small.test", dnswire.TypeA, 300, true},
		{"big.test", dnswire.TypeA, 4000, true},
		{"any.test", dnswire.TypeANY, 60, false},
		{"query.test", dnswire.TypeA, 900, false}, // no response: MaxSize 0
		{"mid.test", dnswire.TypeA, 2000, true},
		{"big.test", dnswire.TypeA, 100, true},
	}
	for i, f := range feed {
		ag.Observe(mkSample(ag.Table, byte(i), 0, f.name, f.qt, f.size, f.resp))
	}
	ag.Table.Intern("unseen.test.") // interned, never observed: zero statistics
	top1, top2 := NewTopNMaxSize(2), NewTopNANYCount(2)
	top1.Rescan(ag)
	top2.Rescan(ag)
	before := map[string]NameStats{}
	for id := range ag.Table.Len() {
		before[ag.Table.Name(uint32(id))] = ag.NameStatsOf(ag.Table.Name(uint32(id)))
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReleaseNames with profiles held did not panic")
			}
		}()
		ag.ReleaseNames(func(uint32, *NameStats) bool { return true })
	}()
	ag.ResetClients()
	floor, full := top1.Floor()
	if !full || floor != 2000 {
		t.Fatalf("Floor = %d, %v; want mid.test's 2000 of a full 2-entry ranking", floor, full)
	}
	remap := ag.ReleaseNames(func(_ uint32, ns *NameStats) bool {
		return ns.ANYPackets > 0 || ns.MaxSize >= floor
	})
	top1.Remap(remap)
	top2.Remap(remap)

	want := []string{"tracked.test.", "big.test.", "any.test.", "mid.test."}
	var got []string
	for id := range ag.Table.Len() {
		got = append(got, ag.Table.Name(uint32(id)))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || len(remap) != 7 {
		t.Fatalf("kept %v (remap %v), want %v", got, remap, want)
	}
	for _, n := range want {
		if ag.NameStatsOf(n) != before[n] {
			t.Errorf("%s: statistics %+v after the release, %+v before", n, ag.NameStatsOf(n), before[n])
		}
	}
	for _, n := range []string{"small.test.", "query.test.", "unseen.test."} {
		if _, ok := ag.Table.Lookup(n); ok {
			t.Errorf("released %s still in the table", n)
		}
	}
	if len(ag.names) != 4 {
		t.Errorf("a %d-entry column, want one per kept name, 4", len(ag.names))
	}
	if id, _ := ag.Table.Lookup("tracked.test."); !ag.isTracked(id) || ag.isTracked(id+1) {
		t.Errorf("tracked bitset after the release: %v", ag.tracked)
	}
	r1, r2 := NewTopNMaxSize(2), NewTopNANYCount(2)
	r1.Rescan(ag)
	r2.Rescan(ag)
	if fmt.Sprint(top1.Names(ag), top2.Names(ag)) != fmt.Sprint(r1.Names(ag), r2.Names(ag)) {
		t.Errorf("remapped rankings %v %v, rescanned %v %v", top1.Names(ag), top2.Names(ag), r1.Names(ag), r2.Names(ag))
	}
}
