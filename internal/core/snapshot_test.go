package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"dnsamp/internal/binenc"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

var errSnapTest = errors.New("core test: bad snapshot")

// snapSample builds a sanitized sample interned into tab.
func snapSample(tab *names.Table, at simclock.Time, client byte, name string, qt dnswire.Type, size int, resp bool) *ixp.BatchRecord {
	s := &ixp.BatchRecord{
		Time:    at,
		Src:     [4]byte{10, 0, 0, client},
		Dst:     [4]byte{203, 0, 113, 9},
		Resp:    resp,
		Name:    tab.Intern(dnswire.CanonicalName(name)),
		QType:   qt,
		MsgSize: int32(size),
	}
	if resp {
		s.Src, s.Dst = s.Dst, s.Src
	}
	return s
}

// feedRandom drives n random samples through ag, deterministic from
// seed.
func feedRandom(ag *Aggregator, tab *names.Table, seed uint64, n int) {
	rng := rand.New(rand.NewPCG(seed, 0))
	namesPool := []string{"a.test", "b.test", "amp.example", "big.example", "x.y.z.example"}
	for i := 0; i < n; i++ {
		at := simclock.MeasurementStart.Add(simclock.Duration(rng.IntN(4 * int(simclock.Day))))
		qt := dnswire.TypeA
		if rng.IntN(3) == 0 {
			qt = dnswire.TypeANY
		}
		ag.Observe(snapSample(tab, at, byte(1+rng.IntN(20)), namesPool[rng.IntN(len(namesPool))],
			qt, 60+rng.IntN(4000), rng.IntN(2) == 0))
	}
}

// roundTrip snapshots ag and restores it into a fresh aggregator over
// the same table.
func roundTrip(t *testing.T, ag *Aggregator) *Aggregator {
	t.Helper()
	var buf bytes.Buffer
	e := binenc.NewEncoder(&buf)
	ag.WriteSnapshot(e)
	if err := e.Flush(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got := NewAggregator(ag.Table, nil)
	d := binenc.NewDecoder(buf.Bytes(), errSnapTest)
	if err := got.ReadSnapshot(d); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("after the snapshot: %v", err)
	}
	return got
}

// sameArena reports whether a and b hold the same profiles under the
// same keys in the same order, with the same tracked-name counts.
func sameArena(t *testing.T, a, b *Aggregator) bool {
	t.Helper()
	ak, ap := arenaOf(a)
	bk, bp := arenaOf(b)
	return reflect.DeepEqual(ak, bk) && reflect.DeepEqual(ap, bp) &&
		reflect.DeepEqual(trackedCounts(t, a, "a"), trackedCounts(t, b, "b"))
}

// TestAggregatorSnapshotRoundTrip: a restored aggregator is
// indistinguishable from the original — same observable state, and
// identical behaviour under further traffic and detection.
func TestAggregatorSnapshotRoundTrip(t *testing.T) {
	tab := names.NewTable()
	ag := NewAggregator(tab, nil)
	ag.SetTrackAll(true)
	feedRandom(ag, tab, 1, 5000)

	got := roundTrip(t, ag)

	if got.Samples != ag.Samples || got.Requests != ag.Requests || got.TotalBytes != ag.TotalBytes ||
		got.ANYPackets != ag.ANYPackets || got.ANYBytes != ag.ANYBytes {
		t.Fatalf("global counters differ: got %+v", got)
	}
	if got.NumClients() != ag.NumClients() {
		t.Fatalf("client counts differ: %d/%d", got.NumClients(), ag.NumClients())
	}
	if !reflect.DeepEqual(got.names, ag.names) {
		t.Fatal("per-name stats differ")
	}
	if !sameArena(t, got, ag) {
		t.Fatal("client-day arena differs")
	}

	// Both continue identically: more traffic, then a detect sweep.
	feedRandom(ag, tab, 2, 2000)
	feedRandom(got, tab, 2, 2000)
	nl := BuildNameList(5, Selector1MaxSize(ag), Selector2ANYCount(ag))
	want := Detect(ag, nl.Names, DefaultThresholds())
	have := Detect(got, nl.Names, DefaultThresholds())
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("post-restore detections differ: got %d, want %d", len(have), len(want))
	}
}

// TestAggregatorSnapshotAfterEvict: snapshotting an aggregator whose
// profiles were released at a day close (slots recycled in place)
// round-trips the arena refilled since.
func TestAggregatorSnapshotAfterEvict(t *testing.T) {
	tab := names.NewTable()
	ag := NewAggregator(tab, nil)
	ag.SetTrackAll(true)
	feedRandom(ag, tab, 3, 3000)
	if ag.ResetClients() == 0 {
		t.Fatal("expected profiles to release")
	}
	if got := roundTrip(t, ag); got.NumClients() != 0 || !reflect.DeepEqual(got.names, ag.names) {
		t.Fatal("snapshot of a just-reset aggregator differs")
	}
	feedRandom(ag, tab, 4, 500)

	got := roundTrip(t, ag)
	if !sameArena(t, got, ag) {
		t.Fatal("post-reset arena differs")
	}
	// Both continue identically.
	feedRandom(ag, tab, 5, 1000)
	feedRandom(got, tab, 5, 1000)
	if !sameArena(t, got, ag) {
		t.Fatal("post-restore arena differs")
	}
	if ag.ResetClients() != got.ResetClients() {
		t.Fatal("post-restore reset differs")
	}
}

// TestAggregatorSnapshotCorrupt: truncation and byte flips fail with an
// error, never a panic, and never a giant allocation.
func TestAggregatorSnapshotCorrupt(t *testing.T) {
	tab := names.NewTable()
	ag := NewAggregator(tab, nil)
	ag.SetTrackAll(true)
	feedRandom(ag, tab, 5, 500)

	var buf bytes.Buffer
	e := binenc.NewEncoder(&buf)
	ag.WriteSnapshot(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
		got := NewAggregator(tab, nil)
		d := binenc.NewDecoder(raw[:cut], errSnapTest)
		if err := got.ReadSnapshot(d); err == nil {
			t.Errorf("truncation at %d: no error", cut)
		}
	}

	rng := rand.New(rand.NewPCG(6, 0))
	for i := 0; i < 50; i++ {
		mut := append([]byte(nil), raw...)
		mut[rng.IntN(len(mut))] ^= byte(1 + rng.IntN(255))
		got := NewAggregator(tab, nil)
		d := binenc.NewDecoder(mut, errSnapTest)
		// A flip may land in a value field and still decode; the
		// contract is no panic and no unbounded allocation.
		_ = got.ReadSnapshot(d)
	}
}
