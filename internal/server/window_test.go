package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"dnsamp/internal/binenc"
	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// winSample builds a sanitized response sample at an explicit stream
// time, interned into the window's table space.
func winSample(w *Window, at simclock.Time, client byte, name string, qt dnswire.Type, size int) *ixp.DNSSample {
	return tabSample(w.Capture().Table, at, client, name, qt, size)
}

// tabSample is winSample for any consumer's table.
func tabSample(tab *names.Table, at simclock.Time, client byte, name string, qt dnswire.Type, size int) *ixp.DNSSample {
	id := tab.Intern(dnswire.CanonicalName(name))
	return &ixp.DNSSample{
		BatchRecord: ixp.BatchRecord{
			Time:    at,
			Src:     [4]byte{203, 0, 113, 1},
			Dst:     [4]byte{11, 0, 0, client},
			Resp:    true,
			Name:    id,
			QType:   qt,
			MsgSize: int32(size),
		},
		QName:   tab.Name(id),
		NameGen: tab.Gen(),
	}
}

func dayTime(day int) simclock.Time {
	return simclock.MeasurementStart.Add(simclock.Days(day)).Add(simclock.Hour)
}

// feedDay pushes one day of traffic: 20 amplification responses to the
// victim client (when victim != 0) and 5 benign responses to client 9.
func feedDay(w *Window, day int, victim byte) {
	at := dayTime(day)
	if victim != 0 {
		for i := 0; i < 20; i++ {
			w.Observe(winSample(w, at, victim, "amp.test", dnswire.TypeANY, 4000))
		}
	}
	for i := 0; i < 5; i++ {
		w.Observe(winSample(w, at, 9, "ok.test", dnswire.TypeA, 100))
	}
}

// TestWindowSlidesAndDetects walks the state model: the window holds the
// open day's profiles and releases every profile at a close; a straggler
// inside the lateness horizon feeds the selectors but never a detection;
// a sample at or beyond the horizon changes nothing.
func TestWindowSlidesAndDetects(t *testing.T) {
	w := NewWindow(WindowConfig{Days: 2, ListSize: 1}, NewStages())

	feedDay(w, 0, 1) // victim 11.0.0.1
	if got := w.Stats(); got.ClosedDays != 0 || got.CurDay != simclock.MeasurementStart.Day() || got.ClientDays != 2 {
		t.Fatalf("before first close: %+v", got)
	}

	feedDay(w, 1, 2) // first day-1 sample closes day 0 and releases its two profiles
	st := w.Stats()
	if st.ClosedDays != 1 || st.Detections != 1 {
		t.Fatalf("after day 0 close: %+v", st)
	}
	if st.Evicted != 2 || st.ClientDays != 2 {
		t.Fatalf("a close releases the closed day and leaves the open one: %+v", st)
	}

	// A straggler one day behind a 2-day horizon: twenty responses that
	// would make 11.0.0.7 a victim of day 0, had day 0 not closed. They
	// raise their name's statistics at once and open a profile that no
	// close reports.
	for i := 0; i < 20; i++ {
		w.Observe(winSample(w, dayTime(0), 7, "late.test", dnswire.TypeANY, 5000))
	}
	if ns := w.agg.NameStatsOf("late.test"); ns.MaxSize != 5000 || ns.ANYPackets != 20 {
		t.Fatalf("straggler name statistics = %+v, want MaxSize 5000 and 20 ANY packets", ns)
	}
	if st = w.Stats(); st.LateSamples != 0 || st.ClientDays != 3 {
		t.Fatalf("after the straggler: %+v, want nothing late and one more profile", st)
	}

	feedDay(w, 2, 0) // closes day 1; its refresh sees the straggler's name
	st = w.Stats()
	if st.ClosedDays != 2 || st.Detections != 2 {
		t.Fatalf("after day 1 close: %+v, want day 1's victim and no detection for the straggler's day", st)
	}
	if st.Evicted != 5 || st.ClientDays != 1 {
		t.Fatalf("after day 1 close: %+v, want day 1's two profiles and the straggler's released", st)
	}
	names := w.CurrentNames()
	slices.Sort(names)
	if !slices.Equal(names, []string{"amp.test.", "late.test."}) {
		t.Fatalf("name list = %v, want the largest (late.test.) and the most-ANY (amp.test.) name", names)
	}

	// Two days behind is at the horizon: dropped, counted, and nothing
	// else moves — not even the selectors' view.
	late := winSample(w, dayTime(0), 1, "huge.test", dnswire.TypeANY, 60000)
	before, samples := w.Stats(), w.agg.Samples
	w.Observe(late)
	st = w.Stats()
	if st.LateSamples != 1 {
		t.Fatalf("late samples = %d, want 1", st.LateSamples)
	}
	before.LateSamples = 1
	if st != before || w.agg.Samples != samples || w.agg.NameStatsOf("huge.test") != (core.NameStats{}) {
		t.Fatalf("a late sample changed the window: %+v -> %+v", before, st)
	}

	w.Close() // finalizes day 2 (benign only: no new detection)
	st = w.Stats()
	if st.ClosedDays != 3 || st.Detections != 2 || st.ClientDays != 0 || st.Evicted != 6 {
		t.Fatalf("after Close: %+v", st)
	}

	dets := w.Detections()
	d0, d1 := simclock.MeasurementStart.Day(), simclock.MeasurementStart.Day()+1
	if dets[0].Day != d0 || dets[0].Victim != [4]byte{11, 0, 0, 1} {
		t.Errorf("detection 0 = %+v", dets[0])
	}
	if dets[1].Day != d1 || dets[1].Victim != [4]byte{11, 0, 0, 2} {
		t.Errorf("detection 1 = %+v", dets[1])
	}
	for _, d := range dets {
		if d.Share != 1.0 || d.Packets != 20 {
			t.Errorf("detection profile = %+v", d)
		}
	}
	if names := w.CurrentNames(); len(names) != 2 {
		t.Errorf("name list after Close = %v, want it unchanged by the late sample", names)
	}
}

// TestWindowMatchesBatch is the in-process golden: the streaming
// window, which keeps one day of profiles, must report exactly the
// detections of a batch pass that keeps them all, with the same
// day-close semantics over the same samples.
func TestWindowMatchesBatch(t *testing.T) {
	const days, listN = 6, 2
	w := NewWindow(WindowConfig{Days: 2, ListSize: listN}, nil)

	// Batch reference: cumulative aggregator, per-day close-out. It
	// shares the window's interning table, so winSample IDs are valid
	// in both.
	ref := core.NewAggregator(w.Capture().Table, nil)
	ref.SetTrackAll(true)
	th := core.DefaultThresholds()
	var want []*core.Detection

	victims := []byte{1, 2, 0, 3, 0, 4}
	for day := 0; day < days; day++ {
		feedDay(w, day, victims[day])

		at := dayTime(day)
		if victims[day] != 0 {
			for i := 0; i < 20; i++ {
				ref.Observe(&winSample(w, at, victims[day], "amp.test", dnswire.TypeANY, 4000).BatchRecord)
			}
		}
		for i := 0; i < 5; i++ {
			ref.Observe(&winSample(w, at, 9, "ok.test", dnswire.TypeA, 100).BatchRecord)
		}
		nl := core.BuildNameList(listN, core.Selector1MaxSize(ref), core.Selector2ANYCount(ref))
		for _, det := range core.Detect(ref, nl.Names, th) {
			if det.Day == at.Day() {
				want = append(want, det)
			}
		}
	}
	w.Close()

	got := w.Detections()
	if len(got) != len(want) {
		t.Fatalf("detections: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Errorf("detection %d: got %+v, want %+v", i, *got[i], *want[i])
		}
	}
	if st := w.Stats(); st.Evicted == 0 || st.ClientDays != 0 {
		t.Fatalf("six closes must have released every profile: %+v", st)
	}
}

func TestWindowIntervalRefresh(t *testing.T) {
	w := NewWindow(WindowConfig{}, nil) // default 5-minute cadence
	at := dayTime(0)
	w.Observe(winSample(w, at, 1, "a.test", dnswire.TypeA, 100))
	if got := w.Stats().Refreshes; got != 0 {
		t.Fatalf("refreshes after first sample = %d, want 0", got)
	}
	w.Observe(winSample(w, at.Add(6*simclock.Minute), 1, "a.test", dnswire.TypeA, 100))
	if got := w.Stats().Refreshes; got != 1 {
		t.Fatalf("refreshes after 6 minutes = %d, want 1", got)
	}
}

// TestWindowDayLog: three days of one victim's traffic, ten minutes
// apart, close as three day rows of one victim in one /24 each — also
// when the stream is disordered: same-day samples behind a next-day
// straggler land in their (already closed) day and never open a second
// row for it.
func TestWindowDayLog(t *testing.T) {
	w := NewWindow(WindowConfig{Days: 2, ListSize: 5}, nil)
	t0 := simclock.MeasurementStart
	for day := 0; day < 3; day++ {
		for i := 0; i < 50; i++ {
			at := t0.Add(simclock.Days(day)).Add(simclock.Duration(i) * 10 * simclock.Minute)
			w.Observe(winSample(w, at, 1, "bad.test", dnswire.TypeANY, 5000))
			if i == 40 && day < 2 { // the next day's straggler, 10 samples early
				w.Observe(winSample(w, t0.Add(simclock.Days(day+1)), 1, "bad.test", dnswire.TypeANY, 5000))
			}
		}
	}
	w.Close()
	days := w.Days()
	if len(days) != 3 {
		t.Fatalf("day rows = %+v, want 3", days)
	}
	for i, d := range days {
		if d.Day != t0.Day()+i {
			t.Errorf("row %d is day %d, want %d", i, d.Day, t0.Day()+i)
		}
		if d.Victims != 1 || d.Prefixes24 != 1 || d.Prefixes16 != 1 || d.Prefixes8 != 1 {
			t.Errorf("day %d: %+v, want 1 victim in 1 prefix of each length", d.Day, d)
		}
		if d.HasPrev != (i > 0) || (i > 0 && d.Jaccard != 1) {
			t.Errorf("day %d: stable traffic, yet Jaccard %v (has predecessor: %v)", d.Day, d.Jaccard, d.HasPrev)
		}
	}
	if st := w.Stats(); st.Refreshes <= st.ClosedDays || st.ClosedDays != 3 {
		t.Errorf("no interval refreshes between the closes: %+v", st)
	}
}

// TestWindowDayLogJaccard: a day row compares its list with the list of
// the previous close, not of the previous 5-minute refresh. ListSize 2;
// day 0 closes on {a, b}; day 1 brings c, larger and more often ANY than
// b, so it closes on {a, c}: 1 shared of 3 names. An interval refresh
// has already adopted {a, c} by then, so against it the close reads 1.
func TestWindowDayLogJaccard(t *testing.T) {
	w := NewWindow(WindowConfig{Days: 2, ListSize: 2}, nil)
	feed := func(day int, hour simclock.Duration, name string, size, n int) {
		for i := 0; i < n; i++ {
			w.Observe(winSample(w, simclock.MeasurementStart.Add(simclock.Days(day)+hour*simclock.Hour), 1, name, dnswire.TypeANY, size))
		}
	}
	feed(0, 1, "a.test", 4000, 2)
	feed(0, 1, "b.test", 3000, 1)
	feed(1, 1, "c.test", 5000, 3)
	feed(1, 2, "a.test", 4000, 1) // an hour on: the interval refresh sees c
	if got := w.CurrentNames(); !slices.Contains(got, "c.test.") {
		t.Fatalf("list after the interval refresh = %v, want c.test. adopted", got)
	}
	feed(2, 1, "a.test", 4000, 1)
	if st := w.Stats(); st.Jaccard != 1 {
		t.Fatalf("day 1 closed on a changed list (Jaccard vs previous refresh %v); the test needs it unchanged", st.Jaccard)
	}
	w.Close()
	days := w.Days()
	if len(days) != 3 {
		t.Fatalf("day rows = %+v, want 3", days)
	}
	if d := days[0]; d.HasPrev || d.Jaccard != 0 || d.ListNames != 2 {
		t.Errorf("first close = %+v, want no predecessor and a 2-name list", d)
	}
	if d := days[1]; !d.HasPrev || d.Jaccard != 1.0/3 {
		t.Errorf("day 1 = %+v, want Jaccard({a,b},{a,c}) = 1/3", d)
	}
	if d := days[2]; !d.HasPrev || d.Jaccard != 1 {
		t.Errorf("day 2 = %+v, want Jaccard 1 (list unchanged since day 1 closed)", d)
	}
}

// oracleSample is one sample of the oracle stream, materialized against
// whichever window is consuming it (a resumed window has its own table).
type oracleSample struct {
	at     simclock.Time
	client byte
	name   string
	qt     dnswire.Type
	size   int
	resp   bool
	late   bool // older than the window on arrival: must be dropped
}

func (o oracleSample) in(w *Window) *ixp.DNSSample {
	s := winSample(w, o.at, o.client, o.name, o.qt, o.size)
	s.Resp = o.resp
	return s
}

// oracleStream builds a deterministic multi-day arrival sequence for a
// 2-day window: per day a marker query first (it closes the previous
// day without moving a selector score, so the list refreshed at day
// close can be compared after Observe returns), then the day's traffic
// shuffled out of order, laced with stragglers from the previous day
// (inside the window) and from three days back (late). One 5-minute
// span per day carries a burst longer than the name table, which
// overflows the touched log. Sizes come from a few classes so the
// rank-n cut runs through score ties.
func oracleStream(days int) []oracleSample {
	rng := rand.New(rand.NewPCG(12, 34))
	sizes := []int{300, 1400, 1400, 4096, 4096, 4096}
	mk := func(at simclock.Time, pool int) oracleSample {
		o := oracleSample{
			at: at, client: byte(1 + rng.IntN(30)),
			name: fmt.Sprintf("n%03d.test", rng.IntN(pool)),
			qt:   dnswire.TypeA, size: sizes[rng.IntN(len(sizes))], resp: rng.IntN(3) > 0,
		}
		if rng.IntN(3) == 0 {
			o.qt = dnswire.TypeANY
		}
		return o
	}
	var out []oracleSample
	for d := 0; d < days; d++ {
		start := simclock.MeasurementStart.Add(simclock.Days(d))
		out = append(out, oracleSample{at: start, client: 99, name: "marker.test", qt: dnswire.TypeA, size: 40})
		var day []oracleSample
		for i := 0; i < 2500; i++ {
			// The name pool widens through the study: names keep
			// appearing mid-stream.
			day = append(day, mk(start.Add(simclock.Duration(rng.IntN(int(simclock.Day)))), 60+80*d))
		}
		burst := start.Add(simclock.Duration(6+d) * simclock.Hour)
		for i := 0; i < 700; i++ {
			day = append(day, mk(burst.Add(simclock.Duration(rng.IntN(200))), 60+80*d))
		}
		slices.SortFunc(day, func(a, b oracleSample) int { return int(a.at.Sub(b.at)) })
		for i := range day { // local disorder, as UDP delivers it
			j := min(len(day)-1, i+rng.IntN(8))
			day[i], day[j] = day[j], day[i]
		}
		for i, o := range day {
			out = append(out, o)
			if d >= 1 && i%400 == 7 {
				out = append(out, mk(o.at.Add(-simclock.Day), 60+80*d))
			}
			if d >= 3 && i%500 == 9 {
				l := mk(o.at.Add(-3*simclock.Day), 60+80*d)
				l.late = true
				out = append(out, l)
			}
		}
	}
	return out
}

func snapshotBytes(t *testing.T, w *Window) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := binenc.NewEncoder(&buf)
	w.writeSnapshot(e)
	if err := e.Flush(); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	return buf.Bytes()
}

func restoreWindow(t *testing.T, cfg WindowConfig, snap []byte) *Window {
	t.Helper()
	w := NewWindow(cfg, nil)
	d := binenc.NewDecoder(snap, ErrCheckpoint)
	if err := w.readSnapshot(d); err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("after the snapshot: %v", err)
	}
	return w
}

// TestWindowRefreshMatchesOracle: at every refresh — interval or day
// close, incremental or rescanned, before and after a checkpoint
// resume — the window's list equals the full-sort selectors' list over
// the same aggregate.
func TestWindowRefreshMatchesOracle(t *testing.T) {
	stream := oracleStream(5)
	for _, listN := range []int{3, 29} {
		cfg := WindowConfig{Days: 2, ListSize: listN}
		w := NewWindow(cfg, nil)
		var incremental, rescanned, late int
		for i, o := range stream {
			if i == len(stream)/2 {
				w = restoreWindow(t, cfg, snapshotBytes(t, w))
			}
			refreshes, logged, byRescan := w.refreshN, len(w.touched), w.rescan
			w.Observe(o.in(w))
			if o.late {
				late++
				if len(w.touched) != logged || w.refreshN != refreshes {
					t.Fatalf("sample %d: a late sample was logged or refreshed the list", i)
				}
				continue
			}
			if w.refreshN == refreshes {
				continue
			}
			if byRescan {
				rescanned++
			} else {
				incremental++
			}
			got := w.CurrentNames()
			slices.Sort(got)
			want := core.BuildNameList(listN, core.Selector1MaxSize(w.agg), core.Selector2ANYCount(w.agg)).Sorted()
			if !slices.Equal(got, want) {
				t.Fatalf("ListSize %d, sample %d, refresh %d (rescan %v):\n got %v\nwant %v", listN, i, w.refreshN, byRescan, got, want)
			}
		}
		if st := w.Stats(); int(st.LateSamples) != late || late == 0 {
			t.Fatalf("late samples: window dropped %d, stream carried %d", st.LateSamples, late)
		}
		if incremental < 100 || rescanned < 5 {
			t.Fatalf("ListSize %d: %d incremental and %d rescanned refreshes; the stream must exercise both", listN, incremental, rescanned)
		}
	}
}

// TestCheckpointBytesDeterministic: one window state has one encoding —
// snapshotting twice, or loading a snapshot and writing it back, yields
// identical bytes (the name list used to go out in map order).
func TestCheckpointBytesDeterministic(t *testing.T) {
	cfg := WindowConfig{Days: 2, ListSize: 29}
	w := NewWindow(cfg, nil)
	for _, o := range oracleStream(2) {
		w.Observe(o.in(w))
	}
	if len(w.names) < 10 {
		t.Fatalf("name list has %d entries; too few for map order to matter", len(w.names))
	}
	first := snapshotBytes(t, w)
	for i := 0; i < 4; i++ {
		if !bytes.Equal(snapshotBytes(t, w), first) {
			t.Fatal("two snapshots of the same window differ")
		}
	}
	if !bytes.Equal(snapshotBytes(t, restoreWindow(t, cfg, first)), first) {
		t.Fatal("a load→write round trip changed the snapshot bytes")
	}
}

// refreshWindow builds a window whose table holds nNames scored names
// (sizes collide, so the cut runs through ties) with the rankings
// settled, and returns 64 name IDs spread over the table — a few of
// them ranked — to replay as one refresh interval's touched log.
func refreshWindow(tb testing.TB, nNames int) (*Window, []uint32) {
	tb.Helper()
	w := NewWindow(WindowConfig{Days: 1}, NewStages())
	rng := rand.New(rand.NewPCG(9, 9))
	at := dayTime(0)
	for i := 0; i < nNames; i++ {
		s := winSample(w, at, byte(i), fmt.Sprintf("name%07d.example", i), dnswire.TypeANY, 64*(1+rng.IntN(64)))
		s.Dst[1], s.Dst[2] = byte(i>>16), byte(i>>8) // few names per client
		w.Observe(s)
	}
	w.refresh(at)
	ids := make([]uint32, 64)
	for i := range ids {
		ids[i] = uint32(rng.IntN(nNames))
	}
	for i, name := range w.CurrentNames()[:4] {
		ids[i*16], _ = w.agg.Table.Lookup(name)
	}
	return w, ids
}

// BenchmarkWindowRefresh is one incremental refresh after 64 touched
// names: its cost must not depend on the size of the name table.
func BenchmarkWindowRefresh(b *testing.B) {
	for _, nNames := range []int{12_000, 1_000_000} {
		b.Run(fmt.Sprintf("names=%d", nNames), func(b *testing.B) {
			w, ids := refreshWindow(b, nNames)
			at := dayTime(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.touched = append(w.touched[:0], ids...)
				w.refresh(at)
			}
		})
	}
}

// fillWindow feeds w seven days of traffic, the last left open: per day
// 10 000 clients with two ordinary responses each, drawn from 2 000
// names, and 100 victims of 12 large ANY responses to one name. It
// leaves seven days of name statistics and the open day's profiles.
func fillWindow(w *Window) {
	for day := 0; day < 7; day++ {
		at := dayTime(day)
		for c := 0; c < 10_000; c++ {
			for k := 0; k < 2; k++ {
				s := winSample(w, at, byte(c), fmt.Sprintf("n%04d.test", (c*2+k)%2000), dnswire.TypeA, 100+c%1400)
				s.Dst[1], s.Dst[2] = byte(day), byte(c>>8)
				w.Observe(s)
			}
		}
		for v := 0; v < 100; v++ {
			for k := 0; k < 12; k++ {
				s := winSample(w, at, byte(v), "amp.test", dnswire.TypeANY, 4000)
				s.Dst[0] = 12
				w.Observe(s)
			}
		}
	}
}

// BenchmarkWindowCloseDay is one day close: the list refresh, Detect
// over the open day's 10 100 client-days, and the day's summary row —
// not the release of the profiles, which the next iteration detects
// over again. The detection and day logs are emptied each iteration so
// they do not grow with b.N.
func BenchmarkWindowCloseDay(b *testing.B) {
	w := NewWindow(WindowConfig{Days: 7}, NewStages())
	fillWindow(w)
	at := dayTime(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.detections, w.days = w.detections[:0], w.days[:0]
		w.closeDay(at)
	}
	if len(w.detections) != 100 {
		b.Fatalf("the close found %d detections, want the day's 100 victims", len(w.detections))
	}
}

// checkpointService is an unstarted service whose window holds what
// fillWindow leaves.
func checkpointService() *Service {
	svc := NewService(Config{Window: WindowConfig{Days: 7}})
	fillWindow(svc.win)
	return svc
}

// BenchmarkCheckpointEncode serializes the whole service state (name
// table, the open day's client-day arena, lists, checksum) to memory:
// the part of a checkpoint that runs under the consumer's lock.
func BenchmarkCheckpointEncode(b *testing.B) {
	svc := checkpointService()
	var raw []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if raw, err = svc.encodeCheckpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(raw)))
}

// BenchmarkCheckpointDecode restores that image into a fresh service,
// as -resume does before the inputs start.
func BenchmarkCheckpointDecode(b *testing.B) {
	src := checkpointService()
	raw, err := src.encodeCheckpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := NewService(src.cfg)
		if err := svc.decodeCheckpoint(raw); err != nil {
			b.Fatal(err)
		}
	}
}
