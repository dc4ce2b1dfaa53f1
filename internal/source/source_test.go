package source_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
	"dnsamp/internal/topology"
)

// tinyCampaign builds a small deterministic campaign for source tests.
func tinyCampaign(t testing.TB) *ecosystem.Campaign {
	t.Helper()
	cfg := ecosystem.DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	return ecosystem.NewCampaign(cfg)
}

func testWindow() simclock.Window {
	return simclock.Window{
		Start: simclock.MeasurementStart,
		End:   simclock.MeasurementStart.Add(simclock.Days(5)),
	}
}

// batchRow is one row of a batch with its name resolved: an ID means
// something only inside its table, so rows of two sources compare by
// QName and Name is left zero.
type batchRow struct {
	ixp.BatchRecord
	QName string
}

// drain accounts a batch through a fresh capture point over the batch's
// own table, as the detection pipeline does, and returns the batch's
// rows and the capture stats.
func drain(c *ecosystem.Campaign, b *ixp.SampleBatch) ([]batchRow, ixp.CaptureStats) {
	cp := ixp.NewCapturePoint(c.Topo, b.Table)
	cp.RemapBatch(b)
	return rowsOf(b), cp.Stats
}

// rowsOf lists a batch's rows with their names resolved.
func rowsOf(b *ixp.SampleBatch) []batchRow {
	out := make([]batchRow, b.N)
	for i, r := range b.Rows {
		out[i] = batchRow{QName: b.Table.Name(r.Name), BatchRecord: r}
		out[i].Name = 0
	}
	return out
}

// TestSyntheticSource checks the generator adapter: day listing from
// the window, and batches identical to direct generator output.
func TestSyntheticSource(t *testing.T) {
	c := tinyCampaign(t)
	w := testWindow()
	src := source.NewSynthetic(ecosystem.NewGenerator(c, 7), w)
	gen := ecosystem.NewGenerator(c, 7)

	days := src.Days()
	if len(days) != w.Days() {
		t.Fatalf("Days() = %d entries, want %d", len(days), w.Days())
	}
	if src.Table() == nil || src.Table() != src.Gen.Table() {
		t.Fatal("Table() must expose the generator's frozen table")
	}
	for _, day := range days {
		want := gen.Day(day, nil)
		batch, flows := src.DayFlows(day, nil)
		if !reflect.DeepEqual(want.Batch, batch) {
			t.Fatalf("day %s: DayFlows batch differs from Generator.Day", day.Date())
		}
		if !reflect.DeepEqual(want.Sensors, flows) {
			t.Fatalf("day %s: sensor flows differ", day.Date())
		}
		// Asked for every client of the day, DayFor is the whole day.
		clients := make([][4]byte, batch.N)
		for i := range clients {
			clients[i] = batch.Rows[i].Client()
		}
		if !reflect.DeepEqual(want.Batch, src.DayFor(day, clients, nil)) {
			t.Fatalf("day %s: DayFor over every client of the day differs from the day", day.Date())
		}
	}
}

// TestReplayMatchesSynthetic is the non-synthetic-workload proof: a
// Replay fed recorded wire frames (sanitized at ingest) must stream
// sample-for-sample exactly what the Synthetic source streams, and a
// Record snapshot must serve the very same batches.
func TestReplayMatchesSynthetic(t *testing.T) {
	c := tinyCampaign(t)
	w := testWindow()
	syn := source.NewSynthetic(ecosystem.NewGenerator(c, 7), w)
	wireGen := ecosystem.NewGenerator(c, 7)

	replay := source.NewReplay(nil)
	for _, day := range syn.Days() {
		wd := wireGen.WireDay(day)
		addFrames(replay, day, wd.IXP, wd.Sensors)
	}
	if !reflect.DeepEqual(replay.Days(), syn.Days()) {
		t.Fatal("replay day list differs")
	}
	for _, day := range syn.Days() {
		sb, sFlows := syn.DayFlows(day, nil)
		rb, rFlows := replay.DayFlows(day, nil)
		wantS, wantStats := drain(c, sb)
		gotS, gotStats := drain(c, rb)
		if len(wantS) != len(gotS) {
			t.Fatalf("day %s: %d synthetic samples vs %d replayed", day.Date(), len(wantS), len(gotS))
		}
		for i := range wantS {
			if !reflect.DeepEqual(wantS[i], gotS[i]) {
				t.Fatalf("day %s sample %d differs:\nsynthetic: %+v\nreplay:    %+v",
					day.Date(), i, wantS[i], gotS[i])
			}
		}
		if wantStats != gotStats {
			t.Errorf("day %s: capture stats differ: %+v vs %+v", day.Date(), wantStats, gotStats)
		}
		if !reflect.DeepEqual(sFlows, rFlows) {
			t.Errorf("day %s: sensor flows differ", day.Date())
		}
	}

	// Record: a snapshot of another source shares its batches.
	rec := source.Record(syn)
	for _, day := range syn.Days() {
		if b, sb := rec.Day(day), syn.Gen.Day(day, nil).Batch; b == nil || b.N != sb.N {
			t.Fatalf("day %s: recorded batch missing or truncated", day.Date())
		}
	}
	if rec.Table() != syn.Table() {
		t.Error("Record must keep the source's interning table")
	}
	// Unknown days are absent, not invented.
	if b := rec.Day(w.End.Add(simclock.Days(3))); b != nil {
		t.Error("unrecorded day must return a nil batch")
	}
}

// TestReplayLeavesScratch holds Replay to the scratch contract of
// Source: lent a scratch, DayFlows and DayFor return the recorded batch
// itself and leave the scratch as it was, and DayFlows' sensor flows
// are the caller's, so filtering them in place (as the pipeline's pass
// 1 does) leaves the recording whole.
func TestReplayLeavesScratch(t *testing.T) {
	c := tinyCampaign(t)
	syn := source.NewSynthetic(ecosystem.NewGenerator(c, 7), testWindow())
	rec := source.Record(syn)
	var scratch ixp.SampleBatch
	syn.DayFlows(syn.Days()[0], &scratch)
	lent := scratch
	lent.Rows = slices.Clone(scratch.Rows)
	withFlows := 0
	for _, day := range rec.Days() {
		want, wantFlows := syn.DayFlows(day, nil)
		b, flows := rec.DayFlows(day, &scratch)
		if b != rec.Day(day) || rec.DayFor(day, nil, &scratch) != b {
			t.Fatalf("day %s: the replay did not return its recorded batch", day.Date())
		}
		if !reflect.DeepEqual(scratch, lent) {
			t.Fatalf("day %s: the replay wrote to the lent scratch", day.Date())
		}
		withFlows += min(len(flows), 1)
		clear(flows)
		if _, again := rec.DayFlows(day, nil); !reflect.DeepEqual(b, want) || !reflect.DeepEqual(again, wantFlows) {
			t.Fatalf("day %s: the recording changed under its reader", day.Date())
		}
	}
	if withFlows == 0 {
		t.Fatal("no day has sensor flows: the check cannot see them change")
	}
}

// TestAddDayForeignTablePanics pins the one-table invariant at the
// replay's door: every batch a Source emits is in Source.Table(), so
// AddDay refuses a batch interned anywhere else instead of storing name
// IDs that would dangle. Empty days (nil batches) and batches in the
// replay's own table are stored.
func TestAddDayForeignTablePanics(t *testing.T) {
	other := names.NewTable()
	foreign := &ixp.SampleBatch{Table: other}
	foreign.Append(ixp.BatchRecord{Name: other.Intern("elsewhere.example.")})

	r := source.NewReplay(nil)
	day := simclock.MeasurementStart
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddDay accepted a batch in a foreign name table")
			}
		}()
		r.AddDay(day, foreign, nil)
	}()
	if len(r.Days()) != 0 {
		t.Fatalf("refused AddDay still recorded a day: %v", r.Days())
	}

	r.AddDay(day, nil, nil)
	own := &ixp.SampleBatch{Table: r.Table()}
	r.AddDay(day.Add(simclock.Days(1)), own, nil)
	if len(r.Days()) != 2 || r.Day(day) != nil || r.Day(day.Add(simclock.Days(1))) != own {
		t.Errorf("nil and own-table batches: days %v", r.Days())
	}
}

// TestReplayDayOrder adds days out of order, through AddDay and
// ingestion, with repeats: Days() must come out sorted and distinct and
// Day must resolve every one of them.
func TestReplayDayOrder(t *testing.T) {
	const n = 40
	reverse := make([]simclock.Time, n)
	for i := range reverse {
		reverse[i] = simclock.MeasurementStart.Add(simclock.Days(n - 1 - i))
	}
	shuffled := slices.Clone(reverse)
	rand.New(rand.NewSource(5)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	want := slices.Clone(reverse)
	slices.Reverse(want)

	for _, order := range []struct {
		name string
		days []simclock.Time
	}{{"reverse", reverse}, {"shuffled", shuffled}} {
		for _, method := range []string{"AddDay", "ingest", "both"} {
			r := source.NewReplay(nil)
			for i, day := range order.days {
				// A day re-added later in the hour must not be listed twice.
				for _, at := range []simclock.Time{day, day.Add(simclock.Hour)} {
					if method == "AddDay" || method == "both" && i%2 == 0 {
						r.AddDay(at, &ixp.SampleBatch{Table: r.Table()}, nil)
					} else {
						rec := syntheticLogRecords(1)
						rec[0].Rec.Time = at
						ingestLog(t, r, logOf(t, rec))
					}
				}
			}
			if got := r.Days(); !slices.Equal(got, want) {
				t.Fatalf("%s via %s: Days() = %v, want %v", order.name, method, got, want)
			}
			for _, day := range want {
				if r.Day(day) == nil {
					t.Errorf("%s via %s: Day(%s) = nil", order.name, method, day.Date())
				}
			}
		}
	}
}

// BenchmarkReplayAddDays records 20 000 empty days in ascending order,
// the order OpenSnapshot adds them in.
func BenchmarkReplayAddDays(b *testing.B) {
	const n = 20_000
	b.ReportAllocs()
	for b.Loop() {
		r := source.NewReplay(nil)
		for i := range n {
			r.AddDay(simclock.MeasurementStart.Add(simclock.Days(i)), nil, nil)
		}
	}
}
