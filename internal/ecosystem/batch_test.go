package ecosystem

import (
	"reflect"
	"testing"

	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
)

// TestDayBatchMatchesWire is the equivalence proof behind the batch
// fast path: for every day, the batch emitted by Day must equal, row
// for row, the batch built from WireDay's
// materialized frames the way source.AppendFrames builds one — each
// frame through CapturePoint.Sanitize, counted on the batch, survivors
// appended with their ingress tag — and accounting each batch with
// RemapBatch must leave the same sanitization stats. Both paths consume their per-day RNG stream identically, so this holds
// field by field — except Name, an ID in each side's own table (the
// wire side interns as frames arrive, the batch lives in the
// generator's table): names are compared as strings.
func TestDayBatchMatchesWire(t *testing.T) {
	c := tinyCampaign(t)
	gw := NewGenerator(c, 7)
	gb := NewGenerator(c, 7)

	days := []simclock.Time{
		simclock.MeasurementStart,
		simclock.MeasurementStart.Add(simclock.Days(3)),
		simclock.MeasurementStart.Add(simclock.Days(10)),
		c.Entity.Reloc1.Add(simclock.Days(3)), // ingress-tagged requests
		simclock.MeasurementEnd.Add(simclock.Days(5)),
	}
	for _, day := range days {
		wire := gw.WireDay(day)
		batch := gb.Day(day, nil)
		got := batch.Batch

		capW := ixp.NewCapturePoint(nil, nil)
		want := &ixp.SampleBatch{Table: capW.Table}
		var s ixp.DNSSample
		for _, tr := range wire.IXP {
			if want.Count(capW.Sanitize(tr.Rec, &s)) {
				s.Ingress = tr.Ingress
				want.Append(s.BatchRecord)
			}
		}
		capW.RemapBatch(want)
		capB := ixp.NewCapturePoint(nil, got.Table)
		capB.RemapBatch(got)

		if want.N == 0 || want.N != got.N {
			t.Fatalf("day %s: %d wire samples vs %d batch rows", day.Date(), want.N, got.N)
		}
		for i := range got.Rows {
			w, b := want.Rows[i], got.Rows[i]
			wn, bn := want.Table.Name(w.Name), got.Table.Name(b.Name)
			w.Name, b.Name = 0, 0
			if w != b || wn != bn {
				t.Fatalf("day %s row %d differs:\nwire:  %+v %q\nbatch: %+v %q", day.Date(), i, w, wn, b, bn)
			}
		}
		if capW.Stats != capB.Stats {
			t.Errorf("day %s stats differ:\nwire:  %+v\nbatch: %+v",
				day.Date(), capW.Stats, capB.Stats)
		}
		if !reflect.DeepEqual(wire.Sensors, batch.Sensors) {
			t.Errorf("day %s sensor flows differ", day.Date())
		}
	}
}

// TestBatchRowsConsistent checks the structural invariants of an
// emitted batch: N counts the rows, the frames account for them, and
// every name ID resolves in the batch's table.
func TestBatchRowsConsistent(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	dt := g.Day(simclock.MeasurementStart.Add(simclock.Days(3)), nil)
	b := dt.Batch
	if b == nil || b.N == 0 {
		t.Fatal("no batch records")
	}
	if len(b.Rows) != b.N {
		t.Errorf("%d rows, N %d", len(b.Rows), b.N)
	}
	if b.Frames != b.N+b.NonUDP+b.NonDNS+b.Malformed {
		t.Errorf("frame accounting: %d != %d+%d+%d+%d",
			b.Frames, b.N, b.NonUDP, b.NonDNS, b.Malformed)
	}
	for _, r := range b.Rows {
		if id := r.Name; int(id) >= b.Table.Len() {
			t.Fatalf("name ID %d out of table range %d", id, b.Table.Len())
		}
	}
}

// TestFreshDayReservesOnce holds a fresh batch to one reservation: the
// background's draws are reserved after the attack rows are in, so a
// day with more attack rows than a fixed slack does not regrow its
// rows, and they end no wider than the frames the day sanitized.
func TestFreshDayReservesOnce(t *testing.T) {
	g := NewGenerator(tinyCampaign(t), 7)
	day := simclock.MeasurementStart.Add(simclock.Days(10))
	if n := g.DayFor(day, nil, nil).Batch.N; n <= 256 {
		t.Fatalf("day %s has %d attack rows, want more than 256", day.Date(), n)
	}
	b := g.Day(day, nil).Batch
	if cap(b.Rows) > b.Frames {
		t.Errorf("fresh batch of %d rows: capacity %d, more than its %d frames", b.N, cap(b.Rows), b.Frames)
	}
}
