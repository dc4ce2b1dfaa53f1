package ecosystem

import (
	"reflect"
	"testing"

	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
)

// TestDayBatchMatchesWire is the equivalence proof behind the columnar
// fast path: for every day, the batch emitted by Day must equal, column
// by column and row for row, the batch built from WireDay's
// materialized frames the way source.AppendFrames builds one — each
// frame through CapturePoint.Sanitize, counted on the batch, survivors
// appended with their ingress tag — and accounting each batch with
// RemapBatch must leave the same sanitization and routing-coverage
// stats. Both paths consume their per-day RNG stream identically, so this holds
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

		capW := ixp.NewCapturePoint(c.Topo, nil)
		want := &ixp.SampleBatch{Table: capW.Table}
		var s ixp.DNSSample
		for _, tr := range wire.IXP {
			if want.Count(capW.Sanitize(tr.Rec, &s)) {
				s.Ingress = tr.Ingress
				want.Append(s.BatchRecord)
			}
		}
		capW.RemapBatch(want)
		capB := ixp.NewCapturePoint(c.Topo, got.Table)
		capB.RemapBatch(got)

		if want.N == 0 || want.N != got.N {
			t.Fatalf("day %s: %d wire samples vs %d batch rows", day.Date(), want.N, got.N)
		}
		for col, pair := range map[string][2]any{
			"Time": {want.Time, got.Time}, "Src": {want.Src, got.Src}, "Dst": {want.Dst, got.Dst},
			"SrcPort": {want.SrcPort, got.SrcPort}, "DstPort": {want.DstPort, got.DstPort},
			"IPTTL": {want.IPTTL, got.IPTTL}, "IPID": {want.IPID, got.IPID}, "Resp": {want.Resp, got.Resp},
			"QType": {want.QType, got.QType}, "TXID": {want.TXID, got.TXID}, "MsgSize": {want.MsgSize, got.MsgSize},
			"ANCount": {want.ANCount, got.ANCount}, "VisibleNS": {want.VisibleNS, got.VisibleNS},
			"Ingress": {want.Ingress, got.Ingress},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("day %s: column %s differs between the wire-built batch and Day's", day.Date(), col)
			}
		}
		for i := 0; i < got.N; i++ {
			if w, b := want.Table.Name(want.Name[i]), got.Table.Name(got.Name[i]); w != b {
				t.Fatalf("day %s row %d: name %q on the wire, %q in the batch", day.Date(), i, w, b)
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

// TestBatchColumnsConsistent checks the structural invariants of an
// emitted batch: equal column lengths and frame accounting.
func TestBatchColumnsConsistent(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	dt := g.Day(simclock.MeasurementStart.Add(simclock.Days(3)), nil)
	b := dt.Batch
	if b == nil || b.N == 0 {
		t.Fatal("no batch records")
	}
	for name, l := range map[string]int{
		"Time": len(b.Time), "Src": len(b.Src), "Dst": len(b.Dst),
		"SrcPort": len(b.SrcPort), "DstPort": len(b.DstPort),
		"IPTTL": len(b.IPTTL), "IPID": len(b.IPID), "Resp": len(b.Resp),
		"Name": len(b.Name), "QType": len(b.QType), "TXID": len(b.TXID),
		"MsgSize": len(b.MsgSize), "ANCount": len(b.ANCount),
		"VisibleNS": len(b.VisibleNS), "Ingress": len(b.Ingress),
	} {
		if l != b.N {
			t.Errorf("column %s has %d entries, want %d", name, l, b.N)
		}
	}
	if b.Frames != b.N+b.NonUDP+b.NonDNS+b.Malformed {
		t.Errorf("frame accounting: %d != %d+%d+%d+%d",
			b.Frames, b.N, b.NonUDP, b.NonDNS, b.Malformed)
	}
	for _, id := range b.Name {
		if int(id) >= b.Table.Len() {
			t.Fatalf("name ID %d out of table range %d", id, b.Table.Len())
		}
	}
}

// TestFreshDayReservesOnce holds a fresh batch to one reservation: the
// background's draws are reserved after the attack rows are in, so a
// day with more attack rows than a fixed slack regrows no column, and
// no column ends wider than the frames the day sanitized.
func TestFreshDayReservesOnce(t *testing.T) {
	g := NewGenerator(tinyCampaign(t), 7)
	day := simclock.MeasurementStart.Add(simclock.Days(10))
	if n := g.DayFor(day, nil, nil).Batch.N; n <= 256 {
		t.Fatalf("day %s has %d attack rows, want more than 256", day.Date(), n)
	}
	b := g.Day(day, nil).Batch
	if cap(b.Time) > b.Frames {
		t.Errorf("fresh batch of %d rows: capacity %d, more than its %d frames", b.N, cap(b.Time), b.Frames)
	}
}
