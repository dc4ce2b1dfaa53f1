package ecosystem

import (
	"reflect"
	"testing"

	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
)

// TestDayBatchMatchesWire is the equivalence proof behind the columnar
// fast path: for every day, the batch emitted by Day — replayed through
// CapturePoint.ConsumeBatch — must yield exactly the samples and
// sanitization stats that WireDay's materialized frames yield through
// the frame-level CapturePoint.Process. Both paths consume their
// per-day RNG stream identically, so this holds field-by-field — except
// Name, an ID in each side's own table (the wire side interns as frames
// arrive, the batch lives in the generator's table): names are compared
// as QName strings.
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
		batch := gb.Day(day)

		capW := ixp.NewCapturePoint(c.Topo, nil)
		var wSamples []ixp.DNSSample
		for _, tr := range wire.IXP {
			s, ok := capW.Process(tr.Rec)
			if !ok {
				continue
			}
			if tr.Ingress != 0 {
				s.PeerAS = tr.Ingress
			}
			s.Name = 0
			wSamples = append(wSamples, s)
		}

		capB := ixp.NewCapturePoint(c.Topo, batch.Batch.Table)
		var bSamples []ixp.DNSSample
		capB.ConsumeBatch(batch.Batch, func(s *ixp.DNSSample) {
			bSamples = append(bSamples, *s)
			bSamples[len(bSamples)-1].Name = 0
		})

		if len(wSamples) != len(bSamples) {
			t.Fatalf("day %s: %d wire samples vs %d batch samples",
				day.Date(), len(wSamples), len(bSamples))
		}
		for i := range wSamples {
			if !reflect.DeepEqual(wSamples[i], bSamples[i]) {
				t.Fatalf("day %s sample %d differs:\nwire:  %+v\nbatch: %+v",
					day.Date(), i, wSamples[i], bSamples[i])
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
	dt := g.Day(simclock.MeasurementStart.Add(simclock.Days(3)))
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
