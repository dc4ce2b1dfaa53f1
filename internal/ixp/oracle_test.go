package ixp_test

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// parseProcess is CapturePoint.Process as it was before the scanner:
// DecodeFrame, the full dnswire.Parse, ValidName on the decoded string,
// Intern. It is the reference Process is held to.
type parseProcess struct {
	table *names.Table
	stats ixp.CaptureStats
}

func (c *parseProcess) Process(rec sflow.Record) (ixp.DNSSample, bool) {
	c.stats.Frames++
	pkt, err := netmodel.DecodeFrame(rec.Frame)
	if err != nil {
		c.stats.NonUDP++
		return ixp.DNSSample{}, false
	}
	if pkt.UDP.SrcPort != 53 && pkt.UDP.DstPort != 53 {
		c.stats.NonDNS++
		return ixp.DNSSample{}, false
	}
	res, err := dnswire.Parse(pkt.Payload)
	if err != nil {
		c.stats.NonDNS++
		return ixp.DNSSample{}, false
	}
	m := res.Msg
	qname := m.QName()
	if !dnswire.ValidName(qname) || m.QType() == dnswire.TypeNone {
		c.stats.Malformed++
		return ixp.DNSSample{}, false
	}
	id := c.table.Intern(dnswire.CanonicalName(qname))
	s := ixp.DNSSample{
		BatchRecord: ixp.BatchRecord{
			Time:    rec.Time,
			Src:     pkt.IP.Src.As4(),
			Dst:     pkt.IP.Dst.As4(),
			SrcPort: pkt.UDP.SrcPort,
			DstPort: pkt.UDP.DstPort,
			IPTTL:   pkt.IP.TTL,
			IPID:    pkt.IP.ID,
			Resp:    m.Header.QR,
			Name:    id,
			QType:   m.QType(),
			TXID:    m.Header.ID,
			MsgSize: int32(pkt.DNSPayloadSize()),
			ANCount: m.Header.ANCount,
		},
		QName: c.table.Name(id),
	}
	for _, rr := range m.Answers {
		if rr.Type == dnswire.TypeNS {
			s.VisibleNS++
		}
	}
	for _, rr := range m.Authority {
		if rr.Type == dnswire.TypeNS {
			s.VisibleNS++
		}
	}
	c.stats.Accepted++
	return s, true
}

// wireDay is one generated day of sampled frames: queries and
// truncated responses of the campaign's name universe.
func wireDay(tb testing.TB) []ecosystem.TaggedRecord {
	tb.Helper()
	cfg := ecosystem.DefaultCampaignConfig(0.002)
	cfg.Zones.ProceduralNames = 5000
	cfg.Topology = topology.Config{Members: 12, ASesPerClass: 20, Seed: 1}
	c := ecosystem.NewCampaign(cfg)
	recs := ecosystem.NewGenerator(c, 7).WireDay(simclock.MeasurementStart.Add(simclock.Days(3))).IXP
	if len(recs) == 0 {
		tb.Fatal("no wire records")
	}
	return recs
}

// mutateFrame damages a copy of frame somewhere the sanitisation looks:
// the DNS payload mostly, the L2-L4 headers sometimes, the length
// sometimes.
func mutateFrame(rng *rand.Rand, frame []byte) []byte {
	const dnsAt = netmodel.EthernetHeaderLen + netmodel.IPv4HeaderLen + netmodel.UDPHeaderLen
	mut := slices.Clone(frame)
	for k := 1 + rng.Intn(3); k > 0 && len(mut) > 0; k-- {
		at := rng.Intn(len(mut))
		if len(mut) > dnsAt && rng.Intn(4) > 0 {
			at = dnsAt + rng.Intn(len(mut)-dnsAt)
		}
		switch rng.Intn(5) {
		case 0:
			mut[at] ^= 1 << rng.Intn(8)
		case 1:
			mut[at] = byte(rng.Intn(256))
		case 2:
			mut[at] = 0xc0 // a compression pointer
		case 3:
			mut[at] = 0x80 | byte(rng.Intn(128)) // a non-ASCII name byte
		case 4:
			mut = mut[:at]
		}
	}
	return mut
}

// TestProcessMatchesOracle: over a generated day and three mutations of
// each of its frames, the scanning Process and the parsing reference
// accept the same records, return identical samples (name IDs and the
// aliased table string included) and end with identical counters and
// name tables; Sanitize's outcome for each record names the counter the
// reference moved, and a kept record's sample is Process's.
func TestProcessMatchesOracle(t *testing.T) {
	day := wireDay(t)
	rng := rand.New(rand.NewSource(14))
	recs := make([]sflow.Record, 0, 4*len(day))
	for _, tr := range day {
		recs = append(recs, tr.Rec)
		for k := 0; k < 3; k++ {
			r := tr.Rec
			r.Frame = mutateFrame(rng, r.Frame)
			recs = append(recs, r)
		}
	}

	cp := ixp.NewCapturePoint(nil, nil)
	ref := &parseProcess{table: names.NewTable()}
	for i, rec := range recs {
		var s ixp.DNSSample
		drop := cp.Sanitize(rec, &s)
		before := ref.stats
		got, gok := cp.Process(rec)
		want, wok := ref.Process(rec)
		if gok != wok || got != want {
			t.Fatalf("record %d, frame %x:\n scan  %+v %v\n parse %+v %v", i, rec.Frame, got, gok, want, wok)
		}
		moved := ixp.Keep
		switch {
		case ref.stats.NonUDP > before.NonUDP:
			moved = ixp.DropNonUDP
		case ref.stats.NonDNS > before.NonDNS:
			moved = ixp.DropNonDNS
		case ref.stats.Malformed > before.Malformed:
			moved = ixp.DropMalformed
		}
		if drop != moved || drop == ixp.Keep && s != got {
			t.Fatalf("record %d, frame %x: Sanitize %d, sample %+v; reference moved %d, Process %+v", i, rec.Frame, drop, s, moved, got)
		}
	}
	if cp.Stats != ref.stats {
		t.Errorf("stats:\n scan  %+v\n parse %+v", cp.Stats, ref.stats)
	}
	if cp.Table.Len() != ref.table.Len() {
		t.Errorf("name tables differ: %d vs %d names", cp.Table.Len(), ref.table.Len())
	}
	for id := range min(cp.Table.Len(), ref.table.Len()) {
		if got, want := cp.Table.Name(uint32(id)), ref.table.Name(uint32(id)); got != want {
			t.Fatalf("name %d: scan %q, parse %q", id, got, want)
		}
	}
	s := ref.stats
	if s.Accepted < len(day) || s.NonUDP == 0 || s.NonDNS == 0 || s.Malformed == 0 {
		t.Errorf("the mix did not reach every outcome: %+v", s)
	}
}

// TestProcessRejectsNonASCIIName: a question label of the bytes
// E2 84 AA (KELVIN SIGN) used to be lowercased onto "k." and counted
// under that legitimate name; it is malformed.
func TestProcessRejectsNonASCIIName(t *testing.T) {
	payload := dnswire.Encode(dnswire.NewQuery(1, "k", dnswire.TypeA, 0))
	payload = append(payload[:dnswire.HeaderLen], 3, 0xe2, 0x84, 0xaa, 0, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassIN))
	ip := netmodel.IPv4{TTL: 60, Src: netip.MustParseAddr("192.0.2.7"), Dst: netip.MustParseAddr("198.51.100.9")}
	frame := netmodel.EncodeUDPPacket(netmodel.Ethernet{}, ip, netmodel.UDP{SrcPort: 40000, DstPort: 53}, payload)

	cp := ixp.NewCapturePoint(nil, nil)
	if s, ok := cp.Process(sflow.Record{Frame: frame, FrameLen: len(frame)}); ok {
		t.Errorf("accepted as %q", s.QName)
	}
	if cp.Stats.Malformed != 1 || cp.Table.Len() != 0 {
		t.Errorf("stats %+v, %d names interned", cp.Stats, cp.Table.Len())
	}
}

var sinkSample ixp.DNSSample

// BenchmarkCaptureProcess times the per-sample sanitisation over a
// generated day's query/response mix with its names already interned —
// the service consumer's steady state, on a capture point built as
// server.Window builds its own.
func BenchmarkCaptureProcess(b *testing.B) {
	day := wireDay(b)
	cp := ixp.NewCapturePoint(nil, nil)
	for _, tr := range day {
		cp.Process(tr.Rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSample, _ = cp.Process(day[i%len(day)].Rec)
	}
}
