package ixp

import (
	"net/netip"
	"testing"
	"unsafe"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

func buildFrame(t *testing.T, src, dst string, srcPort, dstPort uint16, msg *dnswire.Message, udpLen uint16) sflow.Record {
	t.Helper()
	payload := new(dnswire.Encoder).Encode(msg)
	ip := netmodel.IPv4{
		TTL: 60, Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
	}
	udp := netmodel.UDP{SrcPort: srcPort, DstPort: dstPort, Length: udpLen}
	frame := netmodel.AppendUDPPacket(nil, netmodel.Ethernet{}, ip, udp, payload)
	return sflow.Record{Time: simclock.MeasurementStart, Frame: netmodel.Truncate(frame, 128), FrameLen: len(frame)}
}

func TestProcessQuery(t *testing.T) {
	cp := NewCapturePoint(nil, nil)
	q := dnswire.NewQuery(0x1234, "doj.gov", dnswire.TypeANY, 4096)
	rec := buildFrame(t, "192.0.2.7", "198.51.100.9", 40000, 53, q, 0)
	s, ok := cp.Process(rec)
	if !ok {
		t.Fatal("query rejected")
	}
	if s.Resp {
		t.Error("query flagged as response")
	}
	if s.QName != "doj.gov." || s.QType != dnswire.TypeANY || s.TXID != 0x1234 {
		t.Errorf("fields wrong: %+v", s)
	}
	if s.Client() != s.Src {
		t.Error("client of a query is its source")
	}
	if cp.Stats.Accepted != 1 {
		t.Errorf("stats: %+v", cp.Stats)
	}
}

func TestProcessResponseRecoversSize(t *testing.T) {
	cp := NewCapturePoint(nil, nil)
	q := dnswire.NewQuery(7, "nsf.gov", dnswire.TypeANY, 4096)
	resp := dnswire.NewResponse(q)
	resp.Header.ANCount = 40 // announced but not materialized
	// Claim a 5000-byte datagram while materializing only the header.
	rec := buildFrame(t, "203.0.113.5", "192.0.2.9", 53, 41000, resp, uint16(netmodel.UDPHeaderLen+5000))
	s, ok := cp.Process(rec)
	if !ok {
		t.Fatal("response rejected")
	}
	if !s.Resp {
		t.Error("response not flagged")
	}
	if s.MsgSize != 5000 {
		t.Errorf("MsgSize = %d, want 5000 (UDP length field)", s.MsgSize)
	}
	if s.Client() != s.Dst {
		t.Error("client of a response is its destination")
	}
}

func TestProcessRejectsNonDNSPort(t *testing.T) {
	cp := NewCapturePoint(nil, nil)
	q := dnswire.NewQuery(1, "x.test", dnswire.TypeA, 0)
	rec := buildFrame(t, "192.0.2.7", "198.51.100.9", 1234, 4321, q, 0)
	if _, ok := cp.Process(rec); ok {
		t.Error("non-53 ports should be rejected")
	}
	if cp.Stats.NonDNS != 1 {
		t.Errorf("stats: %+v", cp.Stats)
	}
}

func TestProcessRejectsMalformedName(t *testing.T) {
	cp := NewCapturePoint(nil, nil)
	q := dnswire.NewQuery(1, "bad name.test", dnswire.TypeA, 0)
	q.Questions[0].Name = "bad name.test." // bypass canonicalization
	rec := buildFrame(t, "192.0.2.7", "198.51.100.9", 4000, 53, q, 0)
	if _, ok := cp.Process(rec); ok {
		t.Error("malformed name should be dropped (sanitization)")
	}
	if cp.Stats.Malformed != 1 {
		t.Errorf("stats: %+v", cp.Stats)
	}
}

// TestProcessRejectsDotInLabel feeds a query whose one qname label is
// the three bytes "a.b". Joined unescaped it would read as the
// two-label name "a.b.", which is not what was asked; the capture
// point drops it as undecodable instead.
func TestProcessRejectsDotInLabel(t *testing.T) {
	cp := NewCapturePoint(nil, nil)
	payload := []byte{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'a', '.', 'b', 0, 0, 1, 0, 1}
	ip := netmodel.IPv4{TTL: 60, Src: netip.MustParseAddr("192.0.2.7"), Dst: netip.MustParseAddr("198.51.100.9")}
	frame := netmodel.AppendUDPPacket(nil, netmodel.Ethernet{}, ip, netmodel.UDP{SrcPort: 4000, DstPort: 53}, payload)
	s, ok := cp.Process(sflow.Record{Time: simclock.MeasurementStart, Frame: frame, FrameLen: len(frame)})
	if ok {
		t.Fatalf("label %q accepted as the name %q", "a.b", s.QName)
	}
	if cp.Stats.NonDNS != 1 || cp.Stats.Accepted != 0 {
		t.Errorf("stats: %+v", cp.Stats)
	}
}

func TestProcessRejectsGarbage(t *testing.T) {
	cp := NewCapturePoint(nil, nil)
	rec := sflow.Record{Frame: []byte{1, 2, 3}}
	if _, ok := cp.Process(rec); ok {
		t.Error("garbage accepted")
	}
	if cp.Stats.NonUDP != 1 {
		t.Errorf("stats: %+v", cp.Stats)
	}
}

func TestVisibleNSCount(t *testing.T) {
	cp := NewCapturePoint(nil, nil)
	q := dnswire.NewQuery(7, "nsf.gov", dnswire.TypeNS, 0)
	resp := dnswire.NewResponse(q)
	for i := 0; i < 3; i++ {
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: "nsf.gov.", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.NameData{Target: "ns1.nsf.gov."},
		})
	}
	rec := buildFrame(t, "203.0.113.5", "192.0.2.9", 53, 41000, resp, 0)
	s, ok := cp.Process(rec)
	if !ok {
		t.Fatal("rejected")
	}
	// The 128-byte snaplen clips the third record: the capture sees
	// roughly two resource records per truncated response, exactly the
	// paper's observation (§3.1).
	if s.VisibleNS != 2 {
		t.Errorf("VisibleNS = %d, want 2 (truncation)", s.VisibleNS)
	}
	if s.ANCount != 3 {
		t.Errorf("announced ANCount = %d, want 3", s.ANCount)
	}
}

// TestRemapBatchForeignTablePanics pins the one-table invariant at the
// capture point: a batch interned in any other table than the capture
// point's is refused by RemapBatch before a counter moves, never
// translated.
func TestRemapBatchForeignTablePanics(t *testing.T) {
	foreign := names.NewTable()
	b := &SampleBatch{Table: foreign, FrameCounts: FrameCounts{Frames: 1}}
	b.Append(BatchRecord{Name: foreign.Intern("evil.example."), QType: dnswire.TypeANY})

	cp := NewCapturePoint(nil, names.NewTable())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RemapBatch accepted a batch in a foreign name table")
			}
		}()
		cp.RemapBatch(b)
	}()
	if cp.Stats != (CaptureStats{}) || cp.Table.Len() != 0 {
		t.Errorf("refused batch still moved state: stats %+v, %d names interned", cp.Stats, cp.Table.Len())
	}

	own := NewCapturePoint(nil, foreign)
	if own.RemapBatch(b) != b || own.Stats.Accepted != 1 {
		t.Errorf("batch in the capture point's own table: stats %+v, want it returned as-is and accounted", own.Stats)
	}
}

// TestCapturePointWholeCacheLines holds CapturePoint to whole 64-byte
// cache lines: the per-sample Stats writes of a capture point in a
// size class that splits lines cost the live path CPU (see its pad).
func TestCapturePointWholeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(CapturePoint{}); size%64 != 0 {
		t.Fatalf("CapturePoint is %d bytes, not a whole number of 64-byte lines: resize its pad", size)
	}
}

// TestDNSSampleIsOneRow holds the live sample to the batch row plus the
// window's view of the name: a field that is not a row column, QName,
// NameGen or PeerAS grows it past 72 bytes.
func TestDNSSampleIsOneRow(t *testing.T) {
	if size := unsafe.Sizeof(DNSSample{}); size > 72 {
		t.Fatalf("DNSSample is %d bytes, want at most 72 (BatchRecord + QName + NameGen + PeerAS)", size)
	}
}

// TestGrowMovesGeometrically holds a reused batch to few moves: a day
// one row larger than the rows hold moves them to a quarter more room,
// and the rows they held come along.
func TestGrowMovesGeometrically(t *testing.T) {
	var b SampleBatch
	b.Grow(1000)
	if cap(b.Rows) != 1000 {
		t.Fatalf("first Grow(1000): capacity %d, want exactly 1000", cap(b.Rows))
	}
	b.Append(BatchRecord{TXID: 7})
	b.Grow(1000)
	if cap(b.Rows) != 1250 {
		t.Fatalf("Grow past the capacity: capacity %d, want 1250", cap(b.Rows))
	}
	if b.N != 1 || len(b.Rows) != 1 || b.Rows[0].TXID != 7 {
		t.Fatalf("Grow lost the held row: N %d, rows %v", b.N, b.Rows)
	}
	b.Grow(5000)
	if cap(b.Rows) != 5001 {
		t.Fatalf("Grow(5000) over one row: capacity %d, want 5001", cap(b.Rows))
	}
}
