package source_test

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/pcap"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
)

// batchesEqual compares two replays' day batches column by column
// (tables are compared by content, not pointer).
func batchesEqual(t *testing.T, label string, a, b *source.Replay) {
	t.Helper()
	if !reflect.DeepEqual(a.Days(), b.Days()) {
		t.Fatalf("%s: day lists differ: %v vs %v", label, a.Days(), b.Days())
	}
	if !reflect.DeepEqual(a.Table(), b.Table()) {
		t.Fatalf("%s: interning tables differ", label)
	}
	for _, day := range a.Days() {
		ab, bb := a.Day(day), b.Day(day)
		av, bv := reflect.ValueOf(*ab), reflect.ValueOf(*bb)
		typ := av.Type()
		for f := 0; f < typ.NumField(); f++ {
			if typ.Field(f).Name == "Table" {
				continue
			}
			if !reflect.DeepEqual(av.Field(f).Interface(), bv.Field(f).Interface()) {
				t.Fatalf("%s: day %s column %s differs", label, day.Date(), typ.Field(f).Name)
			}
		}
	}
}

// TestIngestSFlowLogMatchesDirect is the ingestion acceptance test: a
// wire day encoded as an sFlow v5 datagram log and re-ingested through
// the log reader (which reuses one read buffer — the aliasing
// regression path) must yield sample-for-sample identical batches to
// AddFrames over the original in-memory frames.
func TestIngestSFlowLogMatchesDirect(t *testing.T) {
	c := tinyCampaign(t)
	gen := ecosystem.NewGenerator(c, 7)
	days := testWindow()

	direct := source.NewReplay(nil)
	var buf bytes.Buffer
	lw, err := sflow.NewLogWriter(&buf, [4]byte{192, 0, 2, 9}, sflow.DefaultRate)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, day := range source.DaysOf(days) {
		wd := gen.WireDay(day)
		if err := direct.AddFrames(day, wd.IXP, nil); err != nil {
			t.Fatalf("direct AddFrames: %v", err)
		}
		for _, tr := range wd.IXP {
			if err := lw.Add(tr.Rec, tr.Ingress); err != nil {
				t.Fatalf("log Add: %v", err)
			}
			total++
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	ingested := source.NewReplay(nil)
	n, err := ingested.IngestSFlowLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("IngestSFlowLog: %v", err)
	}
	if n != total {
		t.Fatalf("ingested %d frames, wrote %d", n, total)
	}
	batchesEqual(t, "sflow-log", direct, ingested)
}

// TestIngestPCAPMatchesDirect: the same equivalence through the pcap
// path (no ingress metadata there, so the direct side drops it too).
func TestIngestPCAPMatchesDirect(t *testing.T) {
	c := tinyCampaign(t)
	gen := ecosystem.NewGenerator(c, 7)

	direct := source.NewReplay(nil)
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf, sflow.DefaultSnaplen)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, day := range source.DaysOf(testWindow()) {
		wd := gen.WireDay(day)
		recs := make([]ecosystem.TaggedRecord, len(wd.IXP))
		for i, tr := range wd.IXP {
			recs[i] = ecosystem.TaggedRecord{Rec: tr.Rec} // ingress lost in pcap
			if err := pw.WritePacket(tr.Rec.Time, 0, tr.Rec.FrameLen, tr.Rec.Frame); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := direct.AddFrames(day, recs, nil); err != nil {
			t.Fatal(err)
		}
	}

	ingested := source.NewReplay(nil)
	n, err := ingested.IngestPCAP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("IngestPCAP: %v", err)
	}
	if n != total {
		t.Fatalf("ingested %d frames, wrote %d", n, total)
	}
	batchesEqual(t, "pcap", direct, ingested)
}

// syntheticLogRecords builds count valid DNS-over-UDP records spread
// over a few days — enough volume to cross the ingestion chunk
// boundary without a full campaign.
func syntheticLogRecords(count int) []ecosystem.TaggedRecord {
	eth := netmodel.Ethernet{Dst: netmodel.MAC{2, 0, 0, 0, 0, 1}, Src: netmodel.MAC{2, 0, 0, 0, 0, 2}}
	var recs []ecosystem.TaggedRecord
	for i := 0; i < count; i++ {
		q := dnswire.NewQuery(uint16(i), "example.org.", dnswire.TypeA, 4096)
		ip := netmodel.IPv4{
			TTL: 64,
			Src: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst: netip.AddrFrom4([4]byte{203, 0, 113, 53}),
		}
		udp := netmodel.UDP{SrcPort: uint16(1024 + i%60000), DstPort: 53}
		frame := netmodel.EncodeUDPPacket(eth, ip, udp, dnswire.Encode(q))
		t := simclock.MeasurementStart.Add(simclock.Duration(i) * 3) // ~3s apart, spills across days
		recs = append(recs, ecosystem.TaggedRecord{Rec: sflow.Record{
			Time: t, Frame: frame, FrameLen: len(frame), Seq: uint64(i + 1),
		}})
	}
	return recs
}

// TestIngestChunkedFlushMatchesWholeDay forces the ingestion loop
// across its chunk boundary (>64k records): per-day chunked AddFrames
// accumulation must produce batches identical to one whole-day call.
func TestIngestChunkedFlushMatchesWholeDay(t *testing.T) {
	recs := syntheticLogRecords(70_000)
	var buf bytes.Buffer
	lw, err := sflow.NewLogWriter(&buf, [4]byte{192, 0, 2, 3}, sflow.DefaultRate)
	if err != nil {
		t.Fatal(err)
	}
	byDay := make(map[simclock.Time][]ecosystem.TaggedRecord)
	var dayOrder []simclock.Time
	for _, tr := range recs {
		if err := lw.Add(tr.Rec, tr.Ingress); err != nil {
			t.Fatal(err)
		}
		day := tr.Rec.Time.StartOfDay()
		if _, ok := byDay[day]; !ok {
			dayOrder = append(dayOrder, day)
		}
		byDay[day] = append(byDay[day], tr)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	direct := source.NewReplay(nil)
	for _, day := range dayOrder {
		if err := direct.AddFrames(day, byDay[day], nil); err != nil {
			t.Fatal(err)
		}
	}
	ingested := source.NewReplay(nil)
	n, err := ingested.IngestSFlowLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("IngestSFlowLog: %v", err)
	}
	if n != len(recs) {
		t.Fatalf("ingested %d of %d frames", n, len(recs))
	}
	if len(ingested.Days()) < 3 {
		t.Fatalf("expected the record set to span several days, got %d", len(ingested.Days()))
	}
	batchesEqual(t, "chunked", direct, ingested)
}

// TestIngestTruncatedLog pins the partial-stream contract: a log that
// stops mid-entry ingests every complete entry, reports the kept
// count, and surfaces io.ErrUnexpectedEOF.
func TestIngestTruncatedLog(t *testing.T) {
	recs := syntheticLogRecords(500)
	var buf bytes.Buffer
	lw, err := sflow.NewLogWriter(&buf, [4]byte{192, 0, 2, 3}, sflow.DefaultRate)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range recs {
		if err := lw.Add(tr.Rec, tr.Ingress); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Len() - 41 // mid-entry

	rep := source.NewReplay(nil)
	n, err := rep.IngestSFlowLog(bytes.NewReader(buf.Bytes()[:cut]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if n == 0 || n >= len(recs) {
		t.Fatalf("kept %d of %d records; cut should drop some but not all", n, len(recs))
	}
	kept := 0
	for _, day := range rep.Days() {
		kept += rep.Day(day).Frames
	}
	if kept != n {
		t.Fatalf("reported %d ingested frames but batches hold %d", n, kept)
	}
}

// TestIngestSkipsCorruptDatagram: a datagram whose body does not parse
// costs that datagram and one count in Skipped, not the ingest — what
// the service's replay: input does with it (one parse error).
func TestIngestSkipsCorruptDatagram(t *testing.T) {
	recs := syntheticLogRecords(500) // 3 s apart: one record per entry
	var buf bytes.Buffer
	lw, err := sflow.NewLogWriter(&buf, [4]byte{192, 0, 2, 3}, sflow.DefaultRate)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range recs {
		if err := lw.Add(tr.Rec, tr.Ingress); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[24], raw[25] = ^raw[24], ^raw[25] // the first body's version field: past the file and entry headers

	rep := source.NewReplay(nil)
	n, err := rep.IngestSFlowLog(bytes.NewReader(raw))
	if err != nil || n != len(recs)-1 || rep.Skipped() != 1 {
		t.Fatalf("ingested %d of %d frames, skipped %d, err %v; want all but the corrupt one, 1 skipped, no error",
			n, len(recs), rep.Skipped(), err)
	}
}

// TestIngestTruncatedPCAP: a capture cut inside its last record ingests
// every whole frame and reports io.ErrUnexpectedEOF, as a log does.
func TestIngestTruncatedPCAP(t *testing.T) {
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf, sflow.DefaultSnaplen)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range syntheticLogRecords(50) {
		at := simclock.MeasurementStart.Add(simclock.Duration(i / 5)) // 10 seconds, 5 frames each
		if err := pw.WritePacket(at, 0, tr.Rec.FrameLen, tr.Rec.Frame); err != nil {
			t.Fatal(err)
		}
	}
	rep := source.NewReplay(nil)
	n, err := rep.IngestPCAP(bytes.NewReader(buf.Bytes()[:buf.Len()-7]))
	if !errors.Is(err, io.ErrUnexpectedEOF) || !errors.Is(err, pcap.ErrFormat) || n != 49 {
		t.Fatalf("kept %d frames, err %v; want the 49 whole ones, then io.ErrUnexpectedEOF", n, err)
	}
}

// TestAddFramesAccumulates is the double-ingestion regression test:
// the same day arriving in two AddFrames calls must keep the first
// call's samples, sanitization counters, and sensor flows (the second
// call used to replace the day's batch wholesale).
func TestAddFramesAccumulates(t *testing.T) {
	c := tinyCampaign(t)
	gen := ecosystem.NewGenerator(c, 7)
	day := source.DaysOf(testWindow())[0]
	wd := gen.WireDay(day)
	if len(wd.IXP) < 4 {
		t.Fatalf("wire day too small to split: %d frames", len(wd.IXP))
	}
	mid := len(wd.IXP) / 2
	sMid := len(wd.Sensors) / 2

	whole := source.NewReplay(nil)
	if err := whole.AddFrames(day, wd.IXP, wd.Sensors); err != nil {
		t.Fatal(err)
	}
	split := source.NewReplay(nil)
	if err := split.AddFrames(day, wd.IXP[:mid], wd.Sensors[:sMid]); err != nil {
		t.Fatal(err)
	}
	if err := split.AddFrames(day, wd.IXP[mid:], wd.Sensors[sMid:]); err != nil {
		t.Fatal(err)
	}

	batchesEqual(t, "split-ingest", whole, split)
	wb, sb := whole.Day(day), split.Day(day)
	if wb.Frames != sb.Frames || wb.NonUDP != sb.NonUDP || wb.NonDNS != sb.NonDNS || wb.Malformed != sb.Malformed {
		t.Fatalf("sanitization counters lost: %+v vs %+v",
			[4]int{wb.Frames, wb.NonUDP, wb.NonDNS, wb.Malformed},
			[4]int{sb.Frames, sb.NonUDP, sb.NonDNS, sb.Malformed})
	}
	_, wFlows := whole.DayFlows(day)
	_, sFlows := split.DayFlows(day)
	if !reflect.DeepEqual(wFlows, sFlows) {
		t.Fatal("sensor flows lost across split ingestion")
	}
}

// TestAddFramesRejectsSharedDay: a day recorded via AddDay shares its
// batch with the producer; appending frames to it must error, not
// silently mutate (or drop) the shared batch.
func TestAddFramesRejectsSharedDay(t *testing.T) {
	c := tinyCampaign(t)
	gen := ecosystem.NewGenerator(c, 7)
	day := source.DaysOf(testWindow())[0]
	dt := gen.Day(day)

	r := source.NewReplay(gen.Table())
	r.AddDay(day, dt.Batch, dt.Sensors)
	nBefore := dt.Batch.N
	wd := gen.WireDay(day)
	if err := r.AddFrames(day, wd.IXP, nil); err == nil {
		t.Fatal("AddFrames into an AddDay-shared batch must error")
	}
	if dt.Batch.N != nBefore {
		t.Fatalf("shared batch mutated: N %d -> %d", nBefore, dt.Batch.N)
	}
}
