package source_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/pcap"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
	"dnsamp/internal/topology"
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

// addFrames records one day sanitized from recs by AppendFrames: the
// oracle ingestion is held to.
func addFrames(r *source.Replay, day simclock.Time, recs []ecosystem.TaggedRecord, sensors []ecosystem.SensorFlow) {
	b := &ixp.SampleBatch{Table: r.Table()}
	source.AppendFrames(b, recs)
	r.AddDay(day, b, sensors)
}

// logOf writes recs, in the order given, as an sFlow datagram log.
func logOf(tb testing.TB, recs []ecosystem.TaggedRecord) []byte {
	tb.Helper()
	var buf bytes.Buffer
	lw, err := sflow.NewLogWriter(&buf, [4]byte{192, 0, 2, 3}, sflow.DefaultRate)
	if err != nil {
		tb.Fatal(err)
	}
	for _, tr := range recs {
		if err := lw.Add(tr.Rec, tr.Ingress); err != nil {
			tb.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ingestLog ingests one log into r and fails the test on any error.
func ingestLog(tb testing.TB, r *source.Replay, log []byte) int {
	tb.Helper()
	n, err := r.IngestSFlowLog(bytes.NewReader(log))
	if err != nil {
		tb.Fatalf("IngestSFlowLog: %v", err)
	}
	return n
}

// TestIngestSFlowLogMatchesDirect is the ingestion acceptance test: a
// wire day encoded as an sFlow v5 datagram log and re-ingested through
// the log reader (which reuses one read buffer — the aliasing
// regression path) must yield sample-for-sample identical batches to
// AppendFrames over the original in-memory frames.
func TestIngestSFlowLogMatchesDirect(t *testing.T) {
	c := tinyCampaign(t)
	gen := ecosystem.NewGenerator(c, 7)

	direct := source.NewReplay(nil)
	var all []ecosystem.TaggedRecord
	for _, day := range source.DaysOf(testWindow()) {
		wd := gen.WireDay(day)
		addFrames(direct, day, wd.IXP, nil)
		all = append(all, wd.IXP...)
	}

	ingested := source.NewReplay(nil)
	if n := ingestLog(t, ingested, logOf(t, all)); n != len(all) {
		t.Fatalf("ingested %d frames, wrote %d", n, len(all))
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
		addFrames(direct, day, recs, nil)
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
// over a few days — volume without a full campaign.
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

// TestIngestManyDaysMatchesAppendFrames: a 70 000-record log spanning
// several days ingests into batches identical to one AppendFrames call
// per whole day.
func TestIngestManyDaysMatchesAppendFrames(t *testing.T) {
	recs := syntheticLogRecords(70_000)
	byDay := make(map[simclock.Time][]ecosystem.TaggedRecord)
	var dayOrder []simclock.Time
	for _, tr := range recs {
		day := tr.Rec.Time.StartOfDay()
		if _, ok := byDay[day]; !ok {
			dayOrder = append(dayOrder, day)
		}
		byDay[day] = append(byDay[day], tr)
	}

	direct := source.NewReplay(nil)
	for _, day := range dayOrder {
		addFrames(direct, day, byDay[day], nil)
	}
	ingested := source.NewReplay(nil)
	if n := ingestLog(t, ingested, logOf(t, recs)); n != len(recs) {
		t.Fatalf("ingested %d of %d frames", n, len(recs))
	}
	if len(ingested.Days()) < 3 {
		t.Fatalf("expected the record set to span several days, got %d", len(ingested.Days()))
	}
	batchesEqual(t, "many-days", direct, ingested)
}

// midnightRecords builds n records whose arrival order crosses
// midnight back and forth over three days, with names first seen in a
// different order on each day, and every few records a frame the
// capture point drops: not UDP, not DNS, or a malformed question.
func midnightRecords(n int) []ecosystem.TaggedRecord {
	eth := netmodel.Ethernet{Dst: netmodel.MAC{2, 0, 0, 0, 0, 1}, Src: netmodel.MAC{2, 0, 0, 0, 0, 2}}
	midnight := simclock.MeasurementStart.Add(simclock.Days(1))
	offsets := []simclock.Duration{-40, 5, -30, simclock.Day + 2, 9, -1, simclock.Day + 7, 0}
	recs := make([]ecosystem.TaggedRecord, 0, n)
	for i := range n {
		qtype := dnswire.TypeANY
		if i%17 == 0 {
			qtype = dnswire.TypeNone // malformed: no question type
		}
		q := dnswire.NewQuery(uint16(i), fmt.Sprintf("n%d.example.", i*7%23), qtype, 4096)
		ip := netmodel.IPv4{
			TTL: 64,
			ID:  uint16(i),
			Src: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			Dst: netip.AddrFrom4([4]byte{203, 0, 113, 53}),
		}
		udp := netmodel.UDP{SrcPort: uint16(1024 + i), DstPort: 53}
		if i%11 == 0 {
			udp.DstPort = 5353 // not DNS
		}
		frame := netmodel.EncodeUDPPacket(eth, ip, udp, dnswire.Encode(q))
		if i%13 == 0 {
			frame = frame[:20] // not UDP: cut inside the IP header
		}
		at := midnight.Add(offsets[i%len(offsets)] + simclock.Duration(i/len(offsets)))
		recs = append(recs, ecosystem.TaggedRecord{
			Rec:     sflow.Record{Time: at, Frame: frame, FrameLen: len(frame), Seq: uint64(i + 1)},
			Ingress: uint32(i%3) * 64500,
		})
	}
	return recs
}

// TestIngestCrossesMidnight: a log whose arrival order crosses midnight
// back and forth lands each record in its own day in arrival order.
// Every day's batch equals, row for row with names resolved and counter
// for counter, AppendFrames over that day's records in arrival order:
// the table's ID order follows arrival across days, so IDs themselves
// are not compared.
func TestIngestCrossesMidnight(t *testing.T) {
	recs := midnightRecords(400)
	byDay := make(map[simclock.Time][]ecosystem.TaggedRecord)
	for _, tr := range recs {
		day := tr.Rec.Time.StartOfDay()
		byDay[day] = append(byDay[day], tr)
	}
	ingested := source.NewReplay(nil)
	if n := ingestLog(t, ingested, logOf(t, recs)); n != len(recs) {
		t.Fatalf("ingested %d of %d frames", n, len(recs))
	}
	if got := ingested.Days(); len(got) != 3 || len(byDay) != 3 {
		t.Fatalf("days %v, want the 3 the records touch", got)
	}
	for _, day := range ingested.Days() {
		want := &ixp.SampleBatch{Table: source.NewReplay(nil).Table()}
		source.AppendFrames(want, byDay[day])
		got := ingested.Day(day)
		if want.N == 0 || want.NonUDP == 0 || want.NonDNS == 0 || want.Malformed == 0 {
			t.Fatalf("day %s: oracle %d rows, drops %d/%d/%d; every kind must occur", day.Date(), want.N, want.NonUDP, want.NonDNS, want.Malformed)
		}
		if w, g := [4]int{want.Frames, want.NonUDP, want.NonDNS, want.Malformed}, [4]int{got.Frames, got.NonUDP, got.NonDNS, got.Malformed}; w != g {
			t.Fatalf("day %s: counters %v, want %v", day.Date(), g, w)
		}
		if w, g := rowsOf(want), rowsOf(got); !reflect.DeepEqual(w, g) {
			t.Fatalf("day %s: %d rows differ from AppendFrames' %d", day.Date(), len(g), len(w))
		}
	}
}

// TestIngestTruncatedLog pins the partial-stream contract: a log that
// stops mid-entry ingests every complete entry, reports the kept
// count, and surfaces io.ErrUnexpectedEOF.
func TestIngestTruncatedLog(t *testing.T) {
	recs := syntheticLogRecords(500)
	log := logOf(t, recs)
	cut := len(log) - 41 // mid-entry

	rep := source.NewReplay(nil)
	n, err := rep.IngestSFlowLog(bytes.NewReader(log[:cut]))
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
	raw := logOf(t, recs)
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

// TestIngestAccumulates is the double-ingestion regression test: the
// same day arriving in two logs must keep the first log's samples and
// sanitization counters (a second read used to replace the day's batch
// wholesale). Between the two logs the day goes through a snapshot
// with the day's sensor flows attached: a day opened from a snapshot
// accepts more frames and keeps its flows.
func TestIngestAccumulates(t *testing.T) {
	c := tinyCampaign(t)
	gen := ecosystem.NewGenerator(c, 7)
	day := source.DaysOf(testWindow())[0]
	wd := gen.WireDay(day)
	if len(wd.IXP) < 4 {
		t.Fatalf("wire day too small to split: %d frames", len(wd.IXP))
	}
	mid := len(wd.IXP) / 2

	whole := source.NewReplay(nil)
	ingestLog(t, whole, logOf(t, wd.IXP))
	whole.AddDay(day, whole.Day(day), wd.Sensors)

	first := source.NewReplay(nil)
	ingestLog(t, first, logOf(t, wd.IXP[:mid]))
	first.AddDay(day, first.Day(day), wd.Sensors)
	split, err := source.OpenSnapshot(bytes.NewReader(snapshotBytes(t, first)))
	if err != nil {
		t.Fatal(err)
	}
	ingestLog(t, split, logOf(t, wd.IXP[mid:]))

	batchesEqual(t, "split-ingest", whole, split)
	wb, sb := whole.Day(day), split.Day(day)
	if wb.Frames != sb.Frames || wb.NonUDP != sb.NonUDP || wb.NonDNS != sb.NonDNS || wb.Malformed != sb.Malformed {
		t.Fatalf("sanitization counters lost: %+v vs %+v",
			[4]int{wb.Frames, wb.NonUDP, wb.NonDNS, wb.Malformed},
			[4]int{sb.Frames, sb.NonUDP, sb.NonDNS, sb.Malformed})
	}
	_, wFlows := whole.DayFlows(day, nil)
	_, sFlows := split.DayFlows(day, nil)
	if len(wFlows) == 0 || !reflect.DeepEqual(wFlows, sFlows) {
		t.Fatal("sensor flows lost across split ingestion")
	}
}

// TestIngestRejectsSharedDay: a day recorded via AddDay shares its
// batch with the producer; ingesting frames into it must error, not
// silently mutate (or drop) the shared batch.
func TestIngestRejectsSharedDay(t *testing.T) {
	c := tinyCampaign(t)
	gen := ecosystem.NewGenerator(c, 7)
	day := source.DaysOf(testWindow())[0]
	dt := gen.Day(day, nil)

	r := source.NewReplay(gen.Table())
	r.AddDay(day, dt.Batch, dt.Sensors)
	nBefore := dt.Batch.N
	wd := gen.WireDay(day)
	if _, err := r.IngestSFlowLog(bytes.NewReader(logOf(t, wd.IXP))); err == nil {
		t.Fatal("ingesting into an AddDay-shared batch must error")
	}
	if dt.Batch.N != nBefore {
		t.Fatalf("shared batch mutated: N %d -> %d", nBefore, dt.Batch.N)
	}
}

// FuzzIngestSFlowLog holds log ingestion to its accounting on any
// bytes: it never panics, the returned count is the sum of the
// batches' Frames, every batch holds N = Frames − NonUDP − NonDNS −
// Malformed rows, and the same bytes ingested into two fresh replays
// give equal replays, count and error. The seeds are one synthetic
// wire day's log, cuts of it, and a log of one garbage entry.
func FuzzIngestSFlowLog(f *testing.F) {
	cfg := ecosystem.DefaultCampaignConfig(0.0002)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	wd := ecosystem.NewGenerator(ecosystem.NewCampaign(cfg), 7).WireDay(simclock.MeasurementStart)
	log := logOf(f, wd.IXP)
	f.Add(log)
	for _, cut := range []int{8, len(log) / 2, len(log) - 1} {
		f.Add(log[:cut])
	}
	garbage := append([]byte{}, log[:12]...)                      // the file header
	garbage = append(garbage, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0) // arrival 0, a 4-byte body
	f.Add(append(garbage, 0xde, 0xad, 0xbe, 0xef))
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, b := source.NewReplay(nil), source.NewReplay(nil)
		n, err := a.IngestSFlowLog(bytes.NewReader(raw))
		n2, err2 := b.IngestSFlowLog(bytes.NewReader(raw))
		if n != n2 || fmt.Sprint(err) != fmt.Sprint(err2) || !reflect.DeepEqual(a, b) {
			t.Fatalf("two ingestions of the same bytes differ: %d, %v vs %d, %v", n, err, n2, err2)
		}
		frames := 0
		for _, day := range a.Days() {
			d := a.Day(day)
			frames += d.Frames
			if d.N != d.Frames-d.NonUDP-d.NonDNS-d.Malformed {
				t.Fatalf("day %s: N %d, but %d frames less %d+%d+%d drops", day.Date(), d.N, d.Frames, d.NonUDP, d.NonDNS, d.Malformed)
			}
		}
		if frames != n {
			t.Fatalf("returned %d frames, batches hold %d", n, frames)
		}
	})
}
