package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ingest"
	"dnsamp/internal/ixp"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
	"dnsamp/internal/topology"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startService builds and starts a service; shutdown runs in cleanup.
func startService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc := NewService(cfg)
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { shutdownSvc(t, svc) })
	return svc
}

// mustSpec parses an ingest source spec.
func mustSpec(t testing.TB, spec string) ingest.Spec {
	t.Helper()
	sp, err := ingest.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// udpInput is what `ixpmon -serve -listen 127.0.0.1:0` configures: one
// UDP listener on an ephemeral loopback port.
func udpInput(t testing.TB) []ingest.Spec {
	return []ingest.Spec{mustSpec(t, "udp://127.0.0.1:0")}
}

// tailInput is what `ixpmon -serve -tail PATH` configures.
func tailInput(t testing.TB, path string) []ingest.Spec {
	return []ingest.Spec{mustSpec(t, "tail:"+path)}
}

// udpAddr reads the service's first UDP input's bound address off its
// input row, where Start has put it by the time it returns.
func udpAddr(t *testing.T, svc *Service) *net.UDPAddr {
	t.Helper()
	for _, in := range svc.InputsSnapshot() {
		if in.Kind == string(ingest.KindUDP) {
			addr, err := net.ResolveUDPAddr("udp", in.Addr)
			if err != nil {
				t.Fatalf("input %s bound address %q: %v", in.ID, in.Addr, err)
			}
			return addr
		}
	}
	t.Fatal("service has no UDP input")
	return nil
}

func dialService(t *testing.T, svc *Service) *net.UDPConn {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, udpAddr(t, svc))
	if err != nil {
		t.Fatalf("dialing service: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// accounted reports how many datagrams the producer has finished with:
// each one either failed parsing at its input or reached a collector
// row (and from there the queue, a shed counter, or the replay
// barrier). Received counts reads at the inputs, a step earlier, so a
// test that inspects rows right after sending waits on this.
func accounted(svc *Service) uint64 {
	n := svc.Accounting().ParseErrors
	for _, row := range svc.SourcesSnapshot() {
		n += row.Datagrams + row.ReplaySkipped
	}
	return n
}

// wireRecs generates a deterministic multi-day campaign's sampled IXP
// traffic in global arrival order — the record stream wireLog and the
// multi-source split helpers encode. Memoized per day count: several
// golden tests share one generation.
func wireRecs(t *testing.T, days int) []ecosystem.TaggedRecord {
	t.Helper()
	if recs, ok := wireRecsCache[days]; ok {
		return recs
	}
	cfg := ecosystem.DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	c := ecosystem.NewCampaign(cfg)
	gen := ecosystem.NewGenerator(c, 7)

	var recs []ecosystem.TaggedRecord
	day := simclock.MeasurementStart
	for d := 0; d < days; d++ {
		recs = append(recs, gen.WireDay(day).IXP...)
		day = day.Add(simclock.Day)
	}
	slices.SortStableFunc(recs, func(a, b ecosystem.TaggedRecord) int {
		return int(a.Rec.Time.Sub(b.Rec.Time))
	})
	wireRecsCache[days] = recs
	return recs
}

var wireRecsCache = map[int][]ecosystem.TaggedRecord{}

// encodeWire encodes records as an sFlow datagram log attributed to
// the canonical test agent 192.0.2.1.
func encodeWire(t *testing.T, w io.Writer, recs []ecosystem.TaggedRecord) {
	t.Helper()
	lw, err := sflow.NewLogWriter(w, [4]byte{192, 0, 2, 1}, sflow.DefaultRate)
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
}

// wireLog generates a deterministic multi-day campaign and encodes its
// sampled IXP traffic as an arrival-ordered sFlow datagram log.
func wireLog(t *testing.T, days int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	encodeWire(t, &buf, wireRecs(t, days))
	return &buf
}

// batchReference runs the offline study pipeline over a recorded log —
// whole-day columnar ingestion, cumulative selector state, per-day
// close-out — and returns its detections: the golden reference any
// service-mode run over the same recording must reproduce exactly.
func batchReference(t *testing.T, logBytes []byte, listN int) []*core.Detection {
	t.Helper()
	rep := source.NewReplay(nil)
	if _, err := rep.IngestSFlowLog(bytes.NewReader(logBytes)); err != nil {
		t.Fatalf("IngestSFlowLog: %v", err)
	}
	return replayReference(t, rep, listN)
}

// replayReference is batchReference over a capture already ingested.
func replayReference(t *testing.T, rep *source.Replay, listN int) []*core.Detection {
	t.Helper()
	tab := rep.Table()
	ref := core.NewAggregator(tab, nil)
	ref.SetTrackAll(true)
	cp := ixp.NewCapturePoint(nil, tab)
	th := core.DefaultThresholds()
	var want []*core.Detection
	for _, day := range rep.Days() {
		ref.ObserveBatch(cp.RemapBatch(rep.Day(day)))
		nl := core.BuildNameList(listN, core.Selector1MaxSize(ref), core.Selector2ANYCount(ref))
		for _, det := range core.Detect(ref, nl.Names, th) {
			if det.Day == day.Day() {
				want = append(want, det)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("batch reference found no detections; the golden comparison would be vacuous")
	}
	return want
}

func getBody(t *testing.T, svc *Service, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + svc.HTTPAddr().String() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return body
}

// TestServiceGoldenReplay is the acceptance test of the service mode:
// a daemonized service fed a recorded datagram stream over UDP must
// report detections equal to a batch study over the same recording —
// while it releases each day's client-day profiles at its close and
// exposes per-source and per-stage state over HTTP.
func TestServiceGoldenReplay(t *testing.T) {
	const days, listN = 5, 29
	logBuf := wireLog(t, days)
	logBytes := logBuf.Bytes()

	// Batch reference over the same recording: no UDP, every profile
	// kept — the study pipeline's semantics.
	want := batchReference(t, logBytes, listN)

	// The daemon: a 5-day recording, so four closes release profiles
	// and recycle their slots during the replay. Timestamps ride the
	// Uptime field (the replay convention).
	svc := startService(t, Config{
		Inputs:         udpInput(t),
		TimeFromUptime: true,
		Window:         WindowConfig{Days: 2, ListSize: listN, Refresh: simclock.Hour},
	})
	conn := dialService(t, svc)

	lr, err := sflow.NewLogReader(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	sent, scraped := 0, false
	for {
		at, dgm, err := lr.NextEntry()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dgm.Uptime = uint32(at)
		if _, err := conn.Write(sflow.EncodeDatagram(dgm)); err != nil {
			t.Fatalf("sending datagram %d: %v", sent, err)
		}
		sent++
		// Flow control: UDP has none, so pace against the consumer to
		// keep the in-flight window under the socket buffer.
		if sent%64 == 0 {
			n := uint64(sent - 64)
			waitUntil(t, "consumer to catch up", func() bool { return svc.Consumed() >= n })
		}
		if !scraped && svc.Consumed() > uint64(sent/2) && sent > 128 {
			scraped = true
			assertControlSurface(t, svc, true)
		}
	}
	waitUntil(t, "all datagrams consumed", func() bool { return svc.Consumed() == uint64(sent) })
	if drops := svc.QueueDrops(); drops != 0 {
		t.Fatalf("backpressure shed %d datagrams of a paced replay", drops)
	}

	// Mid-run scrape again with full per-source state, then finalize.
	assertControlSurface(t, svc, scraped)
	shutdownSvc(t, svc)

	got, _ := finalState(svc)
	st := svc.WindowSnapshot()
	if st.Evicted == 0 || st.ClientDays != 0 {
		t.Fatalf("%d closes must have released every profile: %+v", days, st)
	}
	if len(got) != len(want) {
		t.Fatalf("detections: daemon %d, batch %d\ndaemon: %+v\nbatch: %+v", len(got), len(want), got, want)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("detection %d: daemon %+v, batch %+v", i, *got[i], *want[i])
		}
	}
}

// TestWindowFrameOutcomes: after a replay whose log carries one frame
// of each sanitization drop beside a day of wire traffic, /window's
// capture tally names every sampled frame once — the four outcomes sum
// to frames — and ixpmon_window_frames_total reads the same numbers.
func TestWindowFrameOutcomes(t *testing.T) {
	recs := slices.Clone(wireRecs(t, 1))
	at := recs[0].Rec.Time
	frame := func(src, dst uint16, name string) []byte {
		q := dnswire.NewQuery(1, "x.test", dnswire.TypeA, 0)
		q.Questions[0].Name = name // bypass canonicalization
		ip := netmodel.IPv4{TTL: 60, Src: netip.MustParseAddr("192.0.2.7"), Dst: netip.MustParseAddr("198.51.100.9")}
		return netmodel.AppendUDPPacket(nil, netmodel.Ethernet{}, ip, netmodel.UDP{SrcPort: src, DstPort: dst}, new(dnswire.Encoder).Encode(q))
	}
	for _, f := range [][]byte{
		{1, 2, 3},                         // non-UDP
		frame(4000, 4321, "x.test."),      // non-DNS: no port 53
		frame(4000, 53, "bad name.test."), // malformed name
	} {
		recs = append(recs, ecosystem.TaggedRecord{Rec: sflow.Record{Time: at, Frame: f, FrameLen: len(f)}})
	}
	path := filepath.Join(t.TempDir(), "in.sflowlog")
	if err := os.WriteFile(path, wireAs(t, recs, ingest.KindReplay), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := startService(t, Config{Inputs: []ingest.Spec{mustSpec(t, "replay:"+path)}})
	<-svc.Done()

	var ws WindowStats
	if err := json.Unmarshal(getBody(t, svc, "/window"), &ws); err != nil {
		t.Fatalf("/window: %v", err)
	}
	if ws.Frames != len(recs) || ws.NonUDP != 1 || ws.NonDNS != 1 || ws.Malformed != 1 ||
		ws.Accepted+ws.NonUDP+ws.NonDNS+ws.Malformed != ws.Frames {
		t.Fatalf("/window tally: %d frames = %d accepted + %d non-UDP + %d non-DNS + %d malformed; want %d frames, one of each drop",
			ws.Frames, ws.Accepted, ws.NonUDP, ws.NonDNS, ws.Malformed, len(recs))
	}
	metricsText := string(getBody(t, svc, "/metrics"))
	for outcome, n := range map[string]int{"accepted": ws.Accepted, "non_udp": 1, "non_dns": 1, "malformed": 1} {
		if line := fmt.Sprintf(`ixpmon_window_frames_total{outcome=%q} %d`, outcome, n); !strings.Contains(metricsText, line+"\n") {
			t.Errorf("/metrics has no line %s", line)
		}
	}
}

// assertControlSurface checks every endpoint is live and well-formed
// while the daemon runs; withSources additionally requires per-source
// accounting rows to be present in /sources and /metrics.
func assertControlSurface(t *testing.T, svc *Service, withSources bool) {
	t.Helper()

	metricsText := string(getBody(t, svc, "/metrics"))
	for _, family := range []string{
		"ixpmon_datagrams_received_total",
		"ixpmon_stage_seconds_total",
		"ixpmon_window_client_days",
	} {
		if !strings.Contains(metricsText, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s:\n%.500s", family, metricsText)
		}
	}
	if withSources && !strings.Contains(metricsText, `ixpmon_source_datagrams_total{input="udp://127.0.0.1:0",agent="192.0.2.1",subagent="0"}`) {
		t.Errorf("/metrics missing per-source sample:\n%.500s", metricsText)
	}

	var stages []stageJSON
	if err := json.Unmarshal(getBody(t, svc, "/stages"), &stages); err != nil {
		t.Fatalf("/stages: %v", err)
	}
	if withSources {
		names := make(map[string]bool)
		for _, st := range stages {
			names[st.Stage] = true
		}
		if !names["parse"] || !names["observe"] {
			t.Errorf("/stages missing core stages: %+v", stages)
		}
	}

	var srcPayload SourcesPayload
	if err := json.Unmarshal(getBody(t, svc, "/sources"), &srcPayload); err != nil {
		t.Fatalf("/sources: %v", err)
	}
	sources := srcPayload.Collectors
	if withSources {
		if len(sources) != 1 || sources[0].Agent != "192.0.2.1" || sources[0].Datagrams == 0 {
			t.Errorf("/sources = %+v", sources)
		}
		if sources[0].Rate != sflow.DefaultRate {
			t.Errorf("source rate = %d, want %d", sources[0].Rate, sflow.DefaultRate)
		}
	}

	var dets []Detection
	if err := json.Unmarshal(getBody(t, svc, "/detections"), &dets); err != nil {
		t.Fatalf("/detections: %v", err)
	}
	var ws WindowStats
	if err := json.Unmarshal(getBody(t, svc, "/window"), &ws); err != nil {
		t.Fatalf("/window: %v", err)
	}
	if body := getBody(t, svc, "/healthz"); string(body) != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}
}

// TestServiceMultiSource: concurrent collectors with different
// sampling rates, loss, and reordering are accounted independently.
func TestServiceMultiSource(t *testing.T) {
	svc := startService(t, Config{Inputs: udpInput(t)})
	conn := dialService(t, svc)

	mk := func(agent byte, sub, seq, rate uint32) []byte {
		return sflow.EncodeDatagram(&sflow.Datagram{
			Agent:    [4]byte{10, 0, 0, agent},
			SubAgent: sub,
			Seq:      seq,
			Samples: []sflow.FlowSample{{
				Seq: seq, Rate: rate, FrameLen: 64, Header: []byte{1, 2, 3, 4},
			}},
		})
	}
	// Source A: a gap (3 lost), then one lost datagram arriving late.
	// Source B (different sub-agent space): clean sequence, rate switch.
	for _, d := range [][]byte{
		mk(1, 0, 1, 16384),
		mk(1, 0, 2, 16384),
		mk(2, 7, 100, 8192),
		mk(1, 0, 6, 16384),
		mk(2, 7, 101, 4096),
		mk(1, 0, 4, 16384),
	} {
		if _, err := conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "6 datagrams received", func() bool { return svc.Received() == 6 && accounted(svc) == 6 })

	rows := svc.SourcesSnapshot()
	if len(rows) != 2 {
		t.Fatalf("sources = %+v", rows)
	}
	a, b := rows[0], rows[1]
	if a.Agent != "10.0.0.1" || a.SubAgent != 0 || b.Agent != "10.0.0.2" || b.SubAgent != 7 {
		t.Fatalf("row identity/order: %+v", rows)
	}
	if a.Datagrams != 4 || a.Lost != 2 || a.OutOfOrder != 1 || a.Rate != 16384 {
		t.Errorf("source A = %+v", a)
	}
	if b.Datagrams != 2 || b.Lost != 0 || b.Rate != 4096 || b.RateChanges != 1 {
		t.Errorf("source B = %+v", b)
	}

	// Garbage is a parse error, not a source row.
	if _, err := conn.Write([]byte("not sflow")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "garbage received", func() bool { return svc.Received() == 7 })
	waitUntil(t, "parse error counted", func() bool { return svc.Accounting().ParseErrors == 1 })
	if got := len(svc.SourcesSnapshot()); got != 2 {
		t.Errorf("garbage created a source row: %d", got)
	}
}

// TestServiceBackpressure: with the consumer stalled, a flooding
// source exceeds its queue share and sheds its own datagrams — while a
// quiet neighbour's datagram is still accepted.
func TestServiceBackpressure(t *testing.T) {
	svc := NewService(Config{Inputs: udpInput(t), QueueLen: 4, PerSourceQueue: 2})
	openGate := startGated(t, svc)
	conn := dialService(t, svc)

	mk := func(agent byte, seq uint32) []byte {
		return sflow.EncodeDatagram(&sflow.Datagram{
			Agent: [4]byte{10, 0, 0, agent}, Seq: seq,
			Samples: []sflow.FlowSample{{Seq: seq, Rate: 16384, FrameLen: 64, Header: []byte{1}}},
		})
	}
	for seq := uint32(1); seq <= 10; seq++ { // source A floods
		if _, err := conn.Write(mk(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(mk(2, 1)); err != nil { // source B: one datagram
		t.Fatal(err)
	}
	waitUntil(t, "11 datagrams received", func() bool { return svc.Received() == 11 && accounted(svc) == 11 })

	rows := svc.SourcesSnapshot()
	if len(rows) != 2 {
		t.Fatalf("sources = %+v", rows)
	}
	a, b := rows[0], rows[1]
	if a.QueueDrops != 8 {
		t.Errorf("flooding source drops = %d, want 8 (2 of 10 fit its share)", a.QueueDrops)
	}
	if b.QueueDrops != 0 {
		t.Errorf("quiet source shed %d datagrams; backpressure must be per-source", b.QueueDrops)
	}
	if svc.QueueDrops() != 8 {
		t.Errorf("total drops = %d", svc.QueueDrops())
	}

	openGate()
	waitUntil(t, "accepted datagrams consumed", func() bool { return svc.Consumed() == 3 })

	// A checkpoint stores the rows' sums as its queue-drop and replay-skip
	// totals, the 4th and 3rd last words; either one off is malformed.
	img := checkpointBytes(t, svc)
	for _, back := range []int{32, 24} {
		bad := bytes.Clone(img)
		at := len(bad) - ckptSumLen - back
		binary.LittleEndian.PutUint64(bad[at:], binary.LittleEndian.Uint64(bad[at:])+1)
		if err := decodeTarget(svc.cfg).decodeCheckpoint(resealCheckpoint(bad)); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("a total at offset %d one past its rows decoded with %v, want ErrCheckpoint", at, err)
		}
	}
	if err := decodeTarget(svc.cfg).decodeCheckpoint(img); err != nil {
		t.Errorf("the checkpoint of 8 queue drops: %v", err)
	}
}

// TestSendLogRewritesUptime: the replay sender stamps each datagram's
// recorded arrival second into the Uptime field, in log order.
func TestSendLogRewritesUptime(t *testing.T) {
	var buf bytes.Buffer
	lw, err := sflow.NewLogWriter(&buf, [4]byte{192, 0, 2, 1}, sflow.DefaultRate)
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte{0xaa, 0xbb, 0xcc}
	times := []simclock.Time{
		simclock.MeasurementStart,
		simclock.MeasurementStart.Add(2),
		simclock.MeasurementStart.Add(simclock.Hour),
	}
	for i, at := range times {
		if err := lw.Add(sflow.Record{Time: at, Frame: frame, FrameLen: 64, Seq: uint64(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	var wrote [][]byte
	sink := writerFunc(func(p []byte) (int, error) {
		wrote = append(wrote, append([]byte(nil), p...))
		return len(p), nil
	})
	sent, err := SendLog(sink, bytes.NewReader(buf.Bytes()), 2, time.Microsecond)
	if err != nil {
		t.Fatalf("SendLog: %v", err)
	}
	if sent != len(wrote) || sent != len(times) {
		t.Fatalf("sent %d datagrams, wrote %d, want %d", sent, len(wrote), len(times))
	}
	for i, p := range wrote {
		dgm, err := sflow.ParseDatagram(p)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if simclock.Time(dgm.Uptime) != times[i] {
			t.Errorf("datagram %d uptime = %d, want %d", i, dgm.Uptime, times[i])
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestStartNeedsInputs: a service with no ingest source does not start.
func TestStartNeedsInputs(t *testing.T) {
	svc := NewService(Config{})
	if err := svc.Start(); err == nil {
		shutdownSvc(t, svc)
		t.Fatal("Start accepted an empty Config.Inputs")
	}
}

// TestStartBindsEveryUDPInput: every UDP input's bound address is on
// its input row as soon as Start returns, and an input that cannot
// bind — here, the port the first service holds — fails Start instead
// of retrying behind a running control surface.
func TestStartBindsEveryUDPInput(t *testing.T) {
	svc := startService(t, Config{Inputs: []ingest.Spec{
		mustSpec(t, "udp://127.0.0.1:0"), mustSpec(t, "udp://:0"),
	}})
	for _, in := range svc.InputsSnapshot() {
		if _, port, err := net.SplitHostPort(in.Addr); err != nil || port == "0" {
			t.Errorf("input %s: bound address %q right after Start, want a concrete port", in.ID, in.Addr)
		}
	}
	held := udpAddr(t, svc).String()

	clash := NewService(Config{Inputs: []ingest.Spec{
		mustSpec(t, "udp://127.0.0.1:0"), mustSpec(t, "udp://"+held),
	}})
	if err := clash.Start(); err == nil {
		shutdownSvc(t, clash)
		t.Fatalf("Start bound %s a second time", held)
	}
}
