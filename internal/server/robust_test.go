package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// logDatagrams decodes a wireLog into send-ready datagram bytes, each
// with its recorded arrival second stamped into Uptime (the replay
// convention TimeFromUptime consumes).
func logDatagrams(t *testing.T, logBytes []byte) [][]byte {
	t.Helper()
	lr, err := sflow.NewLogReader(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for {
		at, dgm, err := lr.NextEntry()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dgm.Uptime = uint32(at)
		out = append(out, sflow.EncodeDatagram(dgm))
	}
	return out
}

// waitLossless is waitUntil for a service that must shed nothing: the
// deadline restarts whenever a service counter advances, so a slow host
// fails the wait only when the service is stuck, and the first shed
// datagram fails it at once with the count instead of leaving cond to
// time out on a total that can no longer arrive.
func waitLossless(t *testing.T, svc *Service, what string, cond func() bool) {
	t.Helper()
	const patience = 10 * time.Second
	var last Accounting
	deadline := time.Now().Add(patience)
	for !cond() {
		a := svc.Accounting()
		if a.QueueDrops > 0 {
			t.Fatalf("waiting for %s: backpressure shed %d datagrams of a paced replay", what, a.QueueDrops)
		}
		if a != last {
			last, deadline = a, time.Now().Add(patience)
		} else if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: no progress for %v (%+v)", what, patience, a)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendPaced writes datagrams over UDP for a run that asserts
// losslessness. UDP has no flow control, so it paces on the service's
// own backlog: datagrams sent but not yet consumed (or skipped by the
// resume barrier) stay under half the per-source queue share, which
// also keeps them under the socket buffer. Pacing on the receive
// counter alone lets a slow consumer fall behind until the source sheds.
func sendPaced(t *testing.T, svc *Service, conn *net.UDPConn, dgs [][]byte) {
	t.Helper()
	done := func() uint64 { return svc.Consumed() + svc.ReplaySkipped() }
	done0, share := done(), uint64(svc.cfg.PerSourceQueue/2)
	for i, b := range dgs {
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("sending datagram %d: %v", i, err)
		}
		if sent := uint64(i + 1); sent%64 == 0 {
			waitLossless(t, svc, "consumer to catch up", func() bool { return sent-(done()-done0) < share })
		}
	}
	want := done0 + uint64(len(dgs))
	waitLossless(t, svc, "all sent datagrams consumed", func() bool { return done() == want })
}

func shutdownSvc(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// finalState reads the finalized window: retained detections and the
// total samples folded into the aggregate.
func finalState(svc *Service) ([]*core.Detection, int) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.win.Detections(), svc.win.agg.Samples
}

// miniDatagram builds a one-sample datagram from a fixed agent; the
// frame is garbage (sheds at the capture point) so tests that only
// exercise the datagram path stay small.
func miniDatagram(seq uint32) []byte {
	return sflow.EncodeDatagram(&sflow.Datagram{
		Agent: [4]byte{198, 51, 100, 9}, SubAgent: 1, Seq: seq,
		Samples: []sflow.FlowSample{{
			Seq: seq, Rate: 2048, FrameLen: 64, Header: []byte{1, 2, 3, 4},
		}},
	})
}

// TestServiceCrashRecovery is the tentpole golden: a service killed
// mid-study and resumed from its checkpoint must end with detections
// byte-identical to an uninterrupted run — including when the sender
// replays an overlapping window of already-consumed datagrams, which
// the resume barrier must skip without double-counting a single
// sample.
func TestServiceCrashRecovery(t *testing.T) {
	const days, listN = 4, 29
	dgs := logDatagrams(t, wireLog(t, days).Bytes())
	wcfg := WindowConfig{Days: 2, ListSize: listN, Refresh: simclock.Hour}

	// Uninterrupted reference run.
	ref := startService(t, Config{Inputs: udpInput(t), TimeFromUptime: true, Window: wcfg})
	sendPaced(t, ref, dialService(t, ref), dgs)
	shutdownSvc(t, ref)
	wantDets, wantSamples := finalState(ref)
	if len(wantDets) == 0 {
		t.Fatal("reference run found no detections; the golden comparison would be vacuous")
	}

	// Interrupted run, phase 1: two thirds of the stream, then die.
	dir := t.TempDir()
	cut := len(dgs) * 2 / 3
	const overlap = 32
	base := Config{
		Inputs:         udpInput(t),
		TimeFromUptime: true, Window: wcfg,
		StateDir: dir, CheckpointEvery: -1,
	}
	svc1 := startService(t, base)
	sendPaced(t, svc1, dialService(t, svc1), dgs[:cut])

	// The control surface can force a checkpoint (POST only).
	resp, err := http.Post("http://"+svc1.HTTPAddr().String()+"/checkpoint", "", nil)
	if err != nil {
		t.Fatalf("POST /checkpoint: %v", err)
	}
	var ck struct {
		Checkpoint string `json:"checkpoint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil || resp.StatusCode != http.StatusOK || ck.Checkpoint == "" {
		t.Fatalf("POST /checkpoint: status %d, body %+v, err %v", resp.StatusCode, ck, err)
	}
	resp.Body.Close()
	if resp, err := http.Get("http://" + svc1.HTTPAddr().String() + "/checkpoint"); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /checkpoint: status %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
	shutdownSvc(t, svc1)

	// Phase 2: resume from the checkpoint and replay the tail of the
	// stream with an overlap into already-consumed territory.
	cfg2 := base
	cfg2.Resume = true
	svc2 := startService(t, cfg2)
	if svc2.ResumedFrom() == "" {
		t.Fatal("resumed service loaded no checkpoint")
	}
	sendPaced(t, svc2, dialService(t, svc2), dgs[cut-overlap:]) // sendPaced fails on a shed datagram
	if a, n := svc2.Accounting(), uint64(len(dgs)); a != (Accounting{Received: n + overlap, ReplaySkipped: overlap, Consumed: n}) {
		t.Fatalf("phase 2 ended at %+v, want every datagram consumed once and the %d re-sent skipped", a, overlap)
	}
	shutdownSvc(t, svc2)

	gotDets, gotSamples := finalState(svc2)
	if gotSamples != wantSamples {
		t.Errorf("samples across the crash boundary: resumed %d, uninterrupted %d", gotSamples, wantSamples)
	}
	if len(gotDets) != len(wantDets) {
		t.Fatalf("detections: resumed %d, uninterrupted %d\nresumed: %+v\nuninterrupted: %+v",
			len(gotDets), len(wantDets), gotDets, wantDets)
	}
	for i := range gotDets {
		if !reflect.DeepEqual(gotDets[i], wantDets[i]) {
			t.Errorf("detection %d: resumed %+v, uninterrupted %+v", i, *gotDets[i], *wantDets[i])
		}
	}

	st2, stRef := svc2.WindowSnapshot(), ref.WindowSnapshot()
	if st2.ClosedDays != stRef.ClosedDays || st2.Evicted != stRef.Evicted || st2.LateSamples != stRef.LateSamples {
		t.Errorf("window counters diverged across the crash: resumed %+v, uninterrupted %+v", st2, stRef)
	}
}

// TestShutdownDrainsBacklog: SIGTERM with a backlogged queue must
// observe every queued datagram and finalize the day in progress
// before the service exits.
func TestShutdownDrainsBacklog(t *testing.T) {
	dgs := logDatagrams(t, wireLog(t, 1).Bytes())
	if len(dgs) > 48 {
		dgs = dgs[:48]
	}
	svc := NewService(Config{
		Inputs:         udpInput(t),
		TimeFromUptime: true,
		Window:         WindowConfig{Days: 2},
		QueueLen:       64, PerSourceQueue: 64,
	})
	svc.gate = make(chan struct{})
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	conn := dialService(t, svc)
	for i, b := range dgs {
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("sending datagram %d: %v", i, err)
		}
	}
	waitUntil(t, "backlog received", func() bool {
		return svc.Received() == uint64(len(dgs)) && accounted(svc) == uint64(len(dgs))
	})
	if got := svc.Consumed(); got != 0 {
		t.Fatalf("consumer ran %d datagrams past a closed gate", got)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- svc.Shutdown(ctx)
	}()
	<-svc.closing // shutdown has begun
	close(svc.gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	if n := uint64(len(dgs)); svc.Accounting() != (Accounting{Received: n, Consumed: n}) {
		t.Errorf("shutdown left %+v, want all %d backlogged datagrams consumed", svc.Accounting(), n)
	}
	if _, samples := finalState(svc); samples == 0 {
		t.Error("no samples observed from the drained backlog")
	}
	if st := svc.WindowSnapshot(); st.ClosedDays == 0 {
		t.Errorf("shutdown did not finalize the day in progress: %+v", st)
	}
}

// TestShutdownInterruptsBlockedEnqueue: a durable input's producer
// blocked on a full queue is released by Shutdown, not by queue space.
// The entry it was holding is not enqueued and its cursor not advanced,
// so the shutdown checkpoint covers exactly what was queued and a
// resume re-reads exactly the rest. No step depends on timing: the gate
// stays shut until the producer has left.
func TestShutdownInterruptsBlockedEnqueue(t *testing.T) {
	const entries, queueLen = 40, 8
	dir := t.TempDir()
	path := filepath.Join(dir, "in.sflowlog")
	var hdr bytes.Buffer
	encodeWire(t, &hdr, nil) // the file header alone
	if err := os.WriteFile(path, hdr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	appendEntries(t, path, [4]byte{192, 0, 2, 1}, 1, simclock.MeasurementStart, entries)
	cfg := Config{
		Window: WindowConfig{Days: 2}, QueueLen: queueLen,
		StateDir: filepath.Join(dir, "state"), CheckpointEvery: -1,
	}
	cfg.Inputs = append(cfg.Inputs, mustSpec(t, "replay:"+path))

	svc1 := NewService(cfg)
	svc1.gate = make(chan struct{})
	if err := svc1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// The consumer holds one entry at the gate, the queue holds
	// queueLen, and the producer has accounted the one it cannot place.
	const placed = queueLen + 1
	waitUntil(t, "producer to meet the full queue", func() bool { return accounted(svc1) == placed+1 })
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- svc1.Shutdown(ctx)
	}()
	<-svc1.readerDone // the queue is still full: only Shutdown can have released the producer
	close(svc1.gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := svc1.Consumed(); got != placed {
		t.Fatalf("interrupted run consumed %d entries, want the %d that were queued", got, placed)
	}

	cfg.Resume = true
	svc2 := startService(t, cfg)
	waitUntil(t, "resumed replay drained", func() bool { return svc2.Consumed() >= entries })
	shutdownSvc(t, svc2)
	if got, fr := svc2.Consumed(), frames(svc2); got != entries || fr != entries {
		t.Errorf("after resume: %d entries consumed, %d frames processed, want exactly %d of each", got, fr, entries)
	}
}

// TestSocketRebind: when the ingest socket dies under the reader (not
// a shutdown), the input's supervisor restarts it once, rebinding the
// same address, and it keeps ingesting.
func TestSocketRebind(t *testing.T) {
	var mu sync.Mutex
	var conns []net.PacketConn
	cfg := Config{Inputs: udpInput(t), Window: WindowConfig{Days: 2}}
	cfg.ListenPacket = func(addr string) (net.PacketConn, error) {
		c, err := net.ListenPacket("udp", addr)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	svc := startService(t, cfg)
	conn := dialService(t, svc)

	if _, err := conn.Write(miniDatagram(1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first datagram received", func() bool { return svc.Received() == 1 })

	mu.Lock()
	first := conns[0]
	mu.Unlock()
	first.Close() // the socket dies out from under the reader
	waitUntil(t, "socket rebound", func() bool { return svc.InputsSnapshot()[0].Restarts == 1 })

	// The rebound socket serves the same address; sends may race the
	// rebind, so retry until one lands.
	waitUntil(t, "ingest after rebind", func() bool {
		conn.Write(miniDatagram(2)) //nolint:errcheck // ICMP-refused sends are expected mid-rebind
		return svc.Received() >= 2
	})
}

// TestConsumerPanicQuarantine: a datagram that panics the consumer is
// quarantined to a poison file; the drain continues and the service
// stays healthy.
func TestConsumerPanicQuarantine(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(Config{
		Inputs:   udpInput(t),
		Window:   WindowConfig{Days: 2},
		StateDir: dir, CheckpointEvery: -1,
	})
	svc.faultPanic = func(dg *sflow.Datagram) bool { return dg.Seq == 2 }
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { shutdownSvc(t, svc) })
	conn := dialService(t, svc)

	for seq := uint32(1); seq <= 4; seq++ {
		if _, err := conn.Write(miniDatagram(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "all datagrams consumed past the panic", func() bool { return svc.Consumed() == 4 })
	if got := svc.Panics(); got != 1 {
		t.Fatalf("panics isolated = %d, want 1", got)
	}
	if svc.Health() != HealthOK {
		t.Errorf("health = %v after an isolated panic, want ok", svc.Health())
	}

	poisons, _ := filepath.Glob(filepath.Join(dir, "poison-*.sflow"))
	if len(poisons) != 1 {
		t.Fatalf("poison files = %v, want exactly 1", poisons)
	}
	// The name carries the input the datagram arrived through.
	if base := filepath.Base(poisons[0]); !strings.HasPrefix(base, "poison-udp___127.0.0.1_0-") {
		t.Errorf("poison file name = %q, want poison-udp___127.0.0.1_0-* (source-scoped)", base)
	}
	raw, err := os.ReadFile(poisons[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("# consumer panic: ")) {
		t.Errorf("poison file opens %.40q, want the stage that panicked: # consumer panic: …", raw)
	}
	rest := raw
	if rest[0] != '#' {
		t.Fatalf("poison file meta header malformed: %q", raw)
	}
	for len(rest) > 0 && rest[0] == '#' { // '#' meta lines precede the datagram
		j := bytes.IndexByte(rest, '\n')
		if j < 0 {
			t.Fatalf("poison file meta header malformed: %q", raw)
		}
		rest = rest[j+1:]
	}
	dg, err := sflow.ParseDatagram(rest)
	if err != nil {
		t.Fatalf("poison file datagram: %v", err)
	}
	if dg.Seq != 2 || dg.Agent != [4]byte{198, 51, 100, 9} {
		t.Errorf("quarantined datagram = agent %v seq %d, want the panicking one (seq 2)", dg.Agent, dg.Seq)
	}
}

// TestCheckpointCorruptFallback: resume skips a corrupt newest
// checkpoint, falls back to the newest valid one, restores cursors
// from it, and continues the write sequence without overwriting
// history. With every file corrupt, Start refuses to run.
func TestCheckpointCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	base := Config{
		Inputs:   udpInput(t),
		Window:   WindowConfig{Days: 2},
		StateDir: dir, CheckpointEvery: -1,
	}
	svc1 := startService(t, base)
	conn := dialService(t, svc1)
	for seq := uint32(1); seq <= 8; seq++ {
		if _, err := conn.Write(miniDatagram(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "first batch consumed", func() bool { return svc1.Consumed() == 8 })
	p1, err := svc1.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for seq := uint32(9); seq <= 12; seq++ {
		if _, err := conn.Write(miniDatagram(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "second batch consumed", func() bool { return svc1.Consumed() == 12 })
	shutdownSvc(t, svc1) // writes the newest checkpoint

	corrupt := func(path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths := listCheckpoints(dir)
	if len(paths) != 2 || paths[0] != p1 {
		t.Fatalf("checkpoints = %v, want [%s <shutdown>]", paths, p1)
	}
	p2 := paths[1]
	corrupt(p2)

	cfg2 := base
	cfg2.Resume = true
	svc2 := startService(t, cfg2)
	if got := svc2.ResumedFrom(); got != p1 {
		t.Fatalf("resumed from %q, want fallback to %q", got, p1)
	}
	svc2.smu.Lock()
	src := svc2.sources[sourceKey{src: base.Inputs[0].ID, agent: [4]byte{198, 51, 100, 9}, subAgent: 1}]
	svc2.smu.Unlock()
	if src == nil || src.cursor != 8 || !src.resuming || src.resumeSeq != 8 {
		t.Fatalf("restored source = %+v, want cursor 8 with the replay barrier armed", src)
	}
	shutdownSvc(t, svc2)

	paths = listCheckpoints(dir)
	newest := paths[len(paths)-1]
	if filepath.Base(newest) <= filepath.Base(p2) {
		t.Errorf("resumed service wrote %s, not past the corrupt %s", newest, p2)
	}

	// Every checkpoint corrupt: files exist but none are loadable, and
	// silently cold-starting would throw state away — refuse to start.
	// (Truncation, not a second flip: re-flipping p2 would restore it.)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc3 := NewService(cfg2)
	if err := svc3.Start(); err == nil {
		shutdownSvc(t, svc3)
		t.Fatal("Start resumed from a directory of corrupt checkpoints")
	}
}

// TestResumeRejectsDuplicateTableName: a checkpoint whose name table
// repeats a name is corrupt even under a valid checksum. Restored, every
// later name would shift down one ID and carry the statistics of the
// name before it — here the late "cc.test." would read as "bb.test.",
// and the names column (two entries, the late name was never observed)
// would still fit the shortened table. -resume falls back past it, and
// with no other checkpoint reports none valid.
func TestResumeRejectsDuplicateTableName(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Inputs: udpInput(t), Window: WindowConfig{Days: 2}, StateDir: dir, CheckpointEvery: -1}
	svc := NewService(cfg)
	w := svc.win
	w.Observe(winSample(w, dayTime(3), 1, "aa.test", dnswire.TypeA, 100))
	good, err := svc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(winSample(w, dayTime(3), 2, "bb.test", dnswire.TypeANY, 3000))
	w.Observe(winSample(w, dayTime(0), 3, "cc.test", dnswire.TypeA, 100)) // late: interned, not observed
	raw, err := svc.encodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The table is the payload's first section; rename its second name
	// to its first and re-sign the payload.
	i := bytes.Index(raw, []byte("bb.test."))
	if i < 0 || i > bytes.Index(raw, []byte("cc.test.")) {
		t.Fatalf("table layout not as expected: %q", raw[:64])
	}
	copy(raw[i:], "aa.test.")
	resealCheckpoint(raw)
	dup := filepath.Join(dir, ckptName(1))
	if err := os.WriteFile(dup, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := cfg
	resumed.Resume = true
	svc2 := startService(t, resumed)
	if got := svc2.ResumedFrom(); got != good {
		t.Fatalf("resumed from %q, want the fallback %q", got, good)
	}
	shutdownSvc(t, svc2)

	alone := t.TempDir()
	if err := os.WriteFile(filepath.Join(alone, ckptName(0)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed.StateDir = alone
	svc3 := NewService(resumed)
	if err := svc3.Start(); err == nil || !strings.Contains(err.Error(), "none valid") {
		if err == nil {
			shutdownSvc(t, svc3)
		}
		t.Fatalf("Start on a lone duplicate-name checkpoint: err %v, want none valid", err)
	}
}

// TestConservationAcrossResume: every term of the conservation equation
// but the inputs' delivery panics rides in the checkpoint, so without
// such panics the equation still closes after a resume.
// Run 2 is re-sent an overlap the replay barrier skips; run 3 must read
// those skips beside the received total that includes them. Run 3 is
// then flooded into the sampling-down and shed-all tiers behind a held
// consumer, drained and shut down; run 4 must read those sheds too.
func TestConservationAcrossResume(t *testing.T) {
	cfg := Config{
		Inputs:   udpInput(t),
		Window:   WindowConfig{Days: 2},
		StateDir: t.TempDir(), CheckpointEvery: -1,
	}
	send := func(svc *Service, from, to uint32) {
		conn := dialService(t, svc)
		for seq := from; seq <= to; seq++ {
			if _, err := conn.Write(miniDatagram(seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc1 := startService(t, cfg)
	send(svc1, 1, 5)
	waitUntil(t, "run 1 consumed", func() bool { return svc1.Consumed() == 5 })
	shutdownSvc(t, svc1)

	cfg.Resume = true
	svc2 := startService(t, cfg)
	send(svc2, 1, 8)
	waitUntil(t, "overlap skipped, the rest consumed", func() bool {
		return svc2.Accounting() == Accounting{Received: 13, ReplaySkipped: 5, Consumed: 8}
	})
	shutdownSvc(t, svc2)

	svc3 := NewService(cfg)
	open := startGated(t, svc3)
	if a := svc3.Accounting(); a != (Accounting{Received: 13, ReplaySkipped: 5, Consumed: 8}) {
		t.Fatalf("run 3 restored %+v, want 13 received: 5 replay-skipped, 8 consumed", a)
	}

	floodUntil(t, svc3, dialService(t, svc3), func() bool { return svc3.SampledOut() > 0 && svc3.ShedAll() > 0 })
	open()
	waitDrained(t, svc3)
	shutdownSvc(t, svc3)

	svc4 := startService(t, cfg)
	if got, want := svc4.Accounting(), svc3.Accounting(); got != want {
		t.Errorf("run 4 restored %+v, run 3 shut down with %+v", got, want)
	}
	assertConservation(t, svc4)
}

// TestCheckpointRetention: the retention count bounds how many
// checkpoint files accumulate.
func TestCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	svc := startService(t, Config{
		Inputs:   udpInput(t),
		Window:   WindowConfig{Days: 2},
		StateDir: dir, CheckpointEvery: -1, CheckpointRetain: 2,
	})
	for i := 0; i < 5; i++ {
		if _, err := svc.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	paths := listCheckpoints(dir)
	if len(paths) != 2 {
		t.Fatalf("retained %d checkpoints, want 2: %v", len(paths), paths)
	}
	if filepath.Base(paths[1]) != ckptName(4) {
		t.Errorf("newest = %s, want %s", paths[1], ckptName(4))
	}
}

// TestHealthStateMachine walks the overload state machine directly:
// ok → degraded on overload, degraded → recovering below the
// low-water mark, recovering → ok only after the hold, with any
// above-low-water observation resetting the streak.
func TestHealthStateMachine(t *testing.T) {
	var h health
	if h.State() != HealthOK {
		t.Fatalf("initial state = %v", h.State())
	}
	h.noteDepth(100, 100, 1) // depth observations are no-ops while ok
	if h.State() != HealthOK {
		t.Fatalf("ok flapped on a depth observation: %v", h.State())
	}
	h.noteOverload()
	if h.State() != HealthDegraded || h.degradations.Load() != 1 {
		t.Fatalf("after overload: %v, %d transitions", h.State(), h.degradations.Load())
	}
	h.noteOverload() // still degraded: not a second transition
	if h.degradations.Load() != 1 {
		t.Fatalf("re-overload counted %d transitions", h.degradations.Load())
	}
	h.noteDepth(50, 100, 1) // above low water: no recovery yet
	if h.State() != HealthDegraded {
		t.Fatalf("recovered above the low-water mark: %v", h.State())
	}
	h.noteDepth(10, 100, 1) // below: recovery starts
	if h.State() != HealthRecovering {
		t.Fatalf("below low water: %v, want recovering", h.State())
	}
	h.noteDepth(30, 100, 1) // a bounce resets the streak but not the state
	if h.State() != HealthRecovering {
		t.Fatalf("bounce: %v, want recovering", h.State())
	}
	for i := 0; i < recoverHold-1; i++ {
		h.noteDepth(0, 100, 1)
	}
	if h.State() != HealthRecovering {
		t.Fatalf("recovered before the hold elapsed: %v", h.State())
	}
	h.noteDepth(0, 100, 1)
	if h.State() != HealthOK {
		t.Fatalf("after the hold: %v, want ok", h.State())
	}

	// A drain of n datagrams is n observations at the depth it left: a
	// backlog emptied in two long drains counts out the hold by itself,
	// and a drain that ends above low water still resets the streak.
	h.noteOverload()
	h.noteDepth(10, 100, recoverHold-1)
	if h.State() != HealthRecovering {
		t.Fatalf("a drain one short of the hold: %v, want recovering", h.State())
	}
	h.noteDepth(30, 100, 1)
	h.noteDepth(10, 100, recoverHold/2)
	if h.State() != HealthRecovering {
		t.Fatalf("half the hold after a bounce: %v, want recovering", h.State())
	}
	h.noteDepth(0, 100, recoverHold/2)
	if h.State() != HealthOK {
		t.Fatalf("two drains making up the hold: %v, want ok", h.State())
	}
}

// TestTailServiceResume: tail-log ingest consumed up to a checkpointed
// byte offset resumes exactly there — re-reading nothing — and ends
// with the same window an uninterrupted tail run produces.
func TestTailServiceResume(t *testing.T) {
	logBytes := wireLog(t, 2).Bytes()

	// Index the entry boundaries with a throwaway tailer.
	full := filepath.Join(t.TempDir(), "full.log")
	if err := os.WriteFile(full, logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := sflow.NewTailer(full, 0)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for {
		if _, err := tl.NextInto(new(sflow.Datagram)); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
		offs = append(offs, tl.Offset())
	}
	tl.Close()
	total := len(offs)
	k := total * 3 / 5
	cut := offs[k-1]

	dir := t.TempDir()
	feed := filepath.Join(t.TempDir(), "feed.log")
	if err := os.WriteFile(feed, logBytes[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	wcfg := WindowConfig{Days: 2, ListSize: 29, Refresh: simclock.Hour}
	base := Config{
		Window: wcfg, Inputs: tailInput(t, feed),
		StateDir: dir, CheckpointEvery: -1,
	}
	feedID := base.Inputs[0].ID
	svc1 := startService(t, base)
	waitUntil(t, "truncated log drained", func() bool {
		return svc1.Consumed() == uint64(k) && svc1.InputCursor(feedID) == cut
	})
	shutdownSvc(t, svc1)

	f, err := os.OpenFile(feed, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(logBytes[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg2 := base
	cfg2.Resume = true
	svc2 := startService(t, cfg2)
	if svc2.ResumedFrom() == "" {
		t.Fatal("resumed tail service loaded no checkpoint")
	}
	waitUntil(t, "appended log drained", func() bool {
		return svc2.Consumed() == uint64(total) && svc2.InputCursor(feedID) == int64(len(logBytes))
	})
	if got := svc2.ReplaySkipped(); got != 0 {
		t.Errorf("offset resume replay-skipped %d entries; it should re-read nothing", got)
	}
	shutdownSvc(t, svc2)
	gotDets, gotSamples := finalState(svc2)

	// Uninterrupted reference: one service tails the complete log.
	ref := startService(t, Config{Window: wcfg, Inputs: tailInput(t, full)})
	waitUntil(t, "reference log drained", func() bool { return ref.Consumed() == uint64(total) })
	shutdownSvc(t, ref)
	wantDets, wantSamples := finalState(ref)

	if gotSamples != wantSamples {
		t.Errorf("samples across the tail resume: %d, uninterrupted %d", gotSamples, wantSamples)
	}
	if !reflect.DeepEqual(gotDets, wantDets) {
		t.Errorf("detections: resumed %+v, uninterrupted %+v", gotDets, wantDets)
	}
}
