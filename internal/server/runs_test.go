// Tests that force runs longer than one datagram. The other service
// tests pace their senders on Consumed(), so their drains are one
// datagram long; these hold the consumer back (the gate, or a hook that
// slows it) until whole runs are waiting, and check what must not
// depend on where a run or a drain happens to end.
package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsamp/internal/ingest"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// startGated starts a service whose consumer waits at the gate with the
// first datagram in hand. The returned function opens the gate (once);
// cleanup opens it too, so a failed wait cannot hang the shutdown.
func startGated(t *testing.T, svc *Service) (open func()) {
	t.Helper()
	svc.gate = make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(svc.gate) }) }
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		open()
		shutdownSvc(t, svc)
	})
	return open
}

// observeDrains reports how many drains the consumer has folded in.
func observeDrains(svc *Service) int64 {
	for _, st := range svc.StagesSnapshot() {
		if st.Stage == "observe" {
			return st.Count
		}
	}
	return 0
}

// TestConsumerPanicMidDrain: five datagrams wait behind the gate and the
// middle one panics the consumer. One drain must take all five: the
// neighbours on both sides are consumed, the poisoned one is counted,
// quarantined once and moves no cursor, and the window ends as if the
// poisoned datagram had never been sent.
func TestConsumerPanicMidDrain(t *testing.T) {
	dgs := logDatagrams(t, wireLog(t, 1).Bytes())[:5]
	const poisonSeq = 3 // LogWriter numbers its datagrams from 1
	agent := [4]byte{192, 0, 2, 1}

	// run feeds send to a gated service in one drain and returns it with
	// the window's sample and client-day counts.
	run := func(t *testing.T, dir string, send [][]byte) (svc *Service, samples, clientDays int) {
		svc = NewService(Config{
			Inputs: udpInput(t), TimeFromUptime: true,
			Window:   WindowConfig{Days: 2},
			StateDir: dir, CheckpointEvery: -1,
		})
		svc.faultPanic = func(dg *sflow.Datagram) bool { return dg.Seq == poisonSeq }
		open := startGated(t, svc)
		conn := dialService(t, svc)
		for i, b := range send {
			if _, err := conn.Write(b); err != nil {
				t.Fatalf("sending datagram %d: %v", i, err)
			}
		}
		waitUntil(t, "every datagram queued behind the gate", func() bool { return accounted(svc) == uint64(len(send)) })
		open()
		// The drain's stage timing is recorded after its datagrams are
		// published as consumed.
		waitUntil(t, "the drain consumed", func() bool {
			return svc.Consumed() == uint64(len(send)) && observeDrains(svc) > 0
		})
		if got := observeDrains(svc); got != 1 {
			t.Fatalf("%d datagrams behind the gate took %d drains, want 1", len(send), got)
		}
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc, svc.win.agg.Samples, svc.win.Stats().ClientDays
	}

	dir := t.TempDir()
	svc, samples, clientDays := run(t, dir, dgs)
	if got := svc.Panics(); got != 1 {
		t.Errorf("panics isolated = %d, want 1", got)
	}
	if got := consumeCursor(svc, svc.cfg.Inputs[0].ID, agent, 0); got != 5 {
		t.Errorf("sequence cursor = %d, want 5: the last good datagram of the drain", got)
	}
	poisons, _ := filepath.Glob(filepath.Join(dir, "poison-*.sflow"))
	if len(poisons) != 1 {
		t.Fatalf("poison files = %v, want exactly 1", poisons)
	}
	raw, err := os.ReadFile(poisons[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("/0 seq %d\n", poisonSeq); !bytes.Contains(raw, []byte(want)) {
		t.Errorf("poison file does not name seq %d:\n%.200s", poisonSeq, raw)
	}

	clean := append(append([][]byte(nil), dgs[:poisonSeq-1]...), dgs[poisonSeq:]...)
	ref, wantSamples, wantClientDays := run(t, t.TempDir(), clean)
	if ref.Panics() != 0 {
		t.Fatalf("the reference run panicked %d times", ref.Panics())
	}
	if wantSamples == 0 {
		t.Fatal("the reference window holds no samples; the comparison would be vacuous")
	}
	if samples != wantSamples || clientDays != wantClientDays {
		t.Errorf("window after a poisoned drain: %d samples, %d client-days; the stream without the poisoned datagram gives %d and %d",
			samples, clientDays, wantSamples, wantClientDays)
	}
}

// floodUntil sends bursts of one-sample datagrams from eight collectors
// — one alone stops at its share, a quarter of the queue, and never
// reaches the global tiers — into a service whose consumer is held,
// until the filling queue has pushed it as far into the shedding tiers
// as reached asks. It returns with every datagram sent accounted to its
// row.
func floodUntil(t *testing.T, svc *Service, conn *net.UDPConn, reached func() bool) {
	t.Helper()
	accounted0, sent := accounted(svc), uint64(0)
	for !reached() {
		if sent > 4*uint64(svc.cfg.QueueLen) {
			t.Fatalf("%d datagrams into a held %d-deep queue and still %v, %d sampled out, %d shed",
				sent, svc.cfg.QueueLen, svc.Health(), svc.SampledOut(), svc.ShedAll())
		}
		for i := 0; i < 64; i++ {
			sent++
			dg := sflow.EncodeDatagram(&sflow.Datagram{
				Agent: [4]byte{10, 0, 0, byte(sent % 8)}, Seq: uint32(sent / 8),
				Samples: []sflow.FlowSample{{Seq: uint32(sent), Rate: 2048, FrameLen: 64, Header: []byte{1, 2, 3, 4}}},
			})
			if _, err := conn.Write(dg); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, "burst accounted", func() bool { return accounted(svc) == accounted0+sent })
	}
}

// waitDrained waits until every datagram received has met its fate:
// the quiesce point at which nothing is in flight. A datagram lost or
// counted twice keeps InFlight off 0, and the wait times out.
func waitDrained(t *testing.T, svc *Service) {
	t.Helper()
	waitUntil(t, "backlog drained", func() bool { return svc.Accounting().InFlight == 0 })
}

// TestHealthRecoversFromDrainAlone: a default-size queue flooded into
// the shedding tiers behind a held consumer drains in a handful of long
// drains once the gate opens. With no datagram arriving afterwards, the
// drains alone must count out the recovery hold and return the service
// to ok.
func TestHealthRecoversFromDrainAlone(t *testing.T) {
	svc := NewService(Config{Inputs: udpInput(t), Window: WindowConfig{Days: 2}})
	open := startGated(t, svc)
	floodUntil(t, svc, dialService(t, svc), func() bool { return svc.Health() == HealthDegraded })

	open()
	waitUntil(t, "health back at ok on the drains alone", func() bool { return svc.Health() == HealthOK })
	waitDrained(t, svc)
	if drains, consumed := observeDrains(svc), svc.Consumed(); drains*8 > int64(consumed) {
		t.Errorf("%d datagrams took %d drains; the backlog did not drain in runs", consumed, drains)
	}
}

// entryOffsets returns the log offset just past each entry of a
// datagram log and the number of flow samples up to and including it.
func entryOffsets(t *testing.T, path string) (offs []int64, samples []int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lr, err := sflow.NewLogReader(f)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, dg, err := lr.NextEntry()
		if err == io.EOF {
			return offs, samples
		}
		if err != nil {
			t.Fatal(err)
		}
		n += len(dg.Samples)
		offs, samples = append(offs, lr.Offset()), append(samples, n)
	}
}

// slowFrom makes the consumer take its time over every datagram from
// the at-th on, until release is set, and closes the returned channel
// when it gets there. It rides the fault hook, which runs under s.mu.
func slowFrom(svc *Service, at int, release *atomic.Bool) <-chan struct{} {
	reached := make(chan struct{})
	n := 0 // consumer goroutine only
	svc.faultPanic = func(*sflow.Datagram) bool {
		if n++; n == at {
			close(reached)
		}
		if n >= at && !release.Load() {
			time.Sleep(20 * time.Microsecond)
		}
		return false
	}
	return reached
}

// TestCheckpointMidStreamIsWholeDrains: a checkpoint taken while the
// consumer is in the middle of a replay holds whole drains only — its
// consumed count, its input cursor and its window describe the same
// prefix of the log — and a service resumed from it finishes with the
// detections and sample count of the uninterrupted run: exactly once
// across a drain boundary.
func TestCheckpointMidStreamIsWholeDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.sflowlog")
	if err := os.WriteFile(path, wireLog(t, 3).Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	offs, samplesThrough := entryOffsets(t, path)
	total := len(offs)
	in := mustSpec(t, "replay:"+path)
	cfg := Config{
		Inputs:   []ingest.Spec{in},
		Window:   WindowConfig{Days: 2, ListSize: 29, Refresh: simclock.Hour},
		StateDir: t.TempDir(), CheckpointEvery: -1,
	}

	// The uninterrupted run, checkpointed a third of the way in. The
	// consumer is slowed from there until the checkpoint is written, so
	// the stream cannot end first.
	svc1 := NewService(cfg)
	var taken atomic.Bool
	reached := slowFrom(svc1, total/3, &taken)
	if err := svc1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { shutdownSvc(t, svc1) })
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the consumer to get a third of the way in")
	}
	mid, err := svc1.Checkpoint()
	taken.Store(true)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	raw, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "uninterrupted run drained", func() bool { return svc1.Consumed() == uint64(total) })
	shutdownSvc(t, svc1)
	wantDets, wantSamples := finalState(svc1)
	if len(wantDets) == 0 {
		t.Fatal("the uninterrupted run found no detections; the comparison would be vacuous")
	}

	// The checkpoint is one prefix of the log, three ways.
	probe := NewService(cfg)
	if err := probe.decodeCheckpoint(raw); err != nil {
		t.Fatalf("decoding the mid-stream checkpoint: %v", err)
	}
	k := int(probe.Consumed())
	if k < total/3 || k >= total {
		t.Fatalf("checkpoint holds %d of %d datagrams, want one taken mid-stream from datagram %d on", k, total, total/3)
	}
	if got := probe.inputCursors[in.ID]; got != offs[k-1] {
		t.Errorf("checkpoint consumed %d datagrams but its cursor is %d, want %d, just past the %d-th entry", k, got, offs[k-1], k)
	}
	if got := probe.win.cp.Stats.Frames; got != samplesThrough[k-1] {
		t.Errorf("checkpoint consumed %d datagrams but its window processed %d samples, want the %d they carry", k, got, samplesThrough[k-1])
	}

	// Resume from it alone and finish.
	cfg2 := cfg
	cfg2.StateDir, cfg2.Resume = t.TempDir(), true
	if err := os.WriteFile(filepath.Join(cfg2.StateDir, filepath.Base(mid)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	svc2 := startService(t, cfg2)
	if svc2.ResumedFrom() == "" {
		t.Fatal("the second service loaded no checkpoint")
	}
	waitUntil(t, "resumed run drained", func() bool { return svc2.Consumed() >= uint64(total) })
	shutdownSvc(t, svc2)
	if got := svc2.Consumed(); got != uint64(total) {
		t.Errorf("checkpoint + resume consumed %d datagrams, the log holds %d", got, total)
	}
	if got := frames(svc2); got != samplesThrough[total-1] {
		t.Errorf("checkpoint + resume processed %d samples, the log holds %d", got, samplesThrough[total-1])
	}
	gotDets, gotSamples := finalState(svc2)
	if gotSamples != wantSamples {
		t.Errorf("samples across the checkpoint: resumed %d, uninterrupted %d", gotSamples, wantSamples)
	}
	if !reflect.DeepEqual(gotDets, wantDets) {
		t.Errorf("detections: resumed %+v, uninterrupted %+v", gotDets, wantDets)
	}
}

// TestShutdownMidStreamCursorCoversConsumedOnly: Shutdown in the middle
// of a replay whose consumer keeps up leaves runs parked in the
// scheduler's channel and in the producer's hands. Whatever of them is
// still admitted is consumed; the input cursor of the shutdown
// checkpoint is just past the last consumed entry, not one entry
// further; and a resume consumes exactly the rest.
func TestShutdownMidStreamCursorCoversConsumedOnly(t *testing.T) {
	const entries = 6000
	dir := t.TempDir()
	path := filepath.Join(dir, "in.sflowlog")
	var hdr bytes.Buffer
	encodeWire(t, &hdr, nil) // the file header alone
	if err := os.WriteFile(path, hdr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	appendEntries(t, path, [4]byte{192, 0, 2, 1}, 1, simclock.MeasurementStart, entries)
	offs, _ := entryOffsets(t, path)
	in := mustSpec(t, "replay:"+path)
	cfg := Config{
		Inputs: []ingest.Spec{in}, Window: WindowConfig{Days: 2},
		StateDir: filepath.Join(dir, "state"), CheckpointEvery: -1,
	}

	svc1 := NewService(cfg)
	slowFrom(svc1, 1, new(atomic.Bool)) // the whole run: Shutdown must find it mid-stream
	if err := svc1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitUntil(t, "the replay under way", func() bool { return svc1.Consumed() >= 300 })
	shutdownSvc(t, svc1)
	k := int(svc1.Consumed())
	if k >= entries {
		t.Fatalf("the replay ended before Shutdown (%d of %d consumed); nothing was parked", k, entries)
	}
	if got := svc1.InputCursor(in.ID); got != offs[k-1] {
		t.Errorf("after consuming %d entries the input cursor is %d, want %d, just past the %d-th", k, got, offs[k-1], k)
	}

	cfg.Resume = true
	svc2 := startService(t, cfg)
	waitUntil(t, "resumed replay drained", func() bool { return svc2.Consumed() >= entries })
	shutdownSvc(t, svc2)
	if got, fr := svc2.Consumed(), frames(svc2); got != entries || fr != entries {
		t.Errorf("after resume: %d entries consumed, %d frames processed, want exactly %d of each", got, fr, entries)
	}
}

// TestObserveStageExcludesLockWait: a drain that waits for the window
// lock — behind a checkpoint encode or a scrape — books only the time it
// holds the lock as observe work. The test holds s.mu for 300 ms while
// one datagram waits; the stage's max must stay far below that.
func TestObserveStageExcludesLockWait(t *testing.T) {
	const hold = 300 * time.Millisecond
	svc := NewService(Config{Window: WindowConfig{Days: 2}})
	go svc.consumeLoop()
	defer func() {
		close(svc.queue)
		<-svc.consumerDone
	}()
	ref := ingest.NewWriter().Append(&sflow.Datagram{Agent: [4]byte{192, 0, 2, 1}, Seq: 1,
		Samples: []sflow.FlowSample{{Seq: 1, Rate: sflow.DefaultRate, FrameLen: 64, Header: []byte{1, 2, 3, 4}}}})
	src := &sourceState{key: sourceKey{src: "replay:lock", agent: [4]byte{192, 0, 2, 1}}}

	svc.mu.Lock()
	svc.queue <- item{src: src, ref: ref, at: simclock.MeasurementStart}
	for len(svc.queue) > 0 { // the consumer has it in hand and waits for s.mu
		time.Sleep(time.Millisecond)
	}
	time.Sleep(hold)
	svc.mu.Unlock()
	waitUntil(t, "the drain timed", func() bool { return observeDrains(svc) == 1 })

	for _, st := range svc.StagesSnapshot() {
		if st.Stage == "observe" {
			if st.Count != 1 || st.Max >= hold/2 {
				t.Fatalf("observe: %d drains, max %v; want 1 drain well under the %v lock wait", st.Count, st.Max, hold)
			}
			return
		}
	}
	t.Fatal("no observe stage recorded")
}

// BenchmarkHandoff is the hand-off alone, one iteration per datagram:
// parsed datagrams copied into chunks and admitted in runs of a
// scheduler run's length (admitRun), through the queue, folded into a
// real Window by the real consumer goroutine. The frames are too short to be packets, so
// Process turns every sample away at its first check and what is timed
// is the accounting, the queue, the drain and the cursors — the
// "enqueue" row of the budget in docs/PERFORMANCE.md. ns/op is ns per
// datagram and allocs/op allocations per datagram.
func BenchmarkHandoff(b *testing.B) {
	for _, nSamples := range []int{1, 64} {
		b.Run(fmt.Sprintf("samples=%d", nSamples), func(b *testing.B) {
			svc := NewService(Config{Window: WindowConfig{Days: 2}})
			go svc.consumeLoop()
			samples := make([]sflow.FlowSample, nSamples)
			for i := range samples {
				samples[i] = sflow.FlowSample{Seq: uint32(i), Rate: sflow.DefaultRate, FrameLen: 64, Header: []byte{1, 2, 3, 4}}
			}
			// Each datagram is copied into a chunk as a reader's deliver
			// does, and the consumer's releases recycle the chunks.
			w := ingest.NewWriter()
			dg := &sflow.Datagram{Agent: [4]byte{192, 0, 2, 1}, Samples: samples}
			run := make([]ingest.Item, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for sent := 0; sent < b.N; {
				n := min(len(run), b.N-sent)
				for i := range run[:n] {
					dg.Seq = uint32(sent + 1)
					run[i] = ingest.Item{
						SourceID: "replay:bench", Durable: true,
						Ref: w.Append(dg), At: simclock.MeasurementStart, Cursor: int64(sent + 1),
					}
					sent++
				}
				if !svc.admitRun(run[:n]) {
					b.Fatal("admitRun gave up on a running service")
				}
			}
			for svc.Consumed() < uint64(b.N) {
				time.Sleep(10 * time.Microsecond)
			}
			b.StopTimer()
			close(svc.queue)
			<-svc.consumerDone
		})
	}
}
