// Multi-source ingest golden and chaos tests: the supervised scheduler
// feeding the service must reproduce the batch study exactly under
// merge-replay, keep healthy sources unaffected by a faulty neighbour,
// and survive a checkpoint/resume cycle over several active inputs
// with overlapping re-sends and zero double-counted samples.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ingest"
	"dnsamp/internal/pcap"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
)

// splitWire writes recs round-robin across n datagram logs — each file
// time-sorted, all attributed to the same sFlow agent, so the global
// order is only recoverable by merging on capture timestamps — and
// returns the replay specs, per-file entry counts, and the total.
func splitWire(t *testing.T, dir string, recs []ecosystem.TaggedRecord, n int) ([]ingest.Spec, []int, int) {
	return splitWireAs(t, dir, recs, n, ingest.KindReplay)
}

// splitWireAs is splitWire writing each part as an input of kind reads
// it: a datagram log for replay:, a classic pcap for pcap:.
func splitWireAs(t *testing.T, dir string, recs []ecosystem.TaggedRecord, n int, kind ingest.Kind) ([]ingest.Spec, []int, int) {
	t.Helper()
	specs := make([]ingest.Spec, n)
	counts := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		var part []ecosystem.TaggedRecord
		for j := i; j < len(recs); j += n {
			part = append(part, recs[j])
		}
		path := filepath.Join(dir, fmt.Sprintf("part%d.sflowlog", i))
		if kind == ingest.KindPCAP {
			path = filepath.Join(dir, fmt.Sprintf("part%d.pcap", i))
		}
		raw := wireAs(t, part, kind)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		counts[i] = countEntries(t, path)
		total += counts[i]
		sp, err := ingest.ParseSpec(string(kind) + ":" + path)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = sp
	}
	return specs, counts, total
}

// wireAs encodes recs as the capture an input of kind reads.
func wireAs(t *testing.T, recs []ecosystem.TaggedRecord, kind ingest.Kind) []byte {
	t.Helper()
	var buf bytes.Buffer
	if kind == ingest.KindReplay {
		encodeWire(t, &buf, recs)
		return buf.Bytes()
	}
	pw, err := pcap.NewWriter(&buf, sflow.DefaultSnaplen)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range recs {
		if err := pw.WritePacket(tr.Rec.Time, 0, tr.Rec.FrameLen, tr.Rec.Frame); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// countEntries re-reads a finished capture — a pcap when the path says
// so, a datagram log otherwise — and counts its datagram entries.
func countEntries(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rd sflow.EntryReader
	if strings.HasSuffix(path, ".pcap") {
		rd, err = sflow.NewPCAPReader(f, [4]byte{})
	} else {
		rd, err = sflow.NewLogReader(f)
	}
	if err != nil {
		t.Fatal(err)
	}
	var dg sflow.Datagram
	n := 0
	for {
		if _, err := rd.NextInto(&dg); err != nil {
			if err == io.EOF {
				return n
			}
			t.Fatalf("counting %s: entry %d: %v", path, n, err)
		}
		n++
	}
}

// frames reports the capture point's processed-record count: every
// sample drained into the window increments it exactly once, in any
// arrival order and regardless of timestamps — the double-counting
// meter the resume tests assert on.
func frames(svc *Service) int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.win.cp.Stats.Frames
}

// consumeCursor reads one source row's consumed datagram-seq cursor.
func consumeCursor(svc *Service, sid string, agent [4]byte, sub uint32) uint32 {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	svc.smu.Lock()
	defer svc.smu.Unlock()
	src := svc.sources[sourceKey{src: sid, agent: agent, subAgent: sub}]
	if src == nil {
		return 0
	}
	return src.cursor
}

func inputByID(stats []ingest.SupervisorStats, id string) *ingest.SupervisorStats {
	for i := range stats {
		if stats[i].ID == id {
			return &stats[i]
		}
	}
	return nil
}

func inputState(svc *Service, id string) string {
	if st := inputByID(svc.InputsSnapshot(), id); st != nil {
		return st.State
	}
	return ""
}

func allInputsDone(svc *Service, ids ...string) bool {
	for _, id := range ids {
		if inputState(svc, id) != "done" {
			return false
		}
	}
	return true
}

// assertInputConservation checks the per-source accounting identity every
// supervisor maintains: nothing read from an input vanishes untracked.
func assertInputConservation(t *testing.T, st *ingest.SupervisorStats) {
	t.Helper()
	if st.Received != st.ParseErrors+st.Panics+st.Emitted {
		t.Errorf("input %s: received %d != parseErrors %d + panics %d + emitted %d",
			st.ID, st.Received, st.ParseErrors, st.Panics, st.Emitted)
	}
}

// TestMultiSourceMergeGolden is the tentpole acceptance test: a 5-day
// recording split round-robin across three replay sources, merged back
// by the arrival-time policy, must produce detections byte-identical
// to the batch study over the unsplit recording — the merge must
// reconstruct the global arrival order exactly, across sources that
// all carry the same sFlow agent. The pcap: leg splits the recording
// into three captures, and its batch study reads the unsplit capture
// through IngestPCAP: live and batch read pcap bytes the same way.
func TestMultiSourceMergeGolden(t *testing.T) {
	const days, listN = 5, 29
	recs := wireRecs(t, days)
	for _, leg := range []struct {
		kind  ingest.Kind
		agent func(string) bool // every collector row's agent: the recorded one, or a synthesized one
	}{
		{ingest.KindReplay, func(a string) bool { return a == "192.0.2.1" }},
		{ingest.KindPCAP, func(a string) bool { return strings.HasPrefix(a, "198.18.") }},
	} {
		t.Run(string(leg.kind), func(t *testing.T) {
			want := batchReference(t, wireLog(t, days).Bytes(), listN)
			if leg.kind == ingest.KindPCAP {
				rep := source.NewReplay(nil)
				if _, err := rep.IngestPCAP(bytes.NewReader(wireAs(t, recs, leg.kind))); err != nil {
					t.Fatalf("IngestPCAP: %v", err)
				}
				want = replayReference(t, rep, listN)
			}
			dir := t.TempDir()
			specs, _, total := splitWireAs(t, dir, recs, 3, leg.kind)
			svc := startService(t, Config{
				Inputs: specs,
				Policy: ingest.PolicyArrival,
				Window: WindowConfig{Days: 2, ListSize: listN, Refresh: simclock.Hour},
			})

			ids := []string{specs[0].ID, specs[1].ID, specs[2].ID}
			waitUntil(t, "split replay consumed", func() bool {
				return svc.Consumed() == uint64(total) && allInputsDone(svc, ids...)
			})
			if drops := svc.QueueDrops(); drops != 0 {
				t.Fatalf("durable ingest shed %d datagrams", drops)
			}

			// Control surface: three supervisor rows all done and conserving,
			// three collector rows scoped by input, per-input metric
			// families present.
			var payload SourcesPayload
			if err := json.Unmarshal(getBody(t, svc, "/sources"), &payload); err != nil {
				t.Fatalf("/sources: %v", err)
			}
			if len(payload.Inputs) != 3 {
				t.Fatalf("/sources inputs = %+v, want 3", payload.Inputs)
			}
			for i := range payload.Inputs {
				st := &payload.Inputs[i]
				if st.State != "done" || st.Emitted == 0 {
					t.Errorf("input %s = %+v, want done with emits", st.ID, st)
				}
				assertInputConservation(t, st)
			}
			if len(payload.Collectors) != 3 {
				t.Fatalf("/sources collectors = %+v, want one row per input", payload.Collectors)
			}
			for _, row := range payload.Collectors {
				if !leg.agent(row.Agent) || row.Input == "" {
					t.Errorf("collector row = %+v, want the %s input's agent, scoped by input", row, leg.kind)
				}
			}
			metricsText := string(getBody(t, svc, "/metrics"))
			// Three replay: inputs carry the same recorded agent: every
			// series must still be unique, or a Prometheus scraper rejects
			// the whole page.
			series := make(map[string]bool)
			for _, line := range strings.Split(metricsText, "\n") {
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				name := line[:strings.LastIndexByte(line, ' ')]
				if series[name] {
					t.Errorf("/metrics repeats series %s", name)
				}
				series[name] = true
			}
			for _, family := range []string{"ixpmon_input_state", "ixpmon_input_emitted_total", "ixpmon_input_restarts_total"} {
				if !strings.Contains(metricsText, "# TYPE "+family+" ") {
					t.Errorf("/metrics missing family %s", family)
				}
			}
			if !strings.Contains(metricsText, fmt.Sprintf(`ixpmon_input_state{input=%q} 4`, specs[0].ID)) {
				t.Errorf("/metrics missing done-state sample for %s:\n%.800s", specs[0].ID, metricsText)
			}

			shutdownSvc(t, svc)
			got, _ := finalState(svc)
			if len(got) != len(want) {
				t.Fatalf("detections: merged %d, batch %d\nmerged: %+v\nbatch: %+v", len(got), len(want), got, want)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("detection %d: merged %+v, batch %+v", i, *got[i], *want[i])
				}
			}
		})
	}
}

// blockingReader wedges every Read until the test releases it — the
// stalled-source fault.
type blockingReader struct{ release chan struct{} }

func (b blockingReader) Read([]byte) (int, error) {
	<-b.release
	return 0, io.EOF
}

// isolationTuning makes supervision decisions fast enough to observe:
// millisecond backoff, a 60 ms stall deadline, quarantine after 3
// fruitless restarts.
var isolationTuning = ingest.Tuning{
	BackoffMin:  time.Millisecond,
	BackoffMax:  5 * time.Millisecond,
	StallAfter:  60 * time.Millisecond,
	MaxRestarts: 3,
}

// assertIsolated checks the invariants every fault leg shares: both
// healthy sources drained completely and conserve their accounting,
// nothing was shed, and the service reports healthy throughout.
func assertIsolated(t *testing.T, svc *Service, good []ingest.Spec, counts []int, total int) {
	t.Helper()
	waitUntil(t, "healthy sources drained", func() bool {
		return svc.Consumed() >= uint64(total) && allInputsDone(svc, good[0].ID, good[1].ID)
	})
	snap := svc.InputsSnapshot()
	for i, sp := range good {
		st := inputByID(snap, sp.ID)
		if st == nil {
			t.Fatalf("input %s missing from snapshot %+v", sp.ID, snap)
		}
		if st.Emitted != uint64(counts[i]) || st.ParseErrors != 0 || st.Restarts != 0 {
			t.Errorf("healthy input %s disturbed: %+v, want %d clean emits", sp.ID, st, counts[i])
		}
		assertInputConservation(t, st)
	}
	if drops := svc.QueueDrops(); drops != 0 {
		t.Errorf("isolation run shed %d datagrams", drops)
	}
	if body := getBody(t, svc, "/healthz"); string(body) != "ok\n" {
		t.Errorf("/healthz = %q with one faulty source; isolation must keep the service healthy", body)
	}
}

// TestMultiSourceIsolation: one faulty source per leg — unrecoverable
// framing corruption, a wedged read, per-datagram delivery panics —
// must end up quarantined (or drained, for contained panics) while the
// two healthy sources are completely unaffected.
func TestMultiSourceIsolation(t *testing.T) {
	recs := wireRecs(t, 2)

	t.Run("corrupt-framing", func(t *testing.T) {
		dir := t.TempDir()
		good, counts, total := splitWire(t, dir, recs, 2)
		// Valid log header, then framing garbage: no resync point exists,
		// so every restart re-reads the same poison and fails again.
		badPath := filepath.Join(dir, "bad.sflowlog")
		var bad bytes.Buffer
		encodeWire(t, &bad, nil)
		if err := os.WriteFile(badPath, append(bad.Bytes(), bytes.Repeat([]byte{0xff}, 64)...), 0o644); err != nil {
			t.Fatal(err)
		}
		badSpec, err := ingest.ParseSpec("replay:" + badPath)
		if err != nil {
			t.Fatal(err)
		}
		svc := startService(t, Config{
			Inputs:       append(good[:2:2], badSpec),
			IngestTuning: isolationTuning,
			Window:       WindowConfig{Days: 2},
		})
		waitUntil(t, "corrupt source quarantined", func() bool {
			return inputState(svc, badSpec.ID) == "quarantined"
		})
		assertIsolated(t, svc, good, counts, total)

		st := inputByID(svc.InputsSnapshot(), badSpec.ID)
		if st.QuarantineReason == "" || st.Restarts < uint64(isolationTuning.MaxRestarts) {
			t.Errorf("quarantined input = %+v, want a reason after %d restarts", st, isolationTuning.MaxRestarts)
		}
		if !strings.Contains(string(getBody(t, svc, "/metrics")),
			fmt.Sprintf(`ixpmon_input_state{input=%q} 3`, badSpec.ID)) {
			t.Errorf("/metrics missing quarantined state for %s", badSpec.ID)
		}
	})

	t.Run("stall", func(t *testing.T) {
		dir := t.TempDir()
		good, counts, total := splitWire(t, dir, recs, 2)
		// A structurally fine log whose reads never return: only the
		// watchdog can notice this one.
		badPath := filepath.Join(dir, "wedged.sflowlog")
		var bad bytes.Buffer
		encodeWire(t, &bad, recs[:32])
		if err := os.WriteFile(badPath, bad.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		badSpec, err := ingest.ParseSpec("replay:" + badPath)
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		t.Cleanup(func() { close(release) })
		svc := startService(t, Config{
			Inputs:       append(good[:2:2], badSpec),
			IngestTuning: isolationTuning,
			Window:       WindowConfig{Days: 2},
			WrapReader: func(id string, r io.Reader) io.Reader {
				if id == badSpec.ID {
					return blockingReader{release}
				}
				return r
			},
		})
		waitUntil(t, "wedged source quarantined", func() bool {
			return inputState(svc, badSpec.ID) == "quarantined"
		})
		assertIsolated(t, svc, good, counts, total)

		st := inputByID(svc.InputsSnapshot(), badSpec.ID)
		if st.Stalls == 0 || st.Emitted != 0 || st.QuarantineReason == "" {
			t.Errorf("wedged input = %+v, want watchdog stalls and no emits", st)
		}
	})

	t.Run("delivery-panic", func(t *testing.T) {
		dir := t.TempDir()
		good, counts, total := splitWire(t, dir, recs, 2)
		badPath := filepath.Join(dir, "panicky.sflowlog")
		f, err := os.Create(badPath)
		if err != nil {
			t.Fatal(err)
		}
		encodeWire(t, f, recs[:300])
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		badEntries := countEntries(t, badPath)
		badSpec, err := ingest.ParseSpec("replay:" + badPath)
		if err != nil {
			t.Fatal(err)
		}
		stateDir := filepath.Join(dir, "state")
		svc := startService(t, Config{
			Inputs:          append(good[:2:2], badSpec),
			IngestTuning:    isolationTuning,
			Window:          WindowConfig{Days: 2},
			StateDir:        stateDir,
			CheckpointEvery: -1,
			IngestFaultPanic: func(id string, dg *sflow.Datagram) bool {
				return id == badSpec.ID
			},
		})
		waitUntil(t, "panicking source drained", func() bool {
			return inputState(svc, badSpec.ID) == "done"
		})
		assertIsolated(t, svc, good, counts, total)

		// Containment, not death: every delivery panicked, every datagram
		// was quarantined to a source-named poison file, and the source
		// still ran its input to completion.
		st := inputByID(svc.InputsSnapshot(), badSpec.ID)
		if st.Panics != uint64(badEntries) || st.Emitted != 0 {
			t.Errorf("panicking input = %+v, want %d contained panics and no emits", st, badEntries)
		}
		// The panics are the input's, counted once: not as consumer
		// panics, and as the one fate of their datagrams.
		if got := svc.Panics(); got != 0 {
			t.Errorf("consumer panics = %d, want 0: the %d delivery panics are the input's", got, badEntries)
		}
		waitDrained(t, svc)
		if a := svc.Accounting(); a.InputPanics != uint64(badEntries) {
			t.Errorf("accounting %+v, want %d input panics", a, badEntries)
		}
		poisons, _ := filepath.Glob(filepath.Join(stateDir, "poison-replay_*.sflow"))
		if len(poisons) != badEntries {
			t.Errorf("poison files = %d, want %d source-scoped files", len(poisons), badEntries)
		}
		// Each names the stage that panicked: delivery, not the consumer.
		for _, p := range poisons {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(raw, []byte("# input delivery panic: ")) {
				t.Errorf("%s opens %.40q, want # input delivery panic: …", filepath.Base(p), raw)
			}
		}
	})
}

// sendSeq sends one single-sample datagram and waits until the
// consumer has drained it (verified through the row's consume cursor),
// making lossy-transport sends deterministic. It sends again only while
// the service has read nothing for a tenth of a second: a second copy
// of a datagram that is merely slow to be consumed on a loaded host is
// a genuine duplicate, and would be counted as one. No other input may
// be delivering meanwhile.
func sendSeq(t *testing.T, svc *Service, conn net.Conn, sid string, agent [4]byte, seq uint32) {
	t.Helper()
	dg := sflow.EncodeDatagram(&sflow.Datagram{
		Agent: agent, Seq: seq,
		Samples: []sflow.FlowSample{{Seq: seq, Rate: 2048, FrameLen: 64, Header: []byte{9, 9, byte(seq >> 8), byte(seq)}}},
	})
	before := svc.Received()
	var sent time.Time
	waitUntil(t, fmt.Sprintf("datagram %d consumed", seq), func() bool {
		if consumeCursor(svc, sid, agent, 0) >= seq {
			return true
		}
		if svc.Received() == before && time.Since(sent) > 100*time.Millisecond {
			conn.Write(dg) //nolint:errcheck // sent again if it never arrives
			sent = time.Now()
		}
		return false
	})
}

// appendEntries appends hand-encoded one-sample entries to a datagram
// log, bypassing LogWriter: an appender must not re-emit the file
// header, and the tests control datagram sequence numbers directly (a
// rotated real-world writer keeps counting where a fresh LogWriter
// would restart).
func appendEntries(t *testing.T, path string, agent [4]byte, firstSeq uint32, start simclock.Time, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		seq := firstSeq + uint32(i)
		body := sflow.EncodeDatagram(&sflow.Datagram{
			Agent: agent, Seq: seq,
			Samples: []sflow.FlowSample{{Seq: seq, Rate: sflow.DefaultRate, FrameLen: 64, Header: []byte{0xde, 0xad, byte(seq >> 8), byte(seq)}}},
		})
		var hdr [12]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(start.Add(simclock.Duration(i))))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(body)))
		if _, err := f.Write(append(hdr[:], body...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiSourceResumeRoundTrip: a checkpointed service over three
// active inputs — two replay files and a UDP listener — is restarted;
// the replay files have grown and the UDP sender re-sends its entire
// overlapping window. The resumed service must consume exactly the new
// data: restored per-input cursors skip everything the replay files
// already delivered, and the sequence barrier skips every re-sent UDP
// datagram, with not one sample double-counted.
func TestMultiSourceResumeRoundTrip(t *testing.T) {
	recs := wireRecs(t, 2)
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	replays, _, total := splitWire(t, dir, recs, 2)
	udpSpec, err := ingest.ParseSpec("udp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inputs := append(replays[:2:2], udpSpec)
	cfg := func(resume bool) Config {
		return Config{
			Inputs: inputs, Window: WindowConfig{Days: 2},
			StateDir: stateDir, CheckpointEvery: -1, Resume: resume,
		}
	}
	agent := [4]byte{203, 0, 113, 5}
	dialInput := func(svc *Service) net.Conn { return dialService(t, svc) }

	// Run 1: drain both replay files, take 30 UDP datagrams, shut down
	// (the shutdown checkpoint carries all three inputs' cursors).
	svc1 := startService(t, cfg(false))
	waitUntil(t, "replays drained", func() bool {
		return svc1.Consumed() >= uint64(total) && allInputsDone(svc1, replays[0].ID, replays[1].ID)
	})
	conn := dialInput(svc1)
	for seq := uint32(1); seq <= 30; seq++ {
		sendSeq(t, svc1, conn, udpSpec.ID, agent, seq)
	}
	shutdownSvc(t, svc1)
	for _, sp := range replays {
		if c := svc1.InputCursor(sp.ID); c <= 0 {
			t.Fatalf("input %s cursor = %d after drain, want positive", sp.ID, c)
		}
	}

	// The inputs move on while the service is down: each replay file
	// grows by 10 entries (sequence numbers far above the old ones —
	// cursor resume, not sequence matching, must place the read).
	grown := simclock.MeasurementStart.Add(simclock.Days(2))
	for _, sp := range replays {
		appendEntries(t, sp.Path, [4]byte{192, 0, 2, 1}, 1000, grown, 10)
	}

	// Run 2: resume. The replays must deliver exactly the 10 appended
	// entries each; the re-sent UDP window 1..30 must be skipped by the
	// restored barrier; 20 genuinely new datagrams follow.
	svc2 := startService(t, cfg(true))
	if svc2.ResumedFrom() == "" {
		t.Fatal("run 2 did not resume from a checkpoint")
	}
	waitUntil(t, "appended entries consumed", func() bool {
		return allInputsDone(svc2, replays[0].ID, replays[1].ID) && frames(svc2) >= len(recs)+30+20
	})
	conn2 := dialInput(svc2)
	for seq := uint32(1); seq <= 30; seq++ {
		if _, err := conn2.Write(sflow.EncodeDatagram(&sflow.Datagram{
			Agent: agent, Seq: seq,
			Samples: []sflow.FlowSample{{Seq: seq, Rate: 2048, FrameLen: 64, Header: []byte{9, 9, 0, byte(seq)}}},
		})); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "overlap skipped", func() bool { return svc2.ReplaySkipped() >= 30 })
	for seq := uint32(31); seq <= 50; seq++ {
		sendSeq(t, svc2, conn2, udpSpec.ID, agent, seq)
	}
	shutdownSvc(t, svc2)

	// Exactly-once, across the whole round trip: every generated record,
	// every appended entry, every distinct UDP datagram — once.
	wantFrames := len(recs) + 2*10 + 50
	if got := frames(svc2); got != wantFrames {
		t.Errorf("samples processed = %d, want exactly %d (double-counting or loss)", got, wantFrames)
	}
	if skipped := svc2.ReplaySkipped(); skipped != 30 {
		t.Errorf("replay barrier skipped %d datagrams, want the 30 re-sent", skipped)
	}
	if drops := svc2.QueueDrops(); drops != 0 {
		t.Errorf("resume run shed %d datagrams", drops)
	}
	for _, sp := range replays {
		fi, err := os.Stat(sp.Path)
		if err != nil {
			t.Fatal(err)
		}
		if c := svc2.InputCursor(sp.ID); c != fi.Size() {
			t.Errorf("input %s cursor = %d, want full file %d", sp.ID, c, fi.Size())
		}
	}
}

// TestTailRotateCheckpointResume: a sole tail: input (what -tail
// configures) survives log rotation concurrent with checkpointing. After a rotation the
// consumed offset must track the new file's (smaller) offset space —
// not keep the dead file's larger one — so a resume seeks the right
// place; and entries appended after the restart are consumed even when
// the rotated writer's sequence numbers dipped below the consumed
// sequence cursor.
func TestTailRotateCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wire.sflowlog")
	stateDir := filepath.Join(dir, "state")
	agent := [4]byte{198, 51, 100, 7}
	start := simclock.MeasurementStart

	writeLog := func(path string, firstSeq uint32, at simclock.Time, n int) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [12]byte
		copy(hdr[:8], []byte("sFlowLog"))
		binary.LittleEndian.PutUint32(hdr[8:], 1)
		if _, err := f.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		appendEntries(t, path, agent, firstSeq, at, n)
	}

	writeLog(logPath, 1, start, 40)
	svcCfg := func(resume bool) Config {
		return Config{
			Inputs: tailInput(t, logPath), Window: WindowConfig{Days: 2},
			StateDir: stateDir, CheckpointEvery: 25 * time.Millisecond, Resume: resume,
		}
	}
	tailID := "tail:" + logPath
	svc1 := startService(t, svcCfg(false))
	waitUntil(t, "initial file consumed", func() bool { return svc1.Consumed() == 40 })

	// Rotate mid-run, with the checkpointer racing the reopen: a fresh
	// 30-entry file replaces the path atomically. The rotated writer
	// restarts its sequence numbers at 1, as a new LogWriter would.
	tmp := logPath + ".next"
	writeLog(tmp, 1, start.Add(40), 30)
	if err := os.Rename(tmp, logPath); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "rotated file consumed", func() bool {
		return svc1.Consumed() == 70 && svc1.InputsSnapshot()[0].Epoch == 1
	})
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if off := svc1.InputCursor(tailID); off != fi.Size() {
		t.Fatalf("tail offset after rotation = %d, want the new file's %d (stale pre-rotation cursor)", off, fi.Size())
	}
	shutdownSvc(t, svc1)

	// The log grows while the service is down, continuing the rotated
	// writer's count: sequences 31..50, the first ten at or below the
	// consumed sequence cursor (40). A durable input resumes by byte
	// offset; none of these may be mistaken for replayed duplicates.
	appendEntries(t, logPath, agent, 31, start.Add(70), 20)

	svc2 := startService(t, svcCfg(true))
	if svc2.ResumedFrom() == "" {
		t.Fatal("tail service did not resume from a checkpoint")
	}
	waitUntil(t, "appended entries consumed", func() bool { return svc2.Consumed() == 90 })
	if skipped := svc2.ReplaySkipped(); skipped != 0 {
		t.Errorf("resume skipped %d appended entries as replays; tail resume is offset-exact", skipped)
	}
	fi, err = os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "tail offset at end of file", func() bool { return svc2.InputCursor(tailID) == fi.Size() })
	shutdownSvc(t, svc2)
	if got := frames(svc2); got != 90 {
		t.Errorf("samples processed = %d, want exactly 90 across rotation and resume", got)
	}
}
