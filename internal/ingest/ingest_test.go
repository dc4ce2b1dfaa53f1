package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsamp/internal/pcap"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// specCases are accepted specs with their IDs and kinds; badSpecs are
// refused.
var (
	specCases = []struct {
		in   string
		id   string
		kind Kind
	}{
		{"udp://127.0.0.1:6343", "udp://127.0.0.1:6343", KindUDP},
		{"udp://:0", "udp://:0", KindUDP},
		{"tail:/var/log/sflow.log", "tail:/var/log/sflow.log", KindTail},
		{"replay:rec.sflow", "replay:rec.sflow", KindReplay},
		{"pcap:cap.pcap", "pcap:cap.pcap", KindPCAP},
		{"synthetic", "synthetic:scale=0.05,days=1,seed=11", KindSynthetic},
		{"synthetic:scale=0.1,seed=3", "synthetic:scale=0.1,days=1,seed=3", KindSynthetic},
		{" tail:x ", "tail:x", KindTail},
	}
	badSpecs = []string{
		"", "x", "udp://nope", "tail:", "ftp:whatever",
		"synthetic:scale=-1", "synthetic:bogus=1", "synthetic:days=0",
		"synthetic:scale=NaN", "synthetic:scale=Inf", "synthetic:scale=1e308",
	}
)

func TestParseSpec(t *testing.T) {
	for _, c := range specCases {
		sp, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if sp.ID != c.id || sp.Kind != c.kind {
			t.Errorf("ParseSpec(%q) = {ID:%q Kind:%q}, want {%q %q}", c.in, sp.ID, sp.Kind, c.id, c.kind)
		}
		// The ID must be stable: re-parsing it reproduces itself.
		sp2, err := ParseSpec(sp.ID)
		if err != nil || sp2.ID != sp.ID {
			t.Errorf("ParseSpec(%q) not a fixpoint: %+v, %v", sp.ID, sp2, err)
		}
	}
	for _, bad := range badSpecs {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): expected error", bad)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, and an accepted spec re-parses
// from its ID to an equal Spec — the ID is the key a checkpoint stores
// the input's cursor under, so a resume must find the same input there.
func FuzzParseSpec(f *testing.F) {
	for _, c := range specCases {
		f.Add(c.in)
	}
	for _, bad := range badSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		back, err := ParseSpec(sp.ID)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its ID %q is refused: %v", s, sp.ID, err)
		}
		if back != sp {
			t.Fatalf("ParseSpec(%q) = %+v, but its ID re-parses to %+v", s, sp, back)
		}
	})
}

func TestParseSpecs(t *testing.T) {
	in := "# collectors\nudp://127.0.0.1:6343\n\n  replay:a.sflow\n"
	specs, err := ParseSpecs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Kind != KindUDP || specs[1].Kind != KindReplay {
		t.Fatalf("ParseSpecs = %+v", specs)
	}
	if _, err := ParseSpecs(strings.NewReader("udp://\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("expected line-numbered error, got %v", err)
	}
}

// fakeRunner delivers a fixed ascending item schedule, skipping
// anything at or before the resume cursor, then returns errAfter.
type fakeRunner struct {
	at       []simclock.Time
	errAfter error
}

func (f *fakeRunner) run(t *task, cursor int64) error {
	for i, at := range f.at {
		c := int64(i + 1)
		if c <= cursor {
			continue
		}
		dg := &sflow.Datagram{Agent: [4]byte{203, 0, 113, byte(t.sv.idx)}, Seq: uint32(c)}
		if !t.deliver(dg, at, c, 0) {
			return t.ctx.Err()
		}
	}
	return f.errAfter
}

// tickRunner is a fakeRunner of n items, step apart from start on.
func tickRunner(start, step, n int) *fakeRunner {
	f := &fakeRunner{}
	for i := 0; i < n; i++ {
		f.at = append(f.at, simclock.Time(start+i*step))
	}
	return f
}

// failRunner always fails without delivering anything.
type failRunner struct{ n int }

func (f *failRunner) run(t *task, _ int64) error {
	f.n++
	return fmt.Errorf("boom %d", f.n)
}

// wedgeRunner heartbeats once and then blocks on a channel, ignoring
// cancellation — an uninterruptible read, the watchdog's prey.
type wedgeRunner struct{ release chan struct{} }

func (w *wedgeRunner) run(t *task, _ int64) error {
	t.beat()
	<-w.release
	return errors.New("released")
}

// idleRunner stays healthy forever without ever delivering: a live,
// silent feed.
type idleRunner struct{}

func (idleRunner) run(t *task, _ int64) error {
	for {
		t.beat()
		if !sleepCtx(t.ctx, time.Millisecond) {
			return t.ctx.Err()
		}
	}
}

// fakeSched builds a scheduler over placeholder replay specs and then
// swaps in the given runners (the files are never opened).
func fakeSched(tb testing.TB, cfg Config, runners ...runner) *Scheduler {
	tb.Helper()
	for i := range runners {
		cfg.Specs = append(cfg.Specs, Spec{ID: fmt.Sprintf("replay:fake-%d", i), Kind: KindReplay})
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i, r := range runners {
		s.sups[i].run = r
	}
	tb.Cleanup(s.Stop)
	return s
}

func collectItems(t *testing.T, s *Scheduler, atLeast int, timeout time.Duration) []Item {
	t.Helper()
	var items []Item
	deadline := time.After(timeout)
	for {
		select {
		case it, ok := <-s.Items():
			if !ok {
				return items
			}
			items = append(items, it)
		case <-deadline:
			if len(items) >= atLeast {
				return items
			}
			t.Fatalf("timeout with %d items (want >= %d)", len(items), atLeast)
		}
	}
}

func fastTuning() Tuning {
	return Tuning{BufLen: 256, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		StallAfter: 40 * time.Millisecond, MaxRestarts: 3}
}

// TestArrivalMerge: three time-sorted sources merge into one globally
// time-sorted stream under the arrival policy, regardless of which
// source's goroutine runs first.
func TestArrivalMerge(t *testing.T) {
	// Interleaved, collectively dense, no cross-source ties.
	s := fakeSched(t, Config{Policy: PolicyArrival, Tuning: fastTuning()},
		tickRunner(100, 3, 40), tickRunner(101, 3, 40), tickRunner(102, 3, 40))
	s.Start()
	items := collectItems(t, s, 120, 5*time.Second)
	if len(items) != 120 {
		t.Fatalf("got %d items, want 120", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].At.Before(items[i-1].At) {
			t.Fatalf("out of order at %d: %v after %v (src %s)", i, items[i].At, items[i-1].At, items[i].SourceID)
		}
	}
}

// TestArrivalBoundedWait: a live-but-silent source cannot hold the
// merge hostage — after the bounded wait, buffered datagrams flow.
func TestArrivalBoundedWait(t *testing.T) {
	f := &fakeRunner{at: []simclock.Time{10, 20, 30}}
	s := fakeSched(t, Config{Policy: PolicyArrival, Tuning: fastTuning()}, f, idleRunner{})
	s.Start()
	deadline := time.After(3 * time.Second)
	for got := 0; got < 3; {
		select {
		case _, ok := <-s.Items():
			if !ok {
				t.Fatal("stream closed early")
			}
			got++
		case <-deadline:
			t.Fatalf("merge still held after 3s with %d items released", got)
		}
	}
}

// TestRoundRobinDrainsAll: both sources' items all arrive, per-source
// order preserved.
func TestRoundRobinDrainsAll(t *testing.T) {
	a := &fakeRunner{at: []simclock.Time{1, 2, 3, 4, 5}}
	b := &fakeRunner{at: []simclock.Time{6, 7, 8}}
	s := fakeSched(t, Config{Tuning: fastTuning()}, a, b)
	s.Start()
	items := collectItems(t, s, 8, 5*time.Second)
	var gotA, gotB []int64
	for _, it := range items {
		if it.SourceID == "replay:fake-0" {
			gotA = append(gotA, it.Cursor)
		} else {
			gotB = append(gotB, it.Cursor)
		}
	}
	if !slices.Equal(gotA, []int64{1, 2, 3, 4, 5}) || !slices.Equal(gotB, []int64{1, 2, 3}) {
		t.Fatalf("per-source order broken: a=%v b=%v", gotA, gotB)
	}
}

// TestQuarantineAfterRepeatedFailure: a source that keeps failing
// without progress is parked with a reason; the stream still ends
// cleanly and a healthy neighbour is untouched.
func TestQuarantineAfterRepeatedFailure(t *testing.T) {
	good := &fakeRunner{at: []simclock.Time{1, 2, 3}}
	s := fakeSched(t, Config{Tuning: fastTuning()}, good, &failRunner{})
	s.Start()
	items := collectItems(t, s, 3, 5*time.Second)
	if len(items) != 3 {
		t.Fatalf("healthy source delivered %d items, want 3", len(items))
	}
	snap := s.Snapshot()
	if snap[0].State != "done" {
		t.Errorf("good source state = %s, want done", snap[0].State)
	}
	bad := snap[1]
	if bad.State != "quarantined" {
		t.Fatalf("bad source state = %s, want quarantined (%+v)", bad.State, bad)
	}
	if bad.Restarts < 2 || bad.QuarantineReason == "" || !strings.Contains(bad.QuarantineReason, "boom") {
		t.Errorf("quarantine detail wrong: %+v", bad)
	}
}

// TestStallWatchdog: a wedged source (uninterruptible read, no
// heartbeat) is stall-restarted, abandoned when cancel cannot reach
// it, and finally quarantined — without stopping the scheduler.
func TestStallWatchdog(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	tun := fastTuning()
	tun.MaxRestarts = 2
	s := fakeSched(t, Config{Tuning: tun}, &wedgeRunner{release: release})
	s.Start()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.Snapshot()[0]
		if snap.State == "quarantined" {
			if snap.Stalls < 1 {
				t.Fatalf("no stalls recorded: %+v", snap)
			}
			if !strings.Contains(snap.QuarantineReason, "stalled") {
				t.Fatalf("reason %q does not mention stall", snap.QuarantineReason)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never quarantined: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeliverPanicContainment: a panic while handling one datagram
// costs exactly that datagram — poisoned with its source ID — and the
// source keeps delivering.
func TestDeliverPanicContainment(t *testing.T) {
	var mu sync.Mutex
	var poisoned []string
	f := &fakeRunner{at: []simclock.Time{1, 2, 3, 4}}
	cfg := Config{
		Tuning: fastTuning(),
		FaultPanic: func(id string, dg *sflow.Datagram) bool {
			return dg.Seq == 2
		},
		Poison: func(id string, dg *sflow.Datagram, cause any) {
			mu.Lock()
			poisoned = append(poisoned, fmt.Sprintf("%s#%d", id, dg.Seq))
			mu.Unlock()
		},
	}
	s := fakeSched(t, cfg, f)
	s.Start()
	items := collectItems(t, s, 3, 5*time.Second)
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3 (one poisoned)", len(items))
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(poisoned, []string{"replay:fake-0#2"}) {
		t.Fatalf("poisoned = %v", poisoned)
	}
	snap := s.Snapshot()[0]
	if snap.Panics != 1 || snap.Emitted != 3 {
		t.Fatalf("stats: %+v", snap)
	}
}

// idleAfterRunner delivers cursors 1..n past the resume cursor, then
// stays healthy until finish closes: a source whose stream does not end
// before the test says so. ended receives each run's generation when
// that run returns.
type idleAfterRunner struct {
	n      int
	finish chan struct{}
	ended  chan uint64
}

func (r *idleAfterRunner) run(t *task, cursor int64) error {
	defer func() { r.ended <- t.gen }()
	for c := cursor + 1; c <= int64(r.n); c++ {
		if !t.deliver(&sflow.Datagram{Seq: uint32(c)}, simclock.Time(c), c, 0) {
			return t.ctx.Err()
		}
	}
	for {
		t.beat()
		select {
		case <-r.finish:
			return nil
		case <-t.ctx.Done():
			return t.ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// TestAbandonedRunPushesNothing: a run wedged inside deliver (its
// FaultPanic hook blocks at cursor 3) is stall-cancelled and abandoned,
// and its successor resumes from cursor 2. When the hook lets go, the
// abandoned run must push nothing: every cursor reaches the consumer
// once and in order, and the source's cursor never moves back.
func TestAbandonedRunPushesNothing(t *testing.T) {
	const n = 20
	var wedged atomic.Bool
	release := make(chan struct{})
	r := &idleAfterRunner{n: n, finish: make(chan struct{}), ended: make(chan uint64, 4)}
	s := fakeSched(t, Config{
		Tuning: fastTuning(),
		FaultPanic: func(_ string, dg *sflow.Datagram) bool {
			if dg.Seq == 3 && wedged.CompareAndSwap(false, true) {
				<-release
			}
			return false
		},
	}, r)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	out := s.Items()
	var cursors []int64
	for len(cursors) == 0 || cursors[len(cursors)-1] != n {
		select {
		case it := <-out:
			cursors = append(cursors, it.Cursor)
			it.Release()
		case <-time.After(10 * time.Second):
			t.Fatalf("successor never delivered cursor %d; got %v", n, cursors)
		}
	}
	if st := s.Snapshot()[0]; st.Restarts != 1 || st.Stalls != 1 {
		t.Fatalf("want one stall restart before the successor finished: %+v", st)
	}

	// The successor is idling at end of input; let the wedged run go on
	// and wait for it to return.
	close(release)
	select {
	case gen := <-r.ended:
		if gen != 1 {
			t.Fatalf("run %d ended first, want the abandoned run 1", gen)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abandoned run never returned")
	}
	if c := s.Snapshot()[0].Cursor; c != n {
		t.Errorf("source cursor = %d after the abandoned run returned, want %d", c, n)
	}
	close(r.finish)
	for it := range out {
		cursors = append(cursors, it.Cursor)
		it.Release()
	}
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i + 1)
	}
	if !slices.Equal(cursors, want) {
		t.Errorf("consumed cursors %v, want each of 1..%d once, in order", cursors, n)
	}
}

// writeTestLog writes a datagram log with n one-sample entries at
// 1-second spacing and returns its path.
func writeTestLog(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	lw, err := sflow.NewLogWriter(&buf, [4]byte{198, 51, 100, 7}, sflow.DefaultRate)
	if err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat([]byte{0xab}, 60)
	for i := 0; i < n; i++ {
		rec := sflow.Record{Time: simclock.Time(1000 + i), Frame: frame, FrameLen: 60, Seq: uint64(i + 1)}
		if err := lw.Add(rec, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rec.sflow")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testPCAP writes a capture of seconds×perSecond 60-byte frames,
// perSecond to each arrival second, and returns its bytes and path.
func testPCAP(t *testing.T, seconds, perSecond int) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seconds*perSecond; i++ {
		if err := w.WritePacket(simclock.Time(1000+i/perSecond), 0, 60, bytes.Repeat([]byte{byte(i)}, 60)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "cap.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), path
}

// runSpec drains one source to the end of its stream.
func runSpec(t *testing.T, sp Spec, cursors map[string]int64) ([]Item, SupervisorStats) {
	t.Helper()
	s, err := New(Config{Specs: []Spec{sp}, Tuning: fastTuning(), Cursors: cursors})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.Start()
	items := collectItems(t, s, 0, 5*time.Second)
	return items, s.Snapshot()[0]
}

// takeSpec reads a source's first n datagrams (a tail: input never
// ends) under the default tuning, whose watchdog leaves a synthetic:
// input time to generate a day.
func takeSpec(t *testing.T, sp Spec, cursors map[string]int64, n int) []Item {
	t.Helper()
	s, err := New(Config{Specs: []Spec{sp}, Cursors: cursors})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var items []Item
	for run := make([]Item, 0, RunLen); len(items) < n; {
		if run = s.Next(run[:0:min(RunLen, n-len(items))]); len(run) == 0 {
			break
		}
		items = append(items, run...)
	}
	return items
}

// TestReplayResume: every durable input — tail:, replay:, pcap:,
// synthetic: — restarted from a mid-stream cursor delivers exactly the
// remainder, nothing twice, with the cursors, arrival times and
// datagram sequence numbers of a full run.
func TestReplayResume(t *testing.T) {
	const n = 20
	logPath := writeTestLog(t, n)
	_, pcapPath := testPCAP(t, n, 3)
	for _, row := range []struct {
		spec string
		n    int // datagrams in the stream; 0 for "whatever it holds"
	}{
		{"tail:" + logPath, n},
		{"replay:" + logPath, n},
		{"pcap:" + pcapPath, n},
		{"synthetic:scale=0.02,days=2,seed=3", 0},
	} {
		t.Run(strings.Split(row.spec, ":")[0], func(t *testing.T) {
			sp, err := ParseSpec(row.spec)
			if err != nil {
				t.Fatal(err)
			}
			// A finite input is read to its end; a tail: input never
			// ends, so it is read to its log's last datagram.
			limit := math.MaxInt
			if sp.Kind == KindTail {
				limit = row.n
			}
			full := takeSpec(t, sp, nil, limit)
			if row.n != 0 && len(full) != row.n {
				t.Fatalf("full run: %d datagrams, want %d", len(full), row.n)
			}
			k := len(full) / 3
			if k == 0 {
				t.Fatalf("full run: %d datagrams, too few to resume inside", len(full))
			}
			rest := takeSpec(t, sp, map[string]int64{sp.ID: full[k-1].Cursor}, limit-k)
			if len(rest) != len(full)-k {
				t.Fatalf("resumed run: %d datagrams, want %d", len(rest), len(full)-k)
			}
			for i, it := range rest {
				w := full[k+i]
				if it.At != w.At || it.Cursor != w.Cursor || it.Head().Seq != w.Head().Seq {
					t.Fatalf("entry %d: at %v cursor %d seq %d, want at %v cursor %d seq %d",
						i, it.At, it.Cursor, it.Head().Seq, w.At, w.Cursor, w.Head().Seq)
				}
			}
		})
	}
}

// TestPCAPTruncatedDeliversWhole: a pcap: input over a capture cut
// inside its last record delivers every whole frame — the last
// datagram included — and then fails as a log that ends mid-entry does,
// until it is quarantined.
func TestPCAPTruncatedDeliversWhole(t *testing.T) {
	raw, path := testPCAP(t, 10, 5)
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	items, st := runSpec(t, Spec{ID: "pcap:" + path, Kind: KindPCAP, Path: path}, nil)
	frames := 0
	for _, it := range items {
		frames += int(it.Head().Samples)
	}
	if frames != 49 || items[len(items)-1].Cursor != 49 {
		t.Fatalf("delivered %d frames to cursor %d, want the 49 whole ones", frames, items[len(items)-1].Cursor)
	}
	if st.State != "quarantined" || !strings.Contains(st.LastError, "ends mid-entry") {
		t.Fatalf("input = %+v, want quarantined on an ends-mid-entry error", st)
	}
}

// TestSourceConservation: per-source accounting closes — every datagram
// read is a parse error, a poisoned panic, or an emitted item.
func TestSourceConservation(t *testing.T) {
	path := writeTestLog(t, 10)
	// Corrupt the body of one entry in place: flip bytes well inside
	// the first datagram's payload (past the 12-byte file header and
	// the 12-byte entry header).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 40; i++ {
		raw[i] ^= 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, _ := ParseSpec("replay:" + path)
	s, err := New(Config{Specs: []Spec{sp}, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.Start()
	items := collectItems(t, s, 0, 5*time.Second)
	snap := s.Snapshot()[0]
	if snap.State != "done" {
		t.Fatalf("state = %s, want done (%+v)", snap.State, snap)
	}
	if snap.ParseErrors == 0 {
		t.Fatalf("corruption produced no parse errors: %+v", snap)
	}
	if got := snap.Received; got != snap.ParseErrors+snap.Panics+snap.Emitted {
		t.Fatalf("conservation: received %d != parse %d + panics %d + emitted %d",
			got, snap.ParseErrors, snap.Panics, snap.Emitted)
	}
	if uint64(len(items)) != snap.Emitted {
		t.Fatalf("emitted %d but %d items seen", snap.Emitted, len(items))
	}
}

// TestBacklogPolicy: the deepest buffer drains first, and a tie goes
// to the source configured first.
func TestBacklogPolicy(t *testing.T) {
	a := &fakeRunner{at: []simclock.Time{1}}
	b := &fakeRunner{at: []simclock.Time{2, 3, 4, 5, 6, 7}}
	s := fakeSched(t, Config{Policy: PolicyBacklog, Tuning: fastTuning()}, a, b)
	// Let both runners finish filling their buffers before the first
	// Next so the depth comparison is deterministic.
	for _, sv := range s.sups {
		s.wg.Add(1)
		go sv.supervise()
	}
	waitFor := func(ok func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatal("timeout waiting for buffers")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.sups[0].buf.n == 1 && s.sups[1].buf.n == 6
	})
	s.wg.Add(1)
	go s.watchdog()
	items := s.Next(make([]Item, 0, RunLen))
	if len(items) != 7 {
		t.Fatalf("got %d items, want 7", len(items))
	}
	if items[0].SourceID != "replay:fake-1" {
		t.Fatalf("first item from %s, want the deeper source", items[0].SourceID)
	}
	var got []simclock.Time
	for _, it := range items {
		got = append(got, it.At)
	}
	// b holds 6 against a's 1 until b is down to 1: the tie goes to a.
	if want := []simclock.Time{2, 3, 4, 5, 6, 1, 7}; !slices.Equal(got, want) {
		t.Fatalf("backlog order %v, want %v", got, want)
	}
	if rest := s.Next(items); len(rest) != 0 {
		t.Fatalf("Next after both sources drained returned %d items, want the end of the stream", len(rest))
	}
}

// streamRunner delivers an endless time-ordered stream, one tick every
// step starting at first, until its run is cancelled.
type streamRunner struct{ first, step int64 }

func (r streamRunner) run(t *task, _ int64) error {
	dg := &sflow.Datagram{Agent: [4]byte{203, 0, 113, byte(t.sv.idx)}}
	for c := int64(1); ; c++ {
		if !t.deliver(dg, simclock.Time(r.first+c*r.step), c, 0) {
			return t.ctx.Err()
		}
	}
}

// BenchmarkDispatch is the scheduler's own ceiling per policy: three
// sources that always have a datagram ready (their capture times
// interleave, so the arrival merge alternates), default tuning, drained
// by a loop that does nothing. One iteration is one dispatched item:
// producer hand-off into the source buffer and the policy's pick, then
// either its share of a Next run of RunLen (next, the service's path)
// or, on top of that, the relay's send and the receive on Items()
// (items).
func BenchmarkDispatch(b *testing.B) {
	for _, pol := range []string{PolicyRoundRobin, PolicyBacklog, PolicyArrival} {
		b.Run(pol+"/next", func(b *testing.B) {
			s := fakeSched(b, Config{Policy: pol}, streamRunner{0, 3}, streamRunner{1, 3}, streamRunner{2, 3})
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			run := make([]Item, 0, RunLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(run) {
				if run = s.Next(run[:0:min(RunLen, b.N-i)]); len(run) == 0 {
					b.Fatal("the stream ended")
				}
			}
		})
		b.Run(pol+"/items", func(b *testing.B) {
			s := fakeSched(b, Config{Policy: pol}, streamRunner{0, 3}, streamRunner{1, 3}, streamRunner{2, 3})
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := <-s.Items(); !ok {
					b.Fatal("the stream ended")
				}
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no sources: expected error")
	}
	sp, _ := ParseSpec("tail:x")
	if _, err := New(Config{Specs: []Spec{sp, sp}}); err == nil {
		t.Error("duplicate IDs: expected error")
	}
	if _, err := New(Config{Specs: []Spec{sp}, Policy: "wat"}); err == nil {
		t.Error("unknown policy: expected error")
	}
}

// flakyConn fails every other ReadFrom with a transient error, without
// consuming a datagram, and remembers whether it was ever closed.
type flakyConn struct {
	net.PacketConn
	reads  atomic.Uint64
	closed atomic.Bool
}

func (c *flakyConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if c.reads.Add(1)%2 == 1 {
		return 0, nil, errors.New("transient read error")
	}
	return c.PacketConn.ReadFrom(p)
}

func (c *flakyConn) Close() error {
	c.closed.Store(true)
	return c.PacketConn.Close()
}

// TestUDPBindAndRetry: Start binds a UDP source before it returns, a
// transient read error is retried on that same socket (counted on the
// row, no restart, nothing lost), and a socket closed under the reader
// costs one restart that rebinds the pinned port. A source whose port
// is taken fails Start.
func TestUDPBindAndRetry(t *testing.T) {
	var mu sync.Mutex
	var conns []*flakyConn
	sp, err := ParseSpec("udp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Specs:  []Spec{sp},
		Tuning: fastTuning(),
		ListenPacket: func(addr string) (net.PacketConn, error) {
			c, err := net.ListenPacket("udp", addr)
			if err != nil {
				return nil, err
			}
			fc := &flakyConn{PacketConn: c}
			mu.Lock()
			conns = append(conns, fc)
			mu.Unlock()
			return fc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	addr := s.Snapshot()[0].Addr
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
		t.Fatalf("bound address right after Start = %q, want a concrete port", addr)
	}

	taken, err := New(Config{Specs: []Spec{{ID: "udp://" + addr, Kind: KindUDP, Addr: addr}}, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	if err := taken.Start(); err == nil {
		taken.Stop()
		t.Fatalf("a second scheduler bound %s", addr)
	}

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(from, to uint32) {
		for seq := from; seq <= to; seq++ {
			dg := &sflow.Datagram{Agent: [4]byte{203, 0, 113, 1}, Seq: seq,
				Samples: []sflow.FlowSample{{Seq: seq, Rate: 1, FrameLen: 64, Header: []byte{1}}}}
			if _, err := conn.Write(sflow.EncodeDatagram(dg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	receive := func(n int) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for got := 0; got < n; got++ {
			select {
			case <-s.Items():
			case <-deadline:
				t.Fatalf("%d of %d datagrams arrived: %+v", got, n, s.Snapshot()[0])
			}
		}
	}
	send(1, 10)
	receive(10)
	st := s.Snapshot()[0]
	if st.ReadRetries < 10 || st.Restarts != 0 || st.Received != 10 || st.LastError == "" {
		t.Fatalf("after 10 datagrams through a flaky socket: %+v, want >= 10 read retries, no restart, a last error", st)
	}
	mu.Lock()
	first := conns[0]
	mu.Unlock()
	if first.closed.Load() {
		t.Fatal("a transient read error closed the socket")
	}

	first.Close() // the socket dies under the reader
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot()[0].Restarts != 1 || s.Snapshot()[0].State != "healthy" {
		if time.Now().After(deadline) {
			t.Fatalf("closed socket was not restarted once: %+v", s.Snapshot()[0])
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Snapshot()[0].Addr; got != addr {
		t.Fatalf("rebound at %s, want the pinned %s", got, addr)
	}
	send(11, 12)
	receive(2)
}

// TestRunsKeepOrderUnderSlowConsumer: a consumer of Items() that keeps
// falling behind lets the rings fill and the relay's runs reach their
// bound. Whatever the run lengths, every policy keeps each source's
// items in order, the arrival policy keeps the merged stream
// non-decreasing in capture time, and exactly the items a fast consumer
// receives arrive.
func TestRunsKeepOrderUnderSlowConsumer(t *testing.T) {
	const perSource = 700
	type key struct {
		src    string
		cursor int64
	}
	// drain receives the whole stream, sleeping every pause items (never,
	// when pause is 0), and reports the items and whether it ever found
	// Items() filled to capacity — a whole run parked there.
	drain := func(t *testing.T, pol string, pause int) (items []Item, sawFull bool) {
		s := fakeSched(t, Config{Policy: pol},
			tickRunner(100, 3, perSource), tickRunner(101, 3, perSource), tickRunner(102, 3, perSource))
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		out := s.Items()
		for it := range out {
			items = append(items, it)
			if pause > 0 && len(items)%pause == 0 {
				time.Sleep(time.Millisecond)
				sawFull = sawFull || len(out) == cap(out)
			}
		}
		return items, sawFull
	}
	sorted := func(items []Item) []key {
		keys := make([]key, len(items))
		for i, it := range items {
			keys[i] = key{it.SourceID, it.Cursor}
		}
		slices.SortFunc(keys, func(a, b key) int {
			if c := strings.Compare(a.src, b.src); c != 0 {
				return c
			}
			return int(a.cursor - b.cursor)
		})
		return keys
	}
	for _, pol := range []string{PolicyRoundRobin, PolicyBacklog, PolicyArrival} {
		t.Run(pol, func(t *testing.T) {
			slow, sawFull := drain(t, pol, 150)
			if !sawFull {
				t.Error("Items() was never full after a pause: no run reached its bound")
			}
			if len(slow) != 3*perSource {
				t.Fatalf("slow consumer received %d items, want %d", len(slow), 3*perSource)
			}
			next := map[string]int64{}
			for i, it := range slow {
				if it.Cursor != next[it.SourceID]+1 {
					t.Fatalf("item %d: %s delivered cursor %d after %d", i, it.SourceID, it.Cursor, next[it.SourceID])
				}
				next[it.SourceID] = it.Cursor
				if pol == PolicyArrival && i > 0 && it.At.Before(slow[i-1].At) {
					t.Fatalf("item %d: capture time %v after %v", i, it.At, slow[i-1].At)
				}
			}
			fast, _ := drain(t, pol, 0)
			if !slices.Equal(sorted(slow), sorted(fast)) {
				t.Errorf("slow and fast consumers received different items (%d vs %d)", len(slow), len(fast))
			}
		})
	}
}

// TestStopWithItemsParked: Stop while Items() holds a parked run and its
// relay a second one. What the consumer receives before and after
// the close is, per source, an unbroken prefix of what the source
// emitted — a run cut short loses its tail, never its middle — and every
// datagram read stays accounted on its row.
func TestStopWithItemsParked(t *testing.T) {
	const perSource, taken = 60, 20
	var specs []Spec
	for i := 0; i < 3; i++ {
		sp, err := ParseSpec("replay:" + writeTestLog(t, perSource))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	s, err := New(Config{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	out := s.Items()
	next := map[string]simclock.Time{}
	seen := map[string]uint64{}
	receive := func(it Item) {
		t.Helper()
		// One-second entries, in order: a gap in At is a lost datagram.
		if want := next[it.SourceID]; want != 0 && it.At != want {
			t.Fatalf("%s delivered the entry of %v, want %v", it.SourceID, it.At, want)
		}
		next[it.SourceID] = it.At.Add(1)
		seen[it.SourceID]++
	}
	for i := 0; i < taken; i++ {
		receive(<-out)
	}
	// The logs fit the rings, so every source finishes; of the 160 items
	// left the channel takes a full run and the relay blocks on the next
	// one.
	deadline := time.Now().Add(10 * time.Second)
	parkedFull := func() bool {
		for _, st := range s.Snapshot() {
			if st.State != "done" {
				return false
			}
		}
		return len(out) == cap(out)
	}
	for !parkedFull() {
		if time.Now().After(deadline) {
			t.Fatalf("Items() holds %d of %d items: %+v", len(out), cap(out), s.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	parked := 0
	for it := range out {
		receive(it)
		parked++
	}
	if parked != cap(out) {
		t.Errorf("received %d items after Stop, want the %d that were parked", parked, cap(out))
	}
	for _, st := range s.Snapshot() {
		if st.Received != perSource || st.Received != st.ParseErrors+st.Panics+st.Emitted {
			t.Errorf("%s: received %d (want %d) != parseErrors %d + panics %d + emitted %d",
				st.ID, st.Received, perSource, st.ParseErrors, st.Panics, st.Emitted)
		}
		if seen[st.ID] > st.Emitted {
			t.Errorf("%s: consumer saw %d items, source emitted %d", st.ID, seen[st.ID], st.Emitted)
		}
	}
}
