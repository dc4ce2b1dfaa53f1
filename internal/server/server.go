// Package server is the live multi-collector service mode: an
// always-on daemon that ingests sFlow v5 datagrams from the configured
// inputs (UDP listeners, tailed or replayed datagram logs, pcap,
// synthetic fill), sanitizes their samples through the same
// capture-point pipeline the batch study uses, folds them into the live
// window — the open day's client-day profiles plus the per-name
// statistics a selector ranking can still reach; each day is detected
// over as it closes, then its profiles and the names no ranking can
// reach are released, arena slots recycled — and serves results and
// operational state over HTTP.
//
// Layering: internal/ingest reads, parses, and supervises every input
// and merges them into one stream; internal/ixp sanitizes frames into
// DNS samples, internal/core aggregates and detects; this package adds
// what a daemon needs on top — per-source sequence/drop accounting
// (sources.go), the live window (window.go), stage timings
// (stages.go), datagram replay over UDP (replay.go), crash-safe
// checkpoint/resume (checkpoint.go), tiered overload response
// (health.go), and the Service that wires the ingest scheduler, a
// consumer, and an HTTP control surface together (this file, http.go).
//
// Concurrency model: one producer goroutine (schedLoop) is the only
// writer of source rows and the only admitter to the single bounded
// queue — it pulls the merged stream straight off the source rings
// (Scheduler.Next), accounts each datagram to its (input, agent,
// sub-agent) row, and enqueues or sheds it — and one consumer
// goroutine, the window's only writer, drains the queue into it: two
// goroutine hand-offs per datagram. Both work in runs: each blocks for
// one datagram, takes whatever else is already waiting — never waiting
// for more, so a slow stream pays no latency and there is no flush
// timer — and handles the run under one lock acquisition: the producer
// admits up to ingest.RunLen = 64 datagrams under one smu, the consumer
// folds up to drainMax = 256 queued datagrams into the window under one
// s.mu, with one stage timing and one cursor write per input.
// A drain holds s.mu from its first datagram to its last cursor, and
// the checkpointer encodes under the same lock, so a checkpoint is an
// exact (window, cursors) pair made of whole drains. A datagram travels
// as a reference into its reader's chunk (ingest.Ref), not as a heap
// object: the producer releases what it sheds or skips, the consumer
// the rest once its drain is done, and the released chunks go back to
// their readers for reuse.
//
// Backpressure is tiered: per source first (a stalled or flooding
// collector sheds only its own traffic), then global sampling-down and
// detection-only shedding when the shared queue fills (health.go);
// durable inputs are flow-controlled instead of shed. Read errors, dead
// sockets, and rotated logs are the ingest supervisors' job; a consumer
// panic quarantines the offending datagram to a poison file instead of
// killing the drain. HTTP handlers take read snapshots under the same
// locks, so scrapes never block the hot path for long.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnsamp/internal/ingest"
	"dnsamp/internal/metrics"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// Config configures a Service. Zero fields take the documented
// defaults.
type Config struct {
	// HTTPAddr is the control-surface listen address (default
	// "127.0.0.1:0").
	HTTPAddr string

	// Window configures the live detector.
	Window WindowConfig

	// TimeFromUptime, when set, takes each datagram's timestamp from its
	// Uptime field interpreted as a unix second — the replay convention
	// SendLog writes (recorded logs carry their original capture
	// timestamps there). When unset, datagrams are stamped with the
	// daemon's wall clock on arrival — the live deployment mode.
	TimeFromUptime bool

	// QueueLen is the shared ingest queue capacity in datagrams
	// (default 1024). PerSourceQueue caps one source's share of it
	// (default QueueLen/4): a source with that many datagrams already
	// pending has new ones dropped and counted against it.
	QueueLen       int
	PerSourceQueue int

	// StateDir, when set, enables crash-safe state: periodic checkpoints
	// (and a final one at shutdown) are written there atomically, and
	// consumer-panic datagrams are quarantined there as poison files.
	StateDir string
	// CheckpointEvery is the periodic checkpoint cadence (default 1m;
	// < 0 disables the timer, keeping only the shutdown checkpoint).
	CheckpointEvery time.Duration
	// CheckpointRetain is how many checkpoint files to keep (default 3).
	CheckpointRetain int
	// Resume, with StateDir set, loads the newest valid checkpoint at
	// Start and continues mid-stream: the window picks up exactly where
	// it stopped, and re-sent datagrams at or below each source's
	// checkpointed cursor are skipped, not double-counted.
	Resume bool

	// Inputs are the ingest sources; at least one is required. Every
	// configured source (UDP listeners, tailed logs, replay files, pcap
	// captures, synthetic fill) runs under its own supervisor in
	// internal/ingest and feeds the shared queue in the order Policy
	// picks; per-input resume cursors ride in checkpoints keyed by the
	// stable Spec ID.
	Inputs []ingest.Spec
	// Policy is the ingest scheduling policy (ingest.PolicyRoundRobin,
	// ingest.PolicyBacklog, or ingest.PolicyArrival; default
	// round-robin).
	Policy string
	// IngestTuning overrides the supervision knobs (buffer depth,
	// restart backoff, stall deadline, quarantine threshold). Zero
	// fields take the ingest defaults.
	IngestTuning ingest.Tuning

	// ListenPacket, when set, binds every UDP source's socket (initially
	// and on rebind) instead of net.ListenPacket — the fault-injection
	// seam.
	ListenPacket func(addr string) (net.PacketConn, error)
	// WrapReader, when set, wraps every file-backed ingest stream — the
	// stream-fault seam (faults.Injector.Reader).
	WrapReader func(id string, r io.Reader) io.Reader
	// IngestFaultPanic, when set, panics per-source datagram delivery on
	// matching datagrams — the test hook for ingest-level panic
	// containment.
	IngestFaultPanic func(id string, dg *sflow.Datagram) bool
}

func (c Config) withDefaults() Config {
	if c.HTTPAddr == "" {
		c.HTTPAddr = "127.0.0.1:0"
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.PerSourceQueue <= 0 {
		c.PerSourceQueue = c.QueueLen / 4
		if c.PerSourceQueue < 1 {
			c.PerSourceQueue = 1
		}
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = time.Minute
	}
	if c.CheckpointRetain <= 0 {
		c.CheckpointRetain = 3
	}
	return c
}

// item is one parsed datagram in flight from producer to consumer: its
// rows in its reader's chunk, released once the consumer is done with
// them. off is the durable-input cursor just past its entry (a byte
// offset or a deterministic count; 0 for UDP).
type item struct {
	src *sourceState
	ref ingest.Ref
	at  simclock.Time
	off int64
}

// inputAdvance is one input's consumed cursor while a drain is being
// folded in (Service.advanced).
type inputAdvance struct {
	sid string
	off int64
}

// Service is the running daemon. Construct with NewService, start with
// Start, stop with Shutdown.
type Service struct {
	cfg    Config
	stages *Stages
	reg    *metrics.Registry
	// scrape is what the per-source, per-input, window and stage metric
	// families read: each snapshot taken once per /metrics render by
	// snapshotForScrape, the registry's prepare hook, and guarded by the
	// registry's render lock.
	scrape struct {
		sources []SourceStats
		inputs  []ingest.SupervisorStats
		window  WindowStats
		stages  []StageTiming
		acct    Accounting
	}

	// mu serializes window access (consumer vs HTTP snapshots vs
	// checkpointer); it also guards the consumer-side resume cursors
	// (sourceState.cursor, inputCursors) so checkpoints are exact
	// (window, cursor) pairs.
	mu           sync.Mutex
	win          *Window
	inputCursors map[string]int64
	advanced     []inputAdvance // consumer scratch, empty between drains

	// smu guards the source registry; row fields other than pending and
	// cursor are written only by the producer under it.
	smu     sync.Mutex
	sources map[sourceKey]*sourceState

	queue chan item

	// sched drives ingest (nil until Start); schedResume carries
	// per-input cursors from a restored checkpoint into its
	// construction.
	sched       *ingest.Scheduler
	schedResume map[string]int64

	httpLn  net.Listener
	httpSrv *http.Server

	readerDone   chan struct{}
	consumerDone chan struct{}
	ckptStop     chan struct{}
	ckptDone     chan struct{}
	started      bool
	closing      chan struct{} // closed when Shutdown begins
	shutdownOnce sync.Once
	shutdownErr  error

	health health

	// Checkpoint/resume state: write sequence and resume source.
	ckptSeq     uint64
	resumedFrom string

	// sampleTick drives tier-2 1-in-2 sampling; producer-owned.
	sampleTick uint64

	// gate, when non-nil, stalls the consumer until it is closed —
	// a test hook simulating a consumer that cannot keep up.
	gate chan struct{}
	// faultPanic, when non-nil, panics the consumer on matching
	// datagrams — the test hook for the panic-isolation path.
	faultPanic func(*sflow.Datagram) bool

	// receivedBase/parseErrorsBase are the totals a restored checkpoint
	// carried; this process's reads are counted per input by the
	// scheduler (Accounting adds the two). Queue drops and replay skips
	// are counted on the collector rows only.
	receivedBase, parseErrorsBase uint64

	consumed   atomic.Uint64 // datagrams drained into the window
	panics     atomic.Uint64 // consumer panics isolated
	poisoned   atomic.Uint64 // datagrams quarantined to poison files
	ckpts      atomic.Uint64 // checkpoints written
	ckptErrors atomic.Uint64 // checkpoint attempts failed
	ckptBytes  atomic.Uint64 // size of the newest checkpoint
}

// NewService builds an unstarted service.
func NewService(cfg Config) *Service {
	s := &Service{
		cfg:          cfg.withDefaults(),
		stages:       NewStages(),
		readerDone:   make(chan struct{}),
		consumerDone: make(chan struct{}),
		ckptStop:     make(chan struct{}),
		ckptDone:     make(chan struct{}),
		closing:      make(chan struct{}),
	}
	s.clearState()
	s.reg = metrics.NewRegistry(s.snapshotForScrape)
	s.queue = make(chan item, s.cfg.QueueLen)
	s.registerMetrics()
	return s
}

// Start restores a checkpoint when resuming, binds the listeners (every
// UDP input's socket included: one that cannot bind fails Start), and
// launches the producer, consumer, checkpointer, and HTTP goroutines.
func (s *Service) Start() error {
	if s.started {
		return errors.New("server: already started")
	}
	if s.cfg.StateDir != "" {
		if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
			return fmt.Errorf("server: creating state dir: %w", err)
		}
		if s.cfg.Resume {
			if err := s.resume(); err != nil {
				return err
			}
		} else {
			s.ckptSeq = nextCkptSeq(listCheckpoints(s.cfg.StateDir))
		}
	}
	sched, err := ingest.New(ingest.Config{
		Specs:          s.cfg.Inputs,
		Policy:         s.cfg.Policy,
		Cursors:        s.schedResume,
		TimeFromUptime: s.cfg.TimeFromUptime,
		Tuning:         s.cfg.IngestTuning,
		ListenPacket:   s.cfg.ListenPacket,
		WrapReader:     s.cfg.WrapReader,
		FaultPanic:     s.cfg.IngestFaultPanic,
		Poison: func(id string, dg *sflow.Datagram, cause any) {
			s.quarantine("input delivery", id, dg, cause)
		},
		Stage: s.stages.Add,
	})
	if err != nil {
		return fmt.Errorf("server: configuring ingest: %w", err)
	}
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return fmt.Errorf("server: listening HTTP: %w", err)
	}
	if err := sched.Start(); err != nil {
		ln.Close()
		return fmt.Errorf("server: starting ingest: %w", err)
	}
	s.sched = sched
	s.httpLn = ln
	s.httpSrv = &http.Server{Handler: s.handler()}
	s.started = true
	go s.schedLoop()
	go s.consumeLoop()
	go s.httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	if s.cfg.StateDir != "" && s.cfg.CheckpointEvery > 0 {
		go s.checkpointLoop()
	} else {
		close(s.ckptDone)
	}
	return nil
}

// HTTPAddr returns the bound HTTP listen address (after Start).
func (s *Service) HTTPAddr() net.Addr { return s.httpLn.Addr() }

// Done is closed once the consumer has drained the last datagram: when
// the stream ends by itself (every input done or quarantined — never,
// with a UDP or tail: input) or when Shutdown stops it. After a stream
// that ended by itself Shutdown still has to run.
func (s *Service) Done() <-chan struct{} { return s.consumerDone }

// Shutdown stops the service in dependency order: stop the ingest
// scheduler so the producer exits and closes the queue, wait for the
// consumer to drain everything already accepted, write the final
// checkpoint (the drained, pre-finalize state a resumed service
// continues from), finalize the window (detecting over the day in
// progress), then stop the HTTP server — so a final scrape after the
// data path stops still sees the complete state.
func (s *Service) Shutdown(ctx context.Context) error {
	if !s.started {
		return nil
	}
	s.shutdownOnce.Do(func() {
		close(s.closing)
		s.sched.Stop()
		<-s.readerDone
		<-s.consumerDone
		close(s.ckptStop)
		<-s.ckptDone
		var ckptErr error
		if s.cfg.StateDir != "" {
			_, ckptErr = s.Checkpoint()
		}
		s.mu.Lock()
		s.win.Close()
		s.mu.Unlock()
		err := s.httpSrv.Shutdown(ctx)
		if ckptErr != nil {
			err = ckptErr
		}
		s.shutdownErr = err
	})
	return s.shutdownErr
}

// takeWaiting appends to run what ch already holds, up to run's
// capacity, and never waits: a run is what has piled up behind the item
// its caller blocked for, so a slow stream moves one item at a time with
// no delay and a fast one amortises each lock and wake-up over the run.
func takeWaiting[T any](ch <-chan T, run []T) []T {
	for len(run) < cap(run) {
		select {
		case v, ok := <-ch:
			if !ok {
				return run
			}
			run = append(run, v)
		default:
			return run
		}
	}
	return run
}

// schedLoop is the producer: it moves the scheduler's merged stream
// into the shared queue, the only writer of source rows and the only
// queue admission. Next blocks for one datagram and returns whatever
// else the source rings already hold — never waiting for more — and
// the loop admits that run in one go. The scheduler already read,
// counted, parsed, timestamped, and per-source-buffered everything, so
// this loop is just accounting plus queue admission.
func (s *Service) schedLoop() {
	defer close(s.readerDone)
	defer close(s.queue)
	run := make([]ingest.Item, 0, ingest.RunLen)
	for {
		if run = s.sched.Next(run); len(run) == 0 || !s.admitRun(run) {
			return
		}
	}
}

// rowLocked returns the accounting row of the collector that sent the
// datagram headed h through input sid, creating it on first sight. last
// is the row of the run's previous datagram, tried before the map: a
// collector's datagrams arrive in bursts. Producer-goroutine only;
// caller holds smu.
func (s *Service) rowLocked(last *sourceState, sid string, h *ingest.Head) *sourceState {
	key := sourceKey{src: sid, agent: h.Agent, subAgent: h.SubAgent}
	if last != nil && last.key == key {
		return last
	}
	src := s.sources[key]
	if src == nil {
		src = &sourceState{key: key}
		src.stats.Input = sid
		src.stats.Agent = fmt.Sprintf("%d.%d.%d.%d", key.agent[0], key.agent[1], key.agent[2], key.agent[3])
		src.stats.SubAgent = key.subAgent
		s.sources[key] = src
	}
	return src
}

// accountLocked runs the resume barrier and per-source accounting for
// one parsed datagram, headed h, on its row. It reports false when the
// replay barrier skipped the datagram. Producer-goroutine only; caller
// holds smu.
func (s *Service) accountLocked(src *sourceState, h *ingest.Head, at simclock.Time, durable bool) bool {
	if src.resuming {
		switch {
		case durable:
			// A durable input resumes by byte/record cursor: its adapter
			// re-reads exactly what was never consumed, so the sequence
			// barrier adds nothing — and misfires after a rotation reset
			// the writer's sequence numbers below the consumed cursor.
			src.resuming = false
		case h.Seq <= src.resumeSeq && h.Seq >= src.stats.FirstSeq:
			// Already inside the restored window: consuming it again would
			// double-count, so it is skipped before any accounting.
			src.stats.ReplaySkipped++
			return false
		default:
			src.resuming = false
		}
	}
	src.account(h, at)
	return true
}

// admitRun accounts a run of scheduled datagrams to their source rows
// and admits them to the queue, in order, under one smu acquisition.
// Items from durable inputs (tail log, replay file, pcap, synthetic)
// are flow-controlled, never shed: the input survives on its own, so a
// full queue pauses the producer — with smu given up for the wait —
// and the overload tiers stay out of it. UDP items go through the shed
// tiers, each read against the queue depth of that moment. It reports
// false when shutdown interrupted a blocked enqueue: that entry and the
// rest of the run were not enqueued and no cursor advanced over them,
// so a resume re-reads them. Whatever it does not enqueue it releases.
// Producer-goroutine only.
func (s *Service) admitRun(run []ingest.Item) bool {
	s.smu.Lock()
	defer s.smu.Unlock()
	var src *sourceState
	for i := range run {
		it := &run[i]
		h := it.Head()
		src = s.rowLocked(src, it.SourceID, &h)
		if !s.accountLocked(src, &h, it.At, it.Durable) {
			it.Release()
			continue
		}
		if !it.Durable {
			s.admitUDPLocked(src, it)
			continue
		}
		q := item{src: src, ref: it.Ref, at: it.At, off: it.Cursor}
		select {
		case s.queue <- q:
		default:
			s.smu.Unlock()
			select {
			case s.queue <- q:
				s.smu.Lock()
			case <-s.closing:
				s.smu.Lock()
				for j := i; j < len(run); j++ {
					run[j].Release()
				}
				return false
			}
		}
		src.pending.Add(1)
	}
	return true
}

// admitUDPLocked enqueues one accounted UDP datagram for the consumer or
// sheds it: the global overload tiers first, then per-source
// backpressure. Producer-goroutine only; caller holds smu.
func (s *Service) admitUDPLocked(src *sourceState, it *ingest.Item) {
	// Global overload tiers (the per-source tier is below, unchanged):
	// above ⅞ full shed everything, above ¾ keep 1-in-2.
	depth, capacity := len(s.queue), s.cfg.QueueLen
	if depth*shedAllDen >= capacity*shedAllNum {
		s.health.noteOverload()
		s.health.shedAll.Add(1)
		it.Release()
		return
	}
	if depth*sampleDownDen >= capacity*sampleDownNum {
		s.health.noteOverload()
		if s.sampleTick++; s.sampleTick%2 == 1 {
			s.health.sampledOut.Add(1)
			it.Release()
			return
		}
	}
	s.health.noteDepth(depth, capacity, 1)

	shed := src.pending.Load() >= int64(s.cfg.PerSourceQueue)
	if !shed {
		select {
		case s.queue <- item{src: src, ref: it.Ref, at: it.At}:
			src.pending.Add(1)
		default:
			shed = true // shared queue full
		}
	}
	if shed {
		src.stats.QueueDrops++
		it.Release()
	}
}

// drainMax bounds one consumer drain: 256 datagrams are about a tenth
// of a millisecond under s.mu, short beside a scrape or a checkpoint
// and long enough that the lock, the stage timer and the cursor writes
// no longer show in a profile.
const drainMax = 256

// consumeLoop drains the queue into the window. It blocks for one
// datagram, takes whatever else is queued — never waiting for more —
// and folds that drain into the window in one go.
func (s *Service) consumeLoop() {
	defer close(s.consumerDone)
	drain := make([]item, 0, drainMax)
	for it := range s.queue {
		if s.gate != nil {
			<-s.gate
		}
		drain = takeWaiting(s.queue, append(drain[:0], it))
		for i := range drain {
			drain[i].src.pending.Add(-1)
		}
		s.consumeDrain(drain)
		clear(drain)
	}
}

// consumeDrain folds one drain into the window under one s.mu
// acquisition and advances the resume cursors over it, so a checkpoint
// (which encodes under s.mu) is an exact (window, cursors) pair made of
// whole drains. A panic while processing one datagram is isolated to
// it: it moves no cursor, and once the lock is released it is
// quarantined to a poison file and only then counted as consumed. Every
// other datagram is counted under the lock, as it goes in, so the
// checkpoint's consumed count belongs to the same pair. The observe
// stage is timed from the lock's acquisition, so a wait behind a
// checkpoint or a scrape is not booked as consumer work. Every item is
// released at the end.
func (s *Service) consumeDrain(drain []item) {
	type poison struct {
		it    *item
		cause any
	}
	var poisoned []poison
	s.mu.Lock()
	t0 := time.Now()
	for i := range drain {
		it := &drain[i]
		if cause := s.observeLocked(it); cause != nil {
			poisoned = append(poisoned, poison{it, cause})
			continue
		}
		if seq := it.ref.Head().Seq; seq > it.src.cursor {
			it.src.cursor = seq
		}
		if it.off > 0 {
			s.advanceLocked(it)
		}
		// Published per datagram, not per drain: a closed-loop sender
		// pacing on Consumed() is released as its datagrams go in, not in
		// bursts a drain long. Whoever reads the window next waits for
		// s.mu, and so for the whole drain.
		s.consumed.Add(1)
	}
	for _, in := range s.advanced {
		s.inputCursors[in.sid] = in.off
	}
	s.advanced = s.advanced[:0]
	s.mu.Unlock()
	s.stages.Add("observe", time.Since(t0))

	for _, p := range poisoned {
		s.panics.Add(1)
		s.quarantine("consumer", p.it.src.key.src, p.it.ref.Datagram(), p.cause)
		s.consumed.Add(1)
	}
	for i := range drain {
		drain[i].ref.Release()
	}
	s.health.noteDepth(len(s.queue), s.cfg.QueueLen, len(drain))
}

// observeLocked sanitizes one datagram's samples and observes them into
// the window. A panic on the way is recovered and returned. Caller
// holds s.mu.
func (s *Service) observeLocked(it *item) (cause any) {
	defer func() { cause = recover() }()
	if s.faultPanic != nil {
		if dg := it.ref.Datagram(); s.faultPanic(dg) {
			panic(fmt.Sprintf("injected consumer fault on seq %d", dg.Seq))
		}
	}
	cp := s.win.Capture()
	for i := range int(it.ref.Head().Samples) {
		smp, ok := cp.Process(it.ref.Sample(i).Record(it.at))
		if !ok {
			continue
		}
		s.win.Observe(&smp)
	}
	return nil
}

// advanceLocked sets the consumed cursor of the input it arrived
// through to its offset. An input's datagrams are consumed in the order
// its reader read them (one ring, one live writer, one FIFO queue, one
// consumer), so the last one consumed holds the resume point, also when
// a tail: input's log was rotated and its offsets started over. The
// cursor is worked on in s.advanced, one entry per input the drain has
// touched, and written back to inputCursors when the drain ends: one
// map write per input and drain, not per datagram. Caller holds s.mu.
func (s *Service) advanceLocked(it *item) {
	sid := it.src.key.src
	for i := range s.advanced {
		if s.advanced[i].sid == sid {
			s.advanced[i].off = it.off
			return
		}
	}
	s.advanced = append(s.advanced, inputAdvance{sid, it.off})
}

// quarantine writes a datagram whose processing panicked to a poison
// file for offline triage. The file opens with the stage that panicked
// ("input delivery" or "consumer") and is named with the source the
// datagram arrived through, so two sources' poison in the same instant
// can never collide or point triage at the wrong feed. Without a
// StateDir the event is only counted.
func (s *Service) quarantine(stage, sid string, dg *sflow.Datagram, cause any) {
	if s.cfg.StateDir == "" {
		return
	}
	n := s.poisoned.Add(1)
	body := sflow.EncodeDatagram(dg)
	meta := fmt.Sprintf("# %s panic: %v\n# source %s\n# agent %d.%d.%d.%d/%d seq %d\n",
		stage, cause, sourceSlug(sid), dg.Agent[0], dg.Agent[1], dg.Agent[2], dg.Agent[3], dg.SubAgent, dg.Seq)
	path := filepath.Join(s.cfg.StateDir, fmt.Sprintf("poison-%s-%06d.sflow", sourceSlug(sid), n))
	_ = atomicWriteFile(path, append([]byte(meta), body...))
}

// sourceSlug renders an ingest source ID as a filesystem-safe name
// fragment.
func sourceSlug(sid string) string {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, sid)
	if len(slug) > 48 {
		slug = slug[:48]
	}
	return slug
}

// Accounting is where every datagram the inputs read has gone, each
// fate read from its one counter:
//
//	Received == ParseErrors + InputPanics + ReplaySkipped + SampledOut +
//	            ShedAll + QueueDrops + Consumed + InFlight
//
// InFlight, read and no fate yet (in an input, the producer's run, the
// queue or a drain), is 0 once the service is drained: any other value
// there is a datagram lost or counted twice.
type Accounting struct {
	Received      uint64 // read from the inputs, before parsing
	ParseErrors   uint64 // failed sFlow v5 parsing at their input
	InputPanics   uint64 // delivery panicked at their input; not checkpointed
	ReplaySkipped uint64 // at or below a resumed collector's cursor
	SampledOut    uint64 // tier-2 1-in-2 shed
	ShedAll       uint64 // tier-3 shed
	QueueDrops    uint64 // per-source backpressure
	Consumed      uint64 // drained into the window, consumer panics included
	InFlight      uint64
}

// Accounting reads every fate under s.mu and s.smu, in Checkpoint's
// order, so no drain or admission moves a datagram between two reads.
func (s *Service) Accounting() Accounting {
	s.mu.Lock()
	s.smu.Lock()
	defer s.mu.Unlock()
	defer s.smu.Unlock()
	return s.accountingLocked()
}

// accountingLocked reads every fate, then Received (Scheduler.Totals
// does the same per input), on top of what a restored checkpoint
// carried: a datagram is received before any fate, so InFlight never
// wraps. Caller holds s.mu and s.smu.
func (s *Service) accountingLocked() Accounting {
	a := Accounting{Received: s.receivedBase, ParseErrors: s.parseErrorsBase}
	for _, src := range s.sources {
		a.QueueDrops += src.stats.QueueDrops
		a.ReplaySkipped += src.stats.ReplaySkipped
	}
	a.Consumed = s.consumed.Load()
	a.SampledOut = s.health.sampledOut.Load()
	a.ShedAll = s.health.shedAll.Load()
	if s.sched != nil {
		r, p, x := s.sched.Totals()
		a.Received, a.ParseErrors, a.InputPanics = a.Received+r, a.ParseErrors+p, x
	}
	a.InFlight = a.Received - (a.ParseErrors + a.InputPanics + a.ReplaySkipped +
		a.SampledOut + a.ShedAll + a.QueueDrops + a.Consumed)
	return a
}

// Received reports datagrams read from the inputs so far, whether or
// not they parsed; unlike Accounting it takes no lock.
func (s *Service) Received() uint64 {
	n := s.receivedBase
	if s.sched != nil {
		r, _, _ := s.sched.Totals()
		n += r
	}
	return n
}

// Consumed reports datagrams fully drained into the window so far.
// Tests pace senders against it: once Consumed matches what was sent,
// every accepted sample is in the window.
func (s *Service) Consumed() uint64 { return s.consumed.Load() }

// QueueDrops reports datagrams shed by per-source backpressure, summed
// over the collector rows.
func (s *Service) QueueDrops() uint64 { return s.Accounting().QueueDrops }

// ReplaySkipped reports datagrams skipped by the post-resume replay
// barrier, summed over the collector rows.
func (s *Service) ReplaySkipped() uint64 { return s.Accounting().ReplaySkipped }

// SampledOut reports datagrams shed by tier-2 global sampling-down.
func (s *Service) SampledOut() uint64 { return s.health.sampledOut.Load() }

// ShedAll reports datagrams shed by tier-3 detection-only mode.
func (s *Service) ShedAll() uint64 { return s.health.shedAll.Load() }

// WindowSnapshot returns the window's observable state.
func (s *Service) WindowSnapshot() WindowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.Stats()
}

// DetectionsSnapshot returns the retained detections.
func (s *Service) DetectionsSnapshot() []*Detection {
	s.mu.Lock()
	dets := s.win.Detections()
	s.mu.Unlock()
	out := make([]*Detection, len(dets))
	for i, d := range dets {
		out[i] = newDetection(d)
	}
	return out
}

// DaysSnapshot returns the window's day log: one row per day this
// process closed, oldest first.
func (s *Service) DaysSnapshot() []DaySummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.Days()
}

// SourcesSnapshot returns per-collector accounting rows sorted by
// (input, agent, sub-agent).
func (s *Service) SourcesSnapshot() []SourceStats {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.sourceRowsLocked()
}

// sourceRowsLocked is SourcesSnapshot; caller holds s.smu.
func (s *Service) sourceRowsLocked() []SourceStats {
	out := make([]SourceStats, 0, len(s.sources))
	for _, src := range s.sources {
		out = append(out, src.stats)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Input != out[j].Input {
			return out[i].Input < out[j].Input
		}
		if out[i].Agent != out[j].Agent {
			return out[i].Agent < out[j].Agent
		}
		return out[i].SubAgent < out[j].SubAgent
	})
	return out
}

// InputsSnapshot returns per-input supervisor rows in configuration
// order (nil before Start). A UDP row carries its bound address.
func (s *Service) InputsSnapshot() []ingest.SupervisorStats {
	if s.sched == nil {
		return nil
	}
	return s.sched.Snapshot()
}

// StagesSnapshot returns accumulated per-stage timings.
func (s *Service) StagesSnapshot() []StageTiming { return s.stages.Snapshot() }

// Registry exposes the metric registry (the /metrics content).
func (s *Service) Registry() *metrics.Registry { return s.reg }

// snapshotForScrape takes, once per render, every snapshot that more
// than one metric family reads: one s.mu, s.smu, scheduler and stages
// acquisition per scrape instead of one per family. The window, the
// collector rows and the accounting totals are read in one hold of s.mu
// and s.smu, so the totals of one scrape add up and match its rows.
func (s *Service) snapshotForScrape() {
	s.scrape.inputs = s.InputsSnapshot()
	s.scrape.stages = s.StagesSnapshot()
	s.mu.Lock()
	s.scrape.window = s.win.Stats()
	s.smu.Lock()
	s.scrape.sources = s.sourceRowsLocked()
	s.scrape.acct = s.accountingLocked()
	s.smu.Unlock()
	s.mu.Unlock()
}
