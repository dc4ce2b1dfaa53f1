// Scheduler and supervisors: the concurrency heart of multi-source
// ingest. Each configured source runs under its own Supervisor — a
// restart loop owning the source's lifecycle state machine
// (starting → healthy → backoff → quarantined / done / stopped) — and
// feeds a bounded per-source ring. The consumer pulls what the rings
// hold with Next, a run at a time, in whatever order the configured
// policy picks; a watchdog restarts sources that stop making progress.
// All supervisors share one failure philosophy: a broken source is
// retried with capped-exponential backoff, a wedged one is cancelled
// and (if need be) abandoned, a hopeless one is parked with a reason —
// and none of it is ever allowed to become its neighbours' problem.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// Scheduler drives the configured sources and merges their datagrams
// into Next's runs. Construct with New, then Start; Stop is idempotent.
type Scheduler struct {
	cfg Config
	tun Tuning
	pol policy

	mu   sync.Mutex
	cond *sync.Cond
	sups []*Supervisor

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
	relay  sync.Once // starts Items()
	out    chan Item
}

// New validates the configuration and builds a scheduler (sources do
// not start until Start).
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Specs) == 0 {
		return nil, errors.New("ingest: no sources configured")
	}
	seen := make(map[string]bool, len(cfg.Specs))
	for _, sp := range cfg.Specs {
		if seen[sp.ID] {
			return nil, fmt.Errorf("ingest: duplicate source %q", sp.ID)
		}
		seen[sp.ID] = true
	}
	s := &Scheduler{cfg: cfg, tun: cfg.Tuning.withDefaults()}
	// Runners receive &s.cfg, so they must see the defaulted knobs too:
	// a zero StallAfter would give the UDP runner an already-expired
	// read deadline on every loop — a socket that can never hear.
	s.cfg.Tuning = s.tun
	if s.cfg.Stage == nil {
		s.cfg.Stage = func(string, time.Duration) {}
	}
	switch cfg.Policy {
	case "", PolicyRoundRobin:
		s.pol = &roundRobin{last: -1}
	case PolicyArrival:
		s.pol = arrivalOrder{}
	default:
		return nil, fmt.Errorf("ingest: unknown policy %q (want %s or %s)",
			cfg.Policy, PolicyRoundRobin, PolicyArrival)
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for i, sp := range cfg.Specs {
		sv := &Supervisor{s: s, idx: i, spec: sp, run: newRunner(sp, &s.cfg)}
		sv.buf.slots = make([]Item, s.tun.BufLen)
		sv.cursor.Store(cfg.Cursors[sp.ID])
		s.sups = append(s.sups, sv)
	}
	return s, nil
}

// Start binds every UDP source's socket, then launches the
// supervisors and the watchdog. A listener that cannot bind fails
// Start with nothing left running, and every bound address is in
// Snapshot by the time Start returns.
func (s *Scheduler) Start() error {
	for _, sv := range s.sups {
		u, ok := sv.run.(*udpRunner)
		if !ok {
			continue
		}
		conn, err := u.bind()
		if err != nil {
			s.closeBound()
			return fmt.Errorf("ingest: %s: %w", sv.spec.ID, err)
		}
		u.bound.Store(&conn)
		sv.addr.Store(u.addr)
	}
	for _, sv := range s.sups {
		s.wg.Add(1)
		go sv.supervise()
	}
	s.wg.Add(1)
	go s.watchdog()
	return nil
}

// closeBound closes the sockets Start bound that no run has taken.
func (s *Scheduler) closeBound() {
	for _, sv := range s.sups {
		if u, ok := sv.run.(*udpRunner); ok {
			if p := u.bound.Swap(nil); p != nil {
				(*p).Close()
			}
		}
	}
}

// Items is the merged stream as a channel, for a reader that wants one
// in place of Next (never beside it): its first call starts a goroutine
// relaying Next's runs. It is closed at the end of the stream or by
// Stop, buffered (RunLen), so items can still arrive after that.
func (s *Scheduler) Items() <-chan Item {
	s.relay.Do(func() {
		s.out = make(chan Item, RunLen)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer close(s.out)
			for run := make([]Item, 0, RunLen); ; {
				if run = s.Next(run); len(run) == 0 {
					return
				}
				for _, it := range run {
					select {
					case s.out <- it:
					case <-s.ctx.Done():
						return
					}
				}
			}
		}()
	})
	return s.out
}

// Stop cancels every source, wakes a blocked Next, and waits for all
// scheduler goroutines. Items still in a source's ring or in Items()'s
// hands are discarded, their chunks left to the collector; none was
// consumed, so no cursor covers them.
func (s *Scheduler) Stop() {
	s.once.Do(func() {
		s.cancel()
		s.mu.Lock() // a Next that saw the context live is in cond.Wait
		s.cond.Broadcast()
		s.mu.Unlock()
		s.wg.Wait()
		s.closeBound()
	})
}

// Totals sums datagrams read (before parsing), parse failures and
// contained delivery panics over every source: the service-wide
// received, parse-error and input-panic counters. Each source's two
// fates are read before its received count, and a datagram is counted
// received before either, so the fates never sum past received.
func (s *Scheduler) Totals() (received, parseErrors, panics uint64) {
	for _, sv := range s.sups {
		parseErrors += sv.parseErrors.Load()
		panics += sv.panics.Load()
		received += sv.received.Load()
	}
	return received, parseErrors, panics
}

// Snapshot reports every supervisor's externally visible state, in
// configuration order.
func (s *Scheduler) Snapshot() []SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SupervisorStats, len(s.sups))
	for i, sv := range s.sups {
		st := SupervisorStats{
			ID:          sv.spec.ID,
			Kind:        string(sv.spec.Kind),
			State:       State(sv.state.Load()).String(),
			Received:    sv.received.Load(),
			ParseErrors: sv.parseErrors.Load(),
			Emitted:     sv.emitted.Load(),
			Panics:      sv.panics.Load(),
			Restarts:    sv.restarts.Load(),
			Stalls:      sv.stalls.Load(),
			ReadRetries: sv.readRetries.Load(),
			Buffered:    sv.buf.n,
			Cursor:      sv.cursor.Load(),
			Epoch:       sv.epoch.Load(),
			LastError:   sv.lastErr,
		}
		if a, ok := sv.addr.Load().(string); ok {
			st.Addr = a
		}
		st.QuarantineReason = sv.quarReason
		out[i] = st
	}
	return out
}

// ring is one source's bounded FIFO: Tuning.BufLen slots allocated once,
// so the steady state neither allocates nor keeps a popped datagram
// reachable.
type ring struct {
	slots   []Item
	head, n int
}

func (r *ring) full() bool { return r.n == len(r.slots) }

func (r *ring) push(it Item) {
	i := r.head + r.n
	if i >= len(r.slots) {
		i -= len(r.slots)
	}
	r.slots[i] = it
	r.n++
}

// front is the oldest item; the ring must not be empty.
func (r *ring) front() *Item { return &r.slots[r.head] }

func (r *ring) pop() Item {
	it := r.slots[r.head]
	r.slots[r.head] = Item{}
	if r.head++; r.head == len(r.slots) {
		r.head = 0
	}
	r.n--
	return it
}

// Supervisor owns one source: its runner, its restart loop, its
// lifecycle state, and its bounded buffer.
type Supervisor struct {
	s    *Scheduler
	idx  int
	spec Spec
	run  runner

	// Guarded by s.mu.
	buf        ring
	lastErr    string
	quarReason string
	cancelRun  context.CancelFunc

	state     atomic.Int32
	stallFlag atomic.Bool
	// beats counts progress heartbeats. The watchdog notes when it last
	// saw the count move, so a beat costs no clock read.
	beats atomic.Uint64
	gen   atomic.Uint64

	received, parseErrors, emitted atomic.Uint64
	panics, restarts, stalls       atomic.Uint64
	readRetries                    atomic.Uint64
	cursor                         atomic.Int64
	epoch                          atomic.Uint64
	addr                           atomic.Value // string
}

// setState stores under s.mu, so a Next that read the old state is in
// cond.Wait when the broadcast comes.
func (sv *Supervisor) setState(st State) {
	sv.s.mu.Lock()
	sv.state.Store(int32(st))
	sv.s.mu.Unlock()
	sv.s.cond.Broadcast()
}

// waiting reports whether the arrival-order merge should hold for this
// source's next datagram: it is (or will again be) producing.
func (sv *Supervisor) waiting() bool {
	switch State(sv.state.Load()) {
	case StateStarting, StateHealthy, StateBackoff:
		return true
	}
	return false
}

// supervise is the per-source restart loop: run the adapter, classify
// the outcome, back off, try again — or park the source for good.
func (sv *Supervisor) supervise() {
	defer sv.s.wg.Done()
	tun := sv.s.tun
	backoff := tun.BackoffMin
	failStreak := 0

	for {
		if sv.s.ctx.Err() != nil {
			sv.setState(StateStopped)
			return
		}
		runCtx, cancel := context.WithCancel(sv.s.ctx)
		// Under s.mu, the lock deliver pushes under: an abandoned run
		// pushed before the cursor is read here, or never pushes again.
		sv.s.mu.Lock()
		gen := sv.gen.Add(1)
		cursor, reopenBase := sv.cursor.Load(), sv.epoch.Load()
		sv.cancelRun = cancel
		sv.s.mu.Unlock()
		sv.beats.Add(1) // a fresh run gets a fresh stall deadline, before it counts as running
		sv.setState(StateStarting)
		before := sv.emitted.Load()

		t := &task{sv: sv, ctx: runCtx, gen: gen, reopenBase: reopenBase, w: NewWriter()}
		resCh := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					resCh <- fmt.Errorf("runner panic: %v", p)
				}
			}()
			resCh <- sv.run.run(t, cursor)
		}()

		var err error
		select {
		case err = <-resCh:
		case <-runCtx.Done():
			// Cancelled (watchdog stall or shutdown): grace-wait for the
			// runner to notice, then abandon the goroutine — a read so
			// wedged that cancel cannot reach it is exactly the failure
			// the watchdog exists for. Stale-generation checks in the
			// task keep an abandoned runner from ever delivering again.
			grace := tun.StallAfter
			if grace > time.Second {
				grace = time.Second
			}
			select {
			case err = <-resCh:
			case <-time.After(grace):
				err = errors.New("runner unresponsive after cancel")
			}
		}
		cancel()
		sv.s.mu.Lock()
		sv.cancelRun = nil
		sv.s.mu.Unlock()

		stalled := sv.stallFlag.Swap(false)
		progressed := sv.emitted.Load() > before

		switch {
		case sv.s.ctx.Err() != nil:
			sv.setState(StateStopped)
			return
		case err == nil:
			sv.setState(StateDone)
			return
		}

		sv.restarts.Add(1)
		if stalled {
			sv.stalls.Add(1)
			err = fmt.Errorf("stalled: no progress within %v (%v)", tun.StallAfter, err)
		}
		sv.s.mu.Lock()
		sv.lastErr = err.Error()
		sv.s.mu.Unlock()

		if progressed {
			failStreak, backoff = 0, tun.BackoffMin
		}
		failStreak++
		if failStreak >= tun.MaxRestarts {
			sv.s.mu.Lock()
			sv.quarReason = fmt.Sprintf("%d consecutive failures without progress; last: %s",
				failStreak, err.Error())
			sv.s.mu.Unlock()
			sv.setState(StateQuarantined)
			return
		}

		sv.setState(StateBackoff)
		if !sleepCtx(sv.s.ctx, backoff) {
			sv.setState(StateStopped)
			return
		}
		if backoff *= 2; backoff > tun.BackoffMax {
			backoff = tun.BackoffMax
		}
	}
}

// task is the handle one run of a runner reports through. Every method
// is generation-checked so a run the supervisor has abandoned (or
// replaced) can no longer touch shared state.
type task struct {
	sv         *Supervisor
	ctx        context.Context
	gen        uint64
	reopenBase uint64 // the source's reopen count when the run started
	// w is the run's chunk writer. Each run has its own, so a run the
	// supervisor abandoned never writes into a chunk its successor fills.
	w *Writer
}

func (t *task) live() bool { return t.sv.gen.Load() == t.gen }

// beat records a progress heartbeat: the source is alive even if no
// datagram arrived (an idle UDP socket, a tail at end of log).
func (t *task) beat() {
	if !t.live() {
		return
	}
	t.sv.beats.Add(1)
	if State(t.sv.state.Load()) == StateStarting {
		t.sv.setState(StateHealthy)
	}
}

// recv counts one datagram read from the input (before parsing).
func (t *task) recv() {
	if t.live() {
		t.sv.received.Add(1)
	}
}

// parseError counts one unparseable datagram. It beats: a feed
// yielding garbage is alive — bad content is accounting, not failure.
func (t *task) parseError() {
	if !t.live() {
		return
	}
	t.sv.parseErrors.Add(1)
	t.beat()
}

// readRetry counts one transient read error retried in place and
// records it as the row's last error. It beats: a socket being retried
// is alive.
func (t *task) readRetry(err error) {
	if !t.live() {
		return
	}
	t.sv.readRetries.Add(1)
	t.sv.s.mu.Lock()
	t.sv.lastErr = err.Error()
	t.sv.s.mu.Unlock()
	t.beat()
}

// deliver copies one parsed datagram into the run's chunk and hands it
// to the source's ring, blocking while the source's buffer is full. dg
// may alias the runner's read buffer: nothing keeps it. It returns
// false when the run should stop (cancelled or superseded); liveness is
// checked under the push's lock, so a superseded run pushes nothing.
func (t *task) deliver(dg *sflow.Datagram, at simclock.Time, cursor int64, reopens uint64) bool {
	sv := t.sv
	if !t.live() {
		return false
	}
	t.beat() // before anything can panic: a quarantined datagram is progress too
	ref := t.w.Append(dg)
	if fp := sv.s.cfg.FaultPanic; fp != nil && t.faulted(fp, ref) {
		return true // the entry is quarantined; the source lives on
	}

	it := Item{
		SourceID: sv.spec.ID,
		Durable:  sv.spec.Durable(),
		Ref:      ref,
		At:       at,
		Cursor:   cursor,
	}
	s := sv.s
	s.mu.Lock()
	for sv.buf.full() && t.ctx.Err() == nil && t.live() {
		s.cond.Wait()
	}
	if sv.buf.full() || !t.live() {
		s.mu.Unlock()
		ref.Release()
		return false
	}
	sv.buf.push(it)
	sv.cursor.Store(cursor)
	sv.epoch.Store(t.reopenBase + reopens)
	s.mu.Unlock()
	sv.emitted.Add(1)
	s.cond.Broadcast()
	return true
}

// faulted runs the FaultPanic hook on a copy of the datagram rebuilt
// from its chunk. A panic there — the per-datagram containment
// boundary — quarantines that copy to the poison sink and releases the
// datagram; hit reports it.
func (t *task) faulted(fp func(string, *sflow.Datagram) bool, ref Ref) (hit bool) {
	sv := t.sv
	dg := ref.Datagram()
	defer func() {
		if p := recover(); p != nil {
			sv.panics.Add(1)
			if sv.s.cfg.Poison != nil {
				sv.s.cfg.Poison(sv.spec.ID, dg, p)
			}
			ref.Release()
			hit = true
		}
	}()
	if fp(sv.spec.ID, dg) {
		panic(fmt.Sprintf("ingest: injected delivery fault (%s)", sv.spec.ID))
	}
	return false
}

// RunLen is the run capacity the service's producer and Items() pass
// to Next: no more than a default source ring holds.
const RunLen = 64

// Next is the single consumer of every source ring: it overwrites run
// with up to cap(run) items, popped under one lock acquisition while
// the policy keeps picking. It blocks until the first pick, never to
// fill the run, and returns an empty run once every source finished and
// its ring drained, or after Stop.
func (s *Scheduler) Next(run []Item) []Item {
	clear(run)
	run = run[:0]
	var waitStart time.Time
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ctx.Err() == nil {
		forced := !waitStart.IsZero() && time.Since(waitStart) > s.tun.StallAfter
		for len(run) < cap(run) {
			idx := s.pol.pick(s.sups, forced)
			if idx < 0 {
				break
			}
			run = append(run, s.sups[idx].buf.pop())
			forced = false // a release restarts the bounded wait
		}
		if len(run) > 0 {
			s.cond.Broadcast() // ring slots freed; wake blocked producers
			return run
		}

		buffered, parked := false, true
		for _, sv := range s.sups {
			buffered = buffered || sv.buf.n > 0
			parked = parked && !sv.waiting()
		}
		if !buffered && parked {
			return run // every source finished and drained: end of stream
		}
		if buffered && waitStart.IsZero() {
			// The policy is holding buffered data back (arrival-order
			// merge waiting on a lagging source); bound that wait.
			waitStart = time.Now()
		}
		s.cond.Wait()
	}
	return run
}

// watchdog restarts sources that stopped making progress: running
// state, empty buffer (so it is not consumer backpressure), and a
// heartbeat count that has not moved for the stall deadline. It reads
// the clock once per tick and the sources read it never, so a stall is
// caught between StallAfter and StallAfter plus two ticks after the
// last beat (or after the last buffered item left, if that was later).
func (s *Scheduler) watchdog() {
	defer s.wg.Done()
	tick := s.tun.StallAfter / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	// seen is each source's heartbeat count as of the tick that last saw
	// progress.
	type progress struct {
		beats uint64
		at    time.Time
	}
	seen := make([]progress, len(s.sups))
	for i := range seen {
		seen[i].at = time.Now()
	}
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-tk.C:
		}
		now := time.Now()
		s.mu.Lock()
		for i, sv := range s.sups {
			// A backlog is the consumer's turn, not a stall: the deadline
			// runs from the tick that last saw a beat or a buffered item,
			// so a run that empties the ring of an adapter blocked on it
			// leaves the adapter a whole deadline to push again.
			if b := sv.beats.Load(); b != seen[i].beats || sv.buf.n > 0 {
				seen[i] = progress{b, now}
				continue
			}
			st := State(sv.state.Load())
			if st != StateStarting && st != StateHealthy {
				continue
			}
			if now.Sub(seen[i].at) < s.tun.StallAfter {
				continue
			}
			sv.stallFlag.Store(true)
			if sv.cancelRun != nil {
				sv.cancelRun()
			}
		}
		s.mu.Unlock()
		s.cond.Broadcast() // drive Next's bounded-wait clock
	}
}

// policy picks which source's head item Next pops next. Called with
// the scheduler lock held; returns -1 to wait. forced is set when Next
// has already waited out the bounded-wait deadline: the policy must
// then release buffered data if it has any.
type policy interface {
	pick(sups []*Supervisor, forced bool) int
}

// roundRobin cycles fairly over sources with buffered datagrams.
type roundRobin struct{ last int }

func (p *roundRobin) pick(sups []*Supervisor, _ bool) int {
	n := len(sups)
	for i := 1; i <= n; i++ {
		idx := (p.last + i) % n
		if sups[idx].buf.n > 0 {
			p.last = idx
			return idx
		}
	}
	return -1
}

// arrivalOrder emits datagrams in global capture-time order: a k-way
// merge over the source heads. The merge frontier waits until every
// source that may still produce has presented its next datagram —
// unless forced, which bounds how long a lagging source can hold
// everyone else's buffered data back.
type arrivalOrder struct{}

func (arrivalOrder) pick(sups []*Supervisor, forced bool) int {
	best := -1
	var bestAt simclock.Time
	for i, sv := range sups {
		if sv.buf.n == 0 {
			if sv.waiting() && !forced {
				return -1 // hold the merge for this source's next datagram
			}
			continue
		}
		if at := sv.buf.front().At; best < 0 || at.Before(bestAt) {
			best, bestAt = i, at
		}
	}
	return best
}
