// Source adapters: one runner per Spec kind, each a blocking read loop
// driven by its supervisor. Every runner decodes into one reused
// sflow.Datagram (ParseDatagramInto and the readers' NextInto) that
// deliver copies into the run's chunk, so a datagram costs no heap
// object. Runners report through the task handle —
// recv/parseError/beat/deliver — and return nil when a finite input is
// drained, or an error when the input failed (the supervisor decides
// restart vs quarantine). A runner must be restartable: run is called
// again after backoff with the cursor of the last datagram actually
// delivered, and must not re-deliver anything at or before it.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// runner is one source adapter. Implementations keep state that must
// survive restarts (a pinned listen address, a built campaign) on the
// receiver; everything per-attempt lives in run.
type runner interface {
	run(t *task, cursor int64) error
}

func newRunner(sp Spec, cfg *Config) runner {
	switch sp.Kind {
	case KindUDP:
		return &udpRunner{cfg: cfg, addr: sp.Addr}
	case KindTail:
		return &tailRunner{sp: sp, cfg: cfg}
	case KindReplay, KindPCAP:
		return &fileRunner{sp: sp, cfg: cfg}
	default:
		return &synthRunner{sp: sp, cfg: cfg}
	}
}

// sleepCtx sleeps d or until ctx is done; false means ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-tm.C:
		return true
	}
}

// udpReadBuffer is the kernel receive buffer requested for every UDP
// source. Best-effort (the kernel may clamp it): the Linux default of
// 208 KiB holds fewer than twenty full 64-sample datagrams, which one
// sender burst overruns before the runner is scheduled again.
const udpReadBuffer = 1 << 20

// udpRunner listens for sFlow datagrams on a UDP socket. It has no
// durable input and no cursor: a datagram that was never read is gone
// (that loss is what the per-agent sequence accounting downstream
// measures). An ephemeral listen address (":0") is pinned to the
// concrete bound address on first bind so restarts rebind the same
// port and senders keep working across a supervisor restart.
type udpRunner struct {
	cfg  *Config
	addr string
	// bound is the socket Scheduler.Start opened, until the first run
	// (or Stop) takes it.
	bound atomic.Pointer[net.PacketConn]
}

// bind opens the source's socket and pins its address.
func (u *udpRunner) bind() (net.PacketConn, error) {
	listen := u.cfg.ListenPacket
	if listen == nil {
		listen = func(a string) (net.PacketConn, error) { return net.ListenPacket("udp", a) }
	}
	conn, err := listen(u.addr)
	if err != nil {
		return nil, err
	}
	u.addr = conn.LocalAddr().String()
	if rb, ok := conn.(interface{ SetReadBuffer(int) error }); ok {
		_ = rb.SetReadBuffer(udpReadBuffer) // best-effort
	}
	return conn, nil
}

func (u *udpRunner) run(t *task, _ int64) error {
	var conn net.PacketConn
	if p := u.bound.Swap(nil); p != nil {
		conn = *p
	} else {
		var err error
		if conn, err = u.bind(); err != nil {
			return err
		}
	}
	defer conn.Close()
	stop := context.AfterFunc(t.ctx, func() { conn.Close() })
	defer stop()

	// Wake from blocking reads often enough to heartbeat while idle:
	// an idle socket is not a stalled one. The deadline is re-armed once
	// half of it has run, and right after it fired, not before every
	// read.
	beatEvery := u.cfg.Tuning.StallAfter / 4
	if beatEvery > 500*time.Millisecond {
		beatEvery = 500 * time.Millisecond
	}
	var rearmAt time.Time
	arm := func(now time.Time) {
		conn.SetReadDeadline(now.Add(beatEvery))
		rearmAt = now.Add(beatEvery / 2)
	}
	arm(time.Now())
	// A *net.UDPConn reads without allocating the sender's address.
	uc, _ := conn.(*net.UDPConn)
	retryMin := min(u.cfg.Tuning.BackoffMin, beatEvery)
	retry := retryMin
	buf := make([]byte, 1<<16)
	var dg sflow.Datagram
	for {
		var n int
		var err error
		if uc != nil {
			n, _, err = uc.ReadFromUDPAddrPort(buf)
		} else {
			n, _, err = conn.ReadFrom(buf)
		}
		if err != nil {
			var ne net.Error
			switch {
			case t.ctx.Err() != nil:
				return t.ctx.Err()
			case errors.As(err, &ne) && ne.Timeout():
				t.beat()
				arm(time.Now())
			case errors.Is(err, net.ErrClosed):
				// The socket died under the reader: end the run, and the
				// supervisor rebinds the pinned address.
				return err
			default:
				// Transient: retry on the open socket. A restart would
				// close it and lose what the kernel has queued. The wait
				// stays under the heartbeat interval, so a socket that
				// keeps erroring is alive to the watchdog, and visible as
				// readRetries and lastError on its row.
				t.readRetry(err)
				if !sleepCtx(t.ctx, retry) {
					return t.ctx.Err()
				}
				retry = min(retry*2, beatEvery)
			}
			continue
		}
		retry = retryMin
		t.recv()
		t0 := time.Now()
		perr := sflow.ParseDatagramInto(&dg, buf[:n])
		now := time.Now()
		u.cfg.Stage("parse", now.Sub(t0))
		if now.After(rearmAt) {
			arm(now)
		}
		if perr != nil {
			t.parseError()
			continue
		}
		at := simclock.FromTime(now)
		if u.cfg.TimeFromUptime {
			at = simclock.Time(dg.Uptime)
		}
		if !t.deliver(&dg, at, 0, 0) {
			return t.ctx.Err()
		}
	}
}

// tailRunner follows a growing datagram log through sflow.Tailer,
// surviving rotation and truncation. The cursor is the byte offset
// past the last delivered entry in the *current* file incarnation;
// the epoch (Tailer.Reopens, offset by the supervisor's restart base)
// tells the consumer when offsets stopped being comparable.
type tailRunner struct {
	sp  Spec
	cfg *Config
}

func (r *tailRunner) run(t *task, cursor int64) error {
	tl, err := sflow.NewTailer(r.sp.Path, cursor)
	if err != nil {
		return err
	}
	defer tl.Close()

	pollMax := r.cfg.Tuning.StallAfter / 4
	if pollMax > time.Second {
		pollMax = time.Second
	}
	poll := r.cfg.Tuning.BackoffMin
	if poll > pollMax {
		poll = pollMax
	}
	pollMin := poll
	var dg sflow.Datagram
	for {
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		at, err := tl.NextInto(&dg)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.beat() // idle at end of log, not stalled
				if !sleepCtx(t.ctx, poll) {
					return t.ctx.Err()
				}
				if poll *= 2; poll > pollMax {
					poll = pollMax
				}
				continue
			}
			if errors.Is(err, sflow.ErrDatagram) {
				t.recv()
				t.parseError() // one bad body; the tailer resynced
				continue
			}
			return err // framing gone, or the file went unreadable
		}
		poll = pollMin
		t.recv()
		if r.cfg.TimeFromUptime {
			at = simclock.Time(dg.Uptime)
		}
		if !t.deliver(&dg, at, tl.Offset(), tl.Reopens()) {
			return t.ctx.Err()
		}
	}
}

// fileRunner reads a capture file start to end through its format's
// sflow.EntryReader — the reader the batch study's ingestion drains
// too — and completes. The cursor is the reader's Offset past the last
// delivered datagram (bytes consumed for replay:, frames for pcap:); a
// restart skips forward by reading the (possibly fault-wrapped) stream,
// so injected faults see the same reads a fresh run would.
type fileRunner struct {
	sp  Spec
	cfg *Config
}

func (r *fileRunner) run(t *task, cursor int64) error {
	f, err := os.Open(r.sp.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	var src io.Reader = f
	if r.cfg.WrapReader != nil {
		src = r.cfg.WrapReader(r.sp.ID, src)
	}
	var rd sflow.EntryReader
	if r.sp.Kind == KindPCAP {
		rd, err = sflow.NewPCAPReader(src, r.sp.agent())
	} else {
		rd, err = sflow.NewLogReader(src)
	}
	if err != nil {
		return err
	}
	if err := rd.SkipTo(cursor); err != nil {
		return fmt.Errorf("ingest: %s: seeking to cursor %d: %w", r.sp.ID, cursor, err)
	}
	var dg sflow.Datagram
	for {
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		at, err := rd.NextInto(&dg)
		switch {
		case errors.Is(err, io.EOF):
			return nil // drained
		case errors.Is(err, io.ErrUnexpectedEOF):
			return fmt.Errorf("ingest: %s: input ends mid-entry: %w", r.sp.ID, err)
		case errors.Is(err, sflow.ErrDatagram):
			t.recv()
			t.parseError() // one bad body; the reader resynced
			continue
		case err != nil:
			return err // framing error or stream fault
		}
		t.recv()
		if r.cfg.TimeFromUptime {
			at = simclock.Time(dg.Uptime)
		}
		if !t.deliver(&dg, at, rd.Offset(), 0) {
			return t.ctx.Err()
		}
	}
}

// synthRunner generates sampled campaign traffic — the ecosystem
// generator's wire-level day stream, arrival-ordered across midnights
// and batched into datagrams — then completes. Generation is a pure
// function of (scale, seed, day), so the cursor is a plain sample
// count: restart regenerates and skips what was already delivered. The
// campaign is built once and kept across restarts (construction
// dominates).
type synthRunner struct {
	sp  Spec
	cfg *Config
	gen *ecosystem.Generator
}

func (r *synthRunner) run(t *task, cursor int64) error {
	if r.gen == nil {
		cfg := ecosystem.DefaultCampaignConfig(r.sp.Scale)
		cfg.Zones.ProceduralNames = 20_000
		cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: r.sp.Seed}
		r.gen = ecosystem.NewGenerator(ecosystem.NewCampaign(cfg), r.sp.Seed)
	}
	b := sflow.Batcher{Agent: r.sp.agent(), Rate: sflow.DefaultRate}
	var n int64 // samples batched so far
	var dg sflow.Datagram
	emit := func() bool {
		at, ok := b.TakeInto(&dg)
		if !ok || n <= cursor {
			return true // nothing open, or delivered before a restart
		}
		t.recv()
		return t.deliver(&dg, at, n, 0)
	}
	// recs holds, sorted, the records that ran past the last midnight (an
	// event straddling it): they go out among the next day's.
	var recs []ecosystem.TaggedRecord
	day := simclock.MeasurementStart
	for d := 0; d <= r.sp.Days; d++ {
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		if d < r.sp.Days {
			recs = append(recs, r.gen.WireDay(day).IXP...)
			slices.SortStableFunc(recs, func(a, b ecosystem.TaggedRecord) int {
				return int(a.Rec.Time.Sub(b.Rec.Time))
			})
		}
		day = day.Add(simclock.Day)
		t.beat()
		i := 0
		for ; i < len(recs) && (d == r.sp.Days || recs[i].Rec.Time.Before(day)); i++ {
			if b.Full(recs[i].Rec.Time) && !emit() {
				return t.ctx.Err()
			}
			n++
			b.Add(recs[i].Rec, recs[i].Ingress)
		}
		recs = recs[:copy(recs, recs[i:])]
	}
	if !emit() {
		return t.ctx.Err()
	}
	return nil
}
