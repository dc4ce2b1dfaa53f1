// Source adapters: two runners, each a blocking read loop driven by its
// supervisor — one for UDP, one for every durable input (tail:,
// replay:, pcap:, synthetic:), which reads its sflow.EntryReader. Both
// decode into one reused sflow.Datagram (ParseDatagramInto and the
// readers' NextInto) that deliver copies into the run's chunk, so a
// datagram costs no heap object. Runners report through the task
// handle — recv/parseError/beat/deliver — and return nil when a finite
// input is drained, or an error when the input failed (the supervisor
// decides restart vs quarantine). A runner must be restartable: run is
// called again after backoff with the cursor of the last datagram
// actually delivered, and must not re-deliver anything at or before it.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
	if sp.Kind == KindUDP {
		return &udpRunner{cfg: cfg, addr: sp.Addr}
	}
	return &durableRunner{sp: sp, cfg: cfg}
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

// durableRunner reads a tail:, replay:, pcap: or synthetic: input
// through its sflow.EntryReader; only opening the reader differs by
// kind. A tail: input follows its log (sflow.Tailer) and polls at the
// end instead of completing; its epoch (Tailer.Reopens, offset by the
// supervisor's restart base) tells the consumer when offsets stopped
// being comparable. A synthetic: input batches its campaign's wire
// stream, a pure function of (scale, seed, day), from a generator built
// once and kept across restarts (construction dominates). The cursor is
// the reader's Offset — bytes for a log, frames for pcap:, samples for
// synthetic: — and a restart skips forward by reading, so what follows
// carries the bytes and Seq numbers of a full run, and injected stream
// faults see the same reads a fresh run would.
type durableRunner struct {
	sp  Spec
	cfg *Config
	gen *ecosystem.Generator // synthetic: the campaign, once built
}

func (r *durableRunner) run(t *task, cursor int64) error {
	rd, closeInput, err := r.open(t, cursor)
	if err != nil {
		return err
	}
	defer closeInput()
	tl, follow := rd.(*sflow.Tailer)

	pollMax := min(r.cfg.Tuning.StallAfter/4, time.Second)
	pollMin := min(r.cfg.Tuning.BackoffMin, pollMax)
	poll := pollMin
	var dg sflow.Datagram
	for {
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		at, err := rd.NextInto(&dg)
		switch {
		case follow && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)):
			t.beat() // idle at end of log, not stalled
			if !sleepCtx(t.ctx, poll) {
				return t.ctx.Err()
			}
			poll = min(poll*2, pollMax)
			continue
		case errors.Is(err, io.EOF):
			return nil // drained
		case errors.Is(err, io.ErrUnexpectedEOF):
			return fmt.Errorf("ingest: %s: input ends mid-entry: %w", r.sp.ID, err)
		case errors.Is(err, sflow.ErrDatagram):
			t.recv()
			t.parseError() // one bad body; the reader resynced
			continue
		case err != nil:
			return err // framing gone, a stream fault, or a cancelled generation
		}
		poll = pollMin
		t.recv()
		if r.cfg.TimeFromUptime {
			at = simclock.Time(dg.Uptime)
		}
		var epoch uint64
		if follow {
			epoch = tl.Reopens()
		}
		if !t.deliver(&dg, at, rd.Offset(), epoch) {
			return t.ctx.Err()
		}
	}
}

// open opens the input's reader for one run, resumed past cursor, and
// what closes it.
func (r *durableRunner) open(t *task, cursor int64) (sflow.EntryReader, func() error, error) {
	var rd interface {
		sflow.EntryReader
		SkipTo(off int64) error
	}
	closeInput := func() error { return nil }
	switch r.sp.Kind {
	case KindTail:
		tl, err := sflow.NewTailer(r.sp.Path, cursor)
		if err != nil {
			return nil, nil, err
		}
		return tl, tl.Close, nil
	case KindSynthetic:
		if r.gen == nil {
			r.gen = syntheticGenerator(r.sp)
		}
		days := ecosystem.NewWireStream(simclock.MeasurementStart, r.sp.Days, func(day simclock.Time) ([]ecosystem.TaggedRecord, error) {
			recs := r.gen.WireDay(day).IXP
			t.beat() // a day generated is progress, delivered or skipped
			return recs, t.ctx.Err()
		})
		rd = sflow.NewRecordReader(days, r.sp.agent(), sflow.DefaultRate)
	default:
		f, err := os.Open(r.sp.Path)
		if err != nil {
			return nil, nil, err
		}
		closeInput = f.Close
		var src io.Reader = f
		if r.cfg.WrapReader != nil {
			src = r.cfg.WrapReader(r.sp.ID, src)
		}
		if r.sp.Kind == KindPCAP {
			rd, err = sflow.NewPCAPReader(src, r.sp.agent())
		} else {
			rd, err = sflow.NewLogReader(src)
		}
		if err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if err := rd.SkipTo(cursor); err != nil {
		closeInput()
		return nil, nil, fmt.Errorf("ingest: %s: seeking to cursor %d: %w", r.sp.ID, cursor, err)
	}
	return rd, closeInput, nil
}

// syntheticGenerator builds a synthetic: input's campaign: 20 000
// procedural names, 24 members and 40 ASes per class, seeded by sp.Seed.
func syntheticGenerator(sp Spec) *ecosystem.Generator {
	cfg := ecosystem.DefaultCampaignConfig(sp.Scale)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: sp.Seed}
	return ecosystem.NewGenerator(ecosystem.NewCampaign(cfg), sp.Seed)
}
