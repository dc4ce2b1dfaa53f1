// Package ingest is the service's only intake, one source or many: a
// scheduler that drives N heterogeneous sources — UDP sFlow listeners, tailed
// datagram logs, finite sFlow/pcap replay files, synthetic fill —
// concurrently, each wrapped in a supervisor with its own lifecycle
// state machine, and merges their datagrams into one stream of runs
// under a pluggable scheduling policy.
//
// Fault isolation is the design center: one misbehaving feed is never
// the whole service's problem. A source that errors is restarted with
// capped exponential backoff; one that stops making progress is
// caught by a stall watchdog and restarted the same way; one that
// keeps failing without ever making progress is quarantined with a
// recorded reason — its supervisor parks, its neighbours keep
// feeding. A panic while handling one datagram is contained to that
// datagram: it is quarantined through the configured poison sink
// (the PR 7 poison-file path, now stamped with the source ID) and the
// source keeps running.
//
// Accounting: every datagram read is counted on its source before it
// is parsed, and one that fails to parse, or whose delivery panics, is
// counted again as a parse error or a panic; Totals sums all three over
// sources. A UDP source's socket is bound
// in Start, so a listener that cannot bind is a start-up error, not a
// supervised retry.
//
// Concurrency model: one goroutine per source (the supervisor running
// the source adapter), each feeding a bounded per-source ring, and one
// watchdog goroutine checking progress counters. The consumer pulls the
// rings on its own goroutine with Scheduler.Next, in the order the
// configured policy picks. Backpressure is per source first — a full
// ring blocks only its own adapter — and global second (a slow consumer
// eventually fills every ring).
//
// Every ring has one writer (its adapter) and one reader (the caller of
// Next), which is what lets Next pop a whole run under one lock
// acquisition instead of one datagram. It never waits to fill a run —
// a run is what is already there — so a slow stream moves single
// datagrams with no added latency and there is no flush timer to tune.
// A ring holds Tuning.BufLen datagrams (default 64, a few milliseconds
// of a busy collector, fixed so the steady state allocates nothing).
// Nor does a datagram: each run of a source decodes into one reused
// sflow.Datagram and copies it into a pointer-free chunk it owns
// (chunk.go), and an Item carries a reference into that chunk, which
// returns to the run's free list once every item in it is released.
//
// Cursors: every emitted Item carries the source's progress cursor
// just past that datagram (a byte offset for a log, a frame count for
// pcap, a sample count for synthetic fill, 0 for UDP, which
// resumes through the per-agent sequence barrier instead). The
// consumer persists the cursor of the newest item it fully consumed,
// keyed by the stable Spec.ID, and hands the map back through
// Config.Cursors on resume; each adapter seeks to its cursor, so a
// restart re-reads nothing it already delivered.
package ingest

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// Kind is the source adapter family of a Spec.
type Kind string

const (
	// KindUDP listens for sFlow v5 datagrams on a UDP socket.
	KindUDP Kind = "udp"
	// KindTail follows a datagram log as it grows, surviving rotation
	// and truncation (sflow.Tailer semantics). Never finishes.
	KindTail Kind = "tail"
	// KindReplay reads a datagram log start to end, then completes.
	KindReplay Kind = "replay"
	// KindPCAP reads a classic pcap capture, batching packets into
	// per-second datagrams, then completes.
	KindPCAP Kind = "pcap"
	// KindSynthetic generates sampled campaign traffic (the ecosystem
	// generator) as datagrams, then completes.
	KindSynthetic Kind = "synthetic"
)

// Spec describes one configured source. The canonical string form —
// what ParseSpec accepts and ID reproduces — is:
//
//	udp://HOST:PORT
//	tail:PATH
//	replay:PATH
//	pcap:PATH
//	synthetic:scale=0.05,days=2,seed=11
//
// ID is the normalized spec string; it is the stable key checkpoint
// cursors are stored under, so it must not change across restarts of
// the same configuration.
type Spec struct {
	ID   string
	Kind Kind

	// Addr is the UDP listen address (KindUDP).
	Addr string
	// Path is the file path (KindTail, KindReplay, KindPCAP).
	Path string

	// Synthetic-fill parameters (KindSynthetic).
	Scale float64
	Days  int
	Seed  int64
}

// Durable reports whether the source's input survives a crash on its
// own (a file on disk, a deterministic generator): durable sources are
// flow-controlled, never shed, because dropping a datagram would lose
// data a resume could have replayed. UDP is the one non-durable kind.
func (sp Spec) Durable() bool { return sp.Kind != KindUDP }

// agent synthesizes a per-source sFlow agent address for sources whose
// input carries none (pcap, synthetic): 198.18/15 benchmarking space,
// low bytes from a hash of the source ID.
func (sp Spec) agent() [4]byte {
	h := fnv.New32a()
	io.WriteString(h, sp.ID)
	s := h.Sum32()
	return [4]byte{198, 18, byte(s >> 8), byte(s)}
}

// ParseSpec parses the canonical string form of one source spec.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	kind, rest, ok := strings.Cut(s, ":")
	if !ok && Kind(s) != KindSynthetic {
		return Spec{}, fmt.Errorf("ingest: spec %q: want kind:rest (udp://ADDR, tail:PATH, replay:PATH, pcap:PATH, synthetic:[k=v,...])", s)
	}
	switch Kind(kind) {
	case KindUDP:
		addr := strings.TrimPrefix(rest, "//")
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return Spec{}, fmt.Errorf("ingest: spec %q: %w", s, err)
		}
		return Spec{ID: "udp://" + addr, Kind: KindUDP, Addr: addr}, nil
	case KindTail, KindReplay, KindPCAP:
		if rest == "" {
			return Spec{}, fmt.Errorf("ingest: spec %q: empty path", s)
		}
		return Spec{ID: kind + ":" + rest, Kind: Kind(kind), Path: rest}, nil
	case KindSynthetic:
		sp := Spec{Kind: KindSynthetic, Scale: 0.05, Days: 1, Seed: 11}
		if rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return Spec{}, fmt.Errorf("ingest: spec %q: option %q is not k=v", s, kv)
				}
				var err error
				switch k {
				case "scale":
					sp.Scale, err = strconv.ParseFloat(v, 64)
				case "days":
					sp.Days, err = strconv.Atoi(v)
				case "seed":
					sp.Seed, err = strconv.ParseInt(v, 10, 64)
				default:
					err = fmt.Errorf("unknown option %q", k)
				}
				if err != nil {
					return Spec{}, fmt.Errorf("ingest: spec %q: %v", s, err)
				}
			}
		}
		if err := ecosystem.CheckScale(sp.Scale); err != nil || sp.Days < 1 {
			return Spec{}, fmt.Errorf("ingest: spec %q: scale and days must be positive (scale at most 1, the paper's size)", s)
		}
		sp.ID = fmt.Sprintf("synthetic:scale=%g,days=%d,seed=%d", sp.Scale, sp.Days, sp.Seed)
		return sp, nil
	default:
		return Spec{}, fmt.Errorf("ingest: spec %q: unknown kind %q", s, kind)
	}
}

// ParseSpecs parses a spec config file: one spec per line, blank lines
// and #-comments skipped.
func ParseSpecs(r io.Reader) ([]Spec, error) {
	var out []Spec
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sp, err := ParseSpec(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseSpecFile reads a spec config file from disk.
func ParseSpecFile(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSpecs(f)
}

// Scheduling policies.
const (
	// PolicyRoundRobin cycles over sources with buffered datagrams —
	// fair-share interleave, the default.
	PolicyRoundRobin = "round-robin"
	// PolicyArrival emits datagrams in global capture-timestamp order —
	// a heap-merge across source heads for merge-replay of multi-vantage
	// recordings. The merge waits for every live source to present its
	// next datagram (bounded by Tuning.StallAfter, after which buffered
	// datagrams flow anyway), so it is meant for finite replay inputs;
	// an idle live source caps the merge rate at that bound.
	PolicyArrival = "arrival"
)

// Tuning holds the supervision knobs. Zero fields take the documented
// defaults; tests shrink them to drive the state machine quickly.
type Tuning struct {
	// BufLen is the per-source buffer capacity in datagrams (default 64).
	BufLen int
	// BackoffMin/BackoffMax bound the capped-exponential restart delay
	// (defaults 50ms / 5s).
	BackoffMin, BackoffMax time.Duration
	// StallAfter is the watchdog deadline: a running source with an
	// empty buffer and no progress heartbeat for this long is restarted
	// (default 10s). Heartbeats are a counter the watchdog samples every
	// StallAfter/4 (at least 5ms), not a clock the source reads, so a
	// stall is caught between StallAfter and StallAfter plus two such
	// ticks after the last beat (or after the buffer emptied, if that
	// was later). It also bounds the arrival policy's merge wait.
	StallAfter time.Duration
	// MaxRestarts is how many consecutive failures without any emitted
	// datagram a source survives before it is quarantined (default 8).
	MaxRestarts int
}

func (t Tuning) withDefaults() Tuning {
	if t.BufLen <= 0 {
		t.BufLen = 64
	}
	if t.BackoffMin <= 0 {
		t.BackoffMin = 50 * time.Millisecond
	}
	if t.BackoffMax <= 0 {
		t.BackoffMax = 5 * time.Second
	}
	if t.StallAfter <= 0 {
		t.StallAfter = 10 * time.Second
	}
	if t.MaxRestarts <= 0 {
		t.MaxRestarts = 8
	}
	return t
}

// Config configures a Scheduler.
type Config struct {
	// Specs are the sources to drive; at least one is required, and
	// IDs must be unique.
	Specs []Spec
	// Policy picks the order Next pops the rings in (default
	// PolicyRoundRobin).
	Policy string
	// Cursors are per-source resume cursors keyed by Spec.ID (from a
	// checkpoint); absent entries start from the top.
	Cursors map[string]int64
	// TimeFromUptime stamps datagrams with their Uptime field as a unix
	// second (the replay convention) instead of the recorded arrival
	// time (file sources) or the wall clock (UDP).
	TimeFromUptime bool

	Tuning Tuning

	// ListenPacket, when set, binds UDP ingest sockets — the
	// fault-injection seam, as on server.Config.
	ListenPacket func(addr string) (net.PacketConn, error)
	// WrapReader, when set, wraps the stream of every replay: and pcap:
	// input — the stream-fault seam (faults.Injector.Reader).
	WrapReader func(id string, r io.Reader) io.Reader
	// FaultPanic, when non-nil, panics datagram delivery on matching
	// datagrams — the test hook for per-datagram panic containment. It
	// sees a copy rebuilt from the datagram's chunk.
	FaultPanic func(id string, dg *sflow.Datagram) bool
	// Poison receives datagrams whose delivery panicked, for offline
	// triage (the service wires its poison-file writer here).
	Poison func(id string, dg *sflow.Datagram, cause any)
	// Stage, when set, receives the duration of one invocation of a
	// named processing stage (the service wires Stages.Add here; the UDP
	// runner reports "parse" through it).
	Stage func(stage string, d time.Duration)
}

// Item is one scheduled datagram: the unit Next hands to the consumer.
// Whoever ends its journey — consumes it, sheds it, skips it — releases
// its Ref.
type Item struct {
	// SourceID is the Spec.ID of the source that produced it.
	SourceID string
	// Durable mirrors Spec.Durable: a durable item must be flow-
	// controlled, not shed.
	Durable bool

	// Ref is the datagram: its rows in the chunk its reader decoded it
	// into.
	Ref
	At simclock.Time

	// Cursor is the source's progress cursor just past this datagram
	// (byte offset or deterministic count; 0 for UDP). A source's items
	// arrive in read order, so the last one consumed is its resume point.
	Cursor int64
}

// State is a supervisor's lifecycle state.
type State int32

const (
	// StateStarting: the adapter is (re)opening its input.
	StateStarting State = iota
	// StateHealthy: the source has shown progress since its last start.
	StateHealthy
	// StateBackoff: the source failed and is waiting out its restart
	// delay.
	StateBackoff
	// StateQuarantined: the source failed MaxRestarts times in a row
	// without progress (or stalled repeatedly) and has been parked with
	// a reason; the service keeps running without it.
	StateQuarantined
	// StateDone: a finite source drained its input completely.
	StateDone
	// StateStopped: shut down with the scheduler.
	StateStopped
)

func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateHealthy:
		return "healthy"
	case StateBackoff:
		return "backoff"
	case StateQuarantined:
		return "quarantined"
	case StateDone:
		return "done"
	default:
		return "stopped"
	}
}

// SupervisorStats is the externally visible per-source supervisor row:
// what /sources serializes under "inputs" and the per-input metrics
// export.
type SupervisorStats struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Addr is the bound listen address (UDP sources, once bound).
	Addr string `json:"addr,omitempty"`

	// Received counts datagrams read from the input; ParseErrors the
	// subset that failed sFlow parsing; Emitted the subset delivered to
	// the source's ring; Panics the subset quarantined by per-datagram
	// panic containment.
	Received    uint64 `json:"received"`
	ParseErrors uint64 `json:"parseErrors"`
	Emitted     uint64 `json:"emitted"`
	Panics      uint64 `json:"panics"`

	// Restarts counts supervisor restarts (errors and stalls); Stalls
	// the subset forced by the watchdog. ReadRetries counts transient
	// read errors a UDP source retried on its open socket, no restart.
	Restarts    uint64 `json:"restarts"`
	Stalls      uint64 `json:"stalls"`
	ReadRetries uint64 `json:"readRetries"`

	// Buffered is the current per-source buffer depth; Cursor the newest
	// emitted progress cursor; Epoch the cumulative tail-reopen count.
	Buffered int    `json:"buffered"`
	Cursor   int64  `json:"cursor"`
	Epoch    uint64 `json:"epoch"`

	// LastError is the most recent failure ("" while clean);
	// QuarantineReason is set once the source is parked.
	LastError        string `json:"lastError,omitempty"`
	QuarantineReason string `json:"quarantineReason,omitempty"`
}
