// Graceful degradation: a tiered overload response with an explicit
// state machine surfaced on /healthz and /metrics.
//
// Tier 1 is the always-on per-source backpressure (sources.go): a
// flooding collector sheds only its own datagrams. When the *shared*
// queue still fills — every source hot at once, or a stalled consumer
// — tier 2 samples ingest down 1-in-2 with explicit accounting, and at
// tier 3 the service goes detection-only: ingest sheds everything,
// while the window, detections, and the control surface keep serving.
// Both global tiers mark the service degraded; as the queue drains the
// state machine walks degraded → recovering → ok, with a hold period
// so a single drained scrape cannot flap the state back to healthy
// mid-overload.
package server

import "sync/atomic"

// HealthState is the service's overload state.
type HealthState int32

const (
	// HealthOK: ingest is keeping up; no global shedding active.
	HealthOK HealthState = iota
	// HealthRecovering: the queue has drained below the low-water mark
	// after an overload; full health returns after the hold period.
	HealthRecovering
	// HealthDegraded: the shared queue crossed the sampling-down
	// threshold; ingest is being shed globally. /healthz serves 503.
	HealthDegraded
)

func (h HealthState) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthRecovering:
		return "recovering"
	default:
		return "degraded"
	}
}

// Overload thresholds, as fractions of the shared queue capacity, and
// the recovery hold in healthy observations.
const (
	// sampleDownAt: above ¾ full, keep 1 datagram in 2 (tier 2).
	sampleDownNum, sampleDownDen = 3, 4
	// shedAllAt: above ⅞ full, detection-only — shed all ingest (tier 3).
	shedAllNum, shedAllDen = 7, 8
	// lowWaterAt: below ¼ full counts as a healthy observation.
	lowWaterNum, lowWaterDen = 1, 4
	// recoverHold is how many consecutive healthy observations
	// recovering must accumulate before the state returns to ok. One
	// observation is one datagram enqueued or dequeued.
	recoverHold = 64
)

// health is the shared-overload state machine. Reader and consumer
// both feed it observations; /healthz and /metrics read it. All fields
// are atomics — observations happen on the ingest hot path.
type health struct {
	state    atomic.Int32
	okStreak atomic.Int32

	degradations atomic.Uint64 // transitions into degraded
	sampledOut   atomic.Uint64 // tier-2 sheds (1-in-2 sampling)
	shedAll      atomic.Uint64 // tier-3 sheds (detection-only)
}

// State returns the current overload state.
func (h *health) State() HealthState { return HealthState(h.state.Load()) }

// noteOverload records that a global shedding tier engaged.
func (h *health) noteOverload() {
	h.okStreak.Store(0)
	if h.state.Swap(int32(HealthDegraded)) != int32(HealthDegraded) {
		h.degradations.Add(1)
	}
}

// noteDepth feeds n queue-depth observations at one depth: 1 at an
// enqueue, the length of the drain at a dequeue — the consumer reads
// the depth once per drain, and a backlog that drains in a few long
// drains with no traffic behind it must still count out the hold.
// Draining below the low-water mark moves degraded to recovering;
// recoverHold consecutive low-water observations complete the
// recovery. Observations between the marks reset the streak without
// changing state.
func (h *health) noteDepth(depth, capacity, n int) {
	if HealthState(h.state.Load()) == HealthOK {
		return
	}
	if depth*lowWaterDen >= capacity*lowWaterNum {
		h.okStreak.Store(0)
		return
	}
	h.state.CompareAndSwap(int32(HealthDegraded), int32(HealthRecovering))
	if h.okStreak.Add(int32(n)) >= recoverHold {
		h.state.CompareAndSwap(int32(HealthRecovering), int32(HealthOK))
	}
}

// Health returns the service's overload state.
func (s *Service) Health() HealthState { return s.health.State() }
