package server

import (
	"sync/atomic"

	"dnsamp/internal/ingest"
	"dnsamp/internal/simclock"
)

// sourceKey identifies one sampling process: an sFlow agent address
// plus its sub-agent ID. Real IXP deployments run one agent per
// collector box, often several sub-agents per chassis; each gets its
// own sequence space and its own accounting row. The key is
// additionally scoped by the configured input it arrived through (src,
// the ingest.Spec ID): two replay files carrying the same recorded
// agent are separate sequence spaces with separate resume barriers,
// so one input's checkpointed cursor can never skip another's data.
type sourceKey struct {
	src      string
	agent    [4]byte
	subAgent uint32
}

// SourceStats is the externally visible per-collector accounting row:
// what /sources serializes and the per-source metrics export.
type SourceStats struct {
	// Input is the configured ingest source this collector's datagrams
	// arrived through (the ingest.Spec ID).
	Input string `json:"input"`
	// Agent is the dotted agent address; SubAgent the sub-agent ID.
	Agent    string `json:"agent"`
	SubAgent uint32 `json:"subAgent"`

	// Datagrams and Samples count what arrived (before any queueing).
	Datagrams uint64 `json:"datagrams"`
	Samples   uint64 `json:"samples"`

	// FirstSeq/LastSeq bound the observed datagram sequence numbers.
	FirstSeq uint32 `json:"firstSeq"`
	LastSeq  uint32 `json:"lastSeq"`
	// Lost counts datagrams presumed dropped in flight: the sum of
	// forward sequence gaps, decremented when a late datagram arrives
	// after all. UDP gives no stronger signal than the sequence stream.
	Lost uint64 `json:"lost"`
	// OutOfOrder counts datagrams arriving with a sequence number at or
	// below the last one seen — late reordered delivery and duplicates
	// (indistinguishable without per-sequence history).
	OutOfOrder uint64 `json:"outOfOrder"`

	// AgentDrops is the agent's own cumulative drop counter (the flow
	// sample `drops` field): samples the agent discarded before they
	// ever reached the wire.
	AgentDrops uint32 `json:"agentDrops"`
	// Rate is the sampling denominator of the most recent flow sample
	// (1-in-Rate); RateChanges counts observed rate switches.
	Rate        uint32 `json:"rate"`
	RateChanges uint64 `json:"rateChanges"`

	// QueueDrops counts datagrams this service dropped because the
	// source exceeded its ingest-queue share (backpressure: a stalled or
	// flooding collector sheds its own datagrams, never its neighbours').
	QueueDrops uint64 `json:"queueDrops"`

	// ReplaySkipped counts datagrams skipped after a resume because
	// their sequence number was at or below the checkpointed cursor —
	// already in the restored window, so consuming them again would
	// double-count.
	ReplaySkipped uint64 `json:"replaySkipped"`

	// LastArrival is the arrival timestamp of the newest datagram.
	LastArrival simclock.Time `json:"lastArrival"`
}

// sourceState is the internal accounting row. Fields other than
// pending are written only by the reader goroutine under Service.smu;
// pending is shared with the consumer goroutine and atomic.
type sourceState struct {
	key     sourceKey
	stats   SourceStats
	started bool // FirstSeq recorded
	// pending is the number of this source's datagrams sitting in the
	// ingest queue — the per-source backpressure meter.
	pending atomic.Int64

	// cursor is the highest datagram sequence number the consumer has
	// fully drained into the window. Written by the consumer under
	// Service.mu, read by the checkpointer under the same lock — so a
	// checkpoint's cursors are exactly consistent with its window state.
	cursor uint32

	// resuming/resumeSeq implement the post-restore replay barrier: while
	// resuming, datagrams with Seq <= resumeSeq are already inside the
	// restored window and are skipped (counted in ReplaySkipped). The
	// first newer datagram lowers the barrier; later low sequence numbers
	// are genuine reordering again. Reader-goroutine state.
	resuming  bool
	resumeSeq uint32
}

// account folds one arrived datagram, headed h, into the row. Called
// by the reader with the source registry locked.
func (s *sourceState) account(h *ingest.Head, at simclock.Time) {
	st := &s.stats
	st.Datagrams++
	st.Samples += uint64(h.Samples)
	st.LastArrival = at
	if !s.started {
		s.started = true
		st.FirstSeq, st.LastSeq = h.Seq, h.Seq
	} else {
		expected := st.LastSeq + 1
		switch {
		case h.Seq == expected:
			st.LastSeq = h.Seq
		case h.Seq > expected:
			st.Lost += uint64(h.Seq - expected)
			st.LastSeq = h.Seq
		default: // late, reordered, or duplicated
			st.OutOfOrder++
			if st.Lost > 0 {
				st.Lost-- // a datagram counted lost arrived after all
			}
		}
	}
	// The samples' rates in order, as the head summarises them: a change
	// is a non-zero rate unlike the one before it.
	if h.FirstRate != 0 {
		if h.FirstRate != st.Rate {
			if st.Rate != 0 {
				st.RateChanges++
			}
			st.Rate = h.FirstRate
		}
		st.RateChanges += uint64(h.RateSwitches)
		st.Rate = h.LastRate
	}
	st.AgentDrops = max(st.AgentDrops, h.MaxDrops)
}
