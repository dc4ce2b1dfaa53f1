// Package source decouples traffic acquisition from detection: the §4
// pipeline is source-agnostic — it consumes sampled IXP flows wherever
// they come from — so every batch consumer (the offline study engine,
// the CLI binaries) streams day batches through the Source interface
// instead of hardwiring ecosystem.Generator.
//
// Two adapters cover the current workloads:
//
//   - Synthetic wraps the campaign traffic generator, preserving its
//     purity contract (each day a pure function of (campaign, seed,
//     day), safe for concurrent materialization).
//   - Replay serves pre-recorded day batches, snapshots, or an sFlow
//     log or pcap capture sanitized as it is read (each frame straight
//     into its capture day's batch), the first non-synthetic workload.
//
// Sources hand out immutable batches, all in the source's one name
// table: consumers built over that table feed them to the batch-native
// observers (core.Aggregator.ObserveBatch and
// core.Collector.ObserveBatch, with ixp.CapturePoint.RemapBatch
// accounting the capture stats) — none of which write to a batch — so
// one materialized day may be shared by any number of passes and
// workers.
package source

import (
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// Source is a stream of daily sampled IXP traffic plus the honeypot-side
// sensor flows of the same simulated days.
//
// Implementations must be safe for concurrent DayFor/DayFlows calls on
// distinct or identical days: the pipeline's worker pool materializes
// many days at once.
type Source interface {
	// Table is the name-interning space of every batch the source
	// emits (SampleBatch.Table) and so of everything that consumes
	// them: a run has one name table, and nothing translates IDs.
	Table() *names.Table

	// Days lists the start-of-day times this source can materialize,
	// in chronological order.
	Days() []simclock.Time

	// DayFor materializes the part of one day's sampled IXP traffic a
	// consumer of the given clients reads: a batch holding, in the
	// order DayFlows would give them, at least every row of the day
	// whose client (DNSSample.ClientAddr) is in clients. It may hold
	// more, up to the whole day. Its sanitization counters cover only
	// the rows it holds, so it serves per-client passes (the pipeline's
	// pass 2), never capture accounting. The batch is immutable and
	// may be shared; it is nil (or empty) for days the source has
	// nothing for.
	DayFor(day simclock.Time, clients [][4]byte) *ixp.SampleBatch

	// DayFlows materializes one day's whole batch together with its
	// honeypot sensor flows. For synthetic sources both are drawn from
	// the same per-day RNG stream, so consumers needing both must use
	// this method rather than pairing DayFor with a second generation.
	DayFlows(day simclock.Time) (*ixp.SampleBatch, []ecosystem.SensorFlow)
}

// DaysOf collects the start-of-day times of a window, the canonical
// Days() value for window-shaped sources.
func DaysOf(w simclock.Window) []simclock.Time {
	days := make([]simclock.Time, 0, w.Days())
	w.EachDay(func(day simclock.Time) { days = append(days, day) })
	return days
}

// Synthetic adapts ecosystem.Generator to the Source interface over a
// fixed simulated window. It adds no state of its own: every call
// forwards to the generator, whose day synthesis is a pure function of
// (campaign, seed, day), so Synthetic inherits the generator's
// determinism and concurrency contract.
type Synthetic struct {
	Gen  *ecosystem.Generator
	days []simclock.Time
}

// NewSynthetic wraps a generator as a Source streaming the days of w.
func NewSynthetic(gen *ecosystem.Generator, w simclock.Window) *Synthetic {
	return &Synthetic{Gen: gen, days: DaysOf(w)}
}

// Table returns the generator's frozen interning table.
func (s *Synthetic) Table() *names.Table { return s.Gen.Table() }

// Days lists the start-of-day times of the source's window.
func (s *Synthetic) Days() []simclock.Time { return s.days }

// DayFor materializes the day's attack rows, and its background rows
// only when one of clients is a background client
// (ecosystem.Generator.DayFor).
func (s *Synthetic) DayFor(day simclock.Time, clients [][4]byte) *ixp.SampleBatch {
	return s.Gen.DayFor(day, clients).Batch
}

// DayFlows materializes one day's batch and sensor flows from a single
// generation (one per-day RNG stream).
func (s *Synthetic) DayFlows(day simclock.Time) (*ixp.SampleBatch, []ecosystem.SensorFlow) {
	dt := s.Gen.Day(day)
	return dt.Batch, dt.Sensors
}
