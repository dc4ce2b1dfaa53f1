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
//     log or pcap capture sanitized as it is read (each frame through
//     ixp.CapturePoint.Sanitize straight into its capture day's batch),
//     the first non-synthetic workload.
//
// Sources hand out batches in the source's one name table: consumers
// built over that table feed them to the batch-native observers
// (core.Aggregator.ObserveBatch and core.Collector.ObserveBatch, with
// ixp.CapturePoint.RemapBatch accounting the capture stats), none of
// which write to a batch or keep it. A caller lends a scratch batch to
// each call: Synthetic synthesizes the day into it, so a worker that
// reads day after day allocates one batch, not one per day; Replay
// leaves it alone and returns the day it holds, shared by any number of
// passes and workers.
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
// distinct or identical days, each with its own scratch: the pipeline's
// worker pool materializes many days at once.
//
// Both methods take a caller-owned scratch batch. A source that builds
// the day resets scratch, fills it and returns it, so the returned
// batch aliases scratch and is overwritten by the next call with the
// same scratch; a source that already holds the day returns its own
// batch, which nobody may write to, and leaves scratch untouched. A nil
// scratch asks for a batch the caller may keep (a fresh one, or the
// held one).
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
	// whose client (BatchRecord.Client) is in clients. It may hold
	// more, up to the whole day. Its sanitization counters cover only
	// the rows it holds, so it serves per-client passes (the pipeline's
	// pass 2), never capture accounting. It is nil (or empty) for days
	// the source has nothing for.
	DayFor(day simclock.Time, clients [][4]byte, scratch *ixp.SampleBatch) *ixp.SampleBatch

	// DayFlows materializes one day's whole batch together with its
	// honeypot sensor flows. For synthetic sources both are drawn from
	// the same per-day RNG stream, so consumers needing both must use
	// this method rather than pairing DayFor with a second generation.
	// The sensor flows are the caller's: a source returns a slice it
	// does not read again, so the caller may filter it in place.
	DayFlows(day simclock.Time, scratch *ixp.SampleBatch) (*ixp.SampleBatch, []ecosystem.SensorFlow)
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

// DayFor synthesizes the day's attack rows into scratch, and its
// background rows only when one of clients is a background client
// (ecosystem.Generator.DayFor).
func (s *Synthetic) DayFor(day simclock.Time, clients [][4]byte, scratch *ixp.SampleBatch) *ixp.SampleBatch {
	return s.Gen.DayFor(day, clients, scratch).Batch
}

// DayFlows synthesizes one day's batch into scratch and its sensor
// flows from a single generation (one per-day RNG stream).
func (s *Synthetic) DayFlows(day simclock.Time, scratch *ixp.SampleBatch) (*ixp.SampleBatch, []ecosystem.SensorFlow) {
	dt := s.Gen.Day(day, scratch)
	return dt.Batch, dt.Sensors
}
