//go:build !race

// The AllocsPerRun guards are compiled out under the race detector:
// race instrumentation adds its own allocations, which is noise, not a
// hot-path regression. CI runs them in the non-race build job.

package ecosystem

import (
	"testing"

	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
)

// TestDayAllocs guards the per-worker day batch. A day synthesized
// into a scratch batch that already held it allocates only per day and
// per event (the day's RNG and sampler, its response templates, its
// sensor flows), never per row: far fewer objects than rows, and fewer
// than the same day into a fresh batch, whose rows are made anew — by at
// most freshBatch objects: the batch, the attack rows' reservation and
// the background's, with no regrowth by doubling in between.
func TestDayAllocs(t *testing.T) {
	const freshBatch = 3
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	day := simclock.MeasurementStart.Add(simclock.Days(3))
	var scratch ixp.SampleBatch
	g.Day(day, &scratch) // sizes the rows and fills the size cache
	rows := scratch.N
	warmed := testing.AllocsPerRun(3, func() { g.Day(day, &scratch) })
	fresh := testing.AllocsPerRun(3, func() { g.Day(day, nil) })
	t.Logf("a day of %d rows: %.0f allocations into a warmed scratch, %.0f into a fresh batch", rows, warmed, fresh)
	if warmed > float64(rows)/10 {
		t.Errorf("Day into a warmed scratch: %.0f allocations for %d rows, want under one per ten rows", warmed, rows)
	}
	if warmed >= fresh {
		t.Errorf("Day into a warmed scratch: %.0f allocations, into a fresh batch %.0f, want fewer", warmed, fresh)
	}
	if fresh > warmed+freshBatch {
		t.Errorf("Day into a fresh batch: %.0f allocations, into a warmed scratch %.0f, want at most %d more", fresh, warmed, freshBatch)
	}
}

// TestWireDayAllocs guards the wire path. A day of frames allocates per
// day and per event (its RNG and sampler, the response templates, the
// frame slice, the message scratch) and per chunk of the sampler's slab,
// never per frame: under one object per twenty frames.
func TestWireDayAllocs(t *testing.T) {
	g := NewGenerator(tinyCampaign(t), 7)
	day := simclock.MeasurementStart.Add(simclock.Days(3))
	frames := len(g.WireDay(day).IXP) // fills the size cache
	allocs := testing.AllocsPerRun(3, func() { g.WireDay(day) })
	t.Logf("a day of %d frames: %.0f allocations", frames, allocs)
	if allocs >= float64(frames)/20 {
		t.Errorf("WireDay: %.0f allocations for %d frames, want under one per twenty frames", allocs, frames)
	}
}
