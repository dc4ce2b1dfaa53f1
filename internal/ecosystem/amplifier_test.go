package ecosystem

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dnsamp/internal/resolver"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// AliveIDs returns the ids of all amplifiers alive at t, ascending: the
// full scan the pool tests count against.
func (p *Pool) AliveIDs(t simclock.Time) []int {
	var out []int
	for id := range p.Amps {
		if p.Amps[id].AliveAt(t) {
			out = append(out, id)
		}
	}
	return out
}

// strideWalk is AppendAlive as a plain stride walk over every id, dead
// or alive: the reference the epoch lists must reproduce draw for draw.
func strideWalk(p *Pool, dst []int, rng *rand.Rand, t simclock.Time, k int, pred func(*Amplifier) bool) []int {
	n := len(p.Amps)
	if n == 0 || k <= 0 {
		return dst
	}
	end := len(dst) + k
	id := rng.Intn(n)
	step := walkStride(n) % n
	for i := 0; i < n && len(dst) < end; i, id = i+1, id+step {
		if id >= n {
			id -= n
		}
		if !p.Amps[id].AliveAt(t) {
			continue
		}
		if pred != nil && !pred(&p.Amps[id]) {
			continue
		}
		dst = append(dst, id)
	}
	return dst
}

// walkPreds are the filter shapes AppendAlive's callers pass, each
// built over the rng of the walk it filters: none, a stateless one, and
// the root-query one that draws from the walk's own rng.
var walkPreds = []struct {
	name string
	make func(rng *rand.Rand) func(*Amplifier) bool
}{
	{"nil", func(*rand.Rand) func(*Amplifier) bool { return nil }},
	{"stateless", func(*rand.Rand) func(*Amplifier) bool {
		return func(a *Amplifier) bool { return !a.MinimalANY && a.ID%3 != 0 }
	}},
	{"rng", func(rng *rand.Rand) func(*Amplifier) bool {
		return func(a *Amplifier) bool {
			return a.Kind == resolver.Authoritative || rng.Float64() < 0.12
		}
	}},
}

// edgeTimes are the instants the epoch search can get wrong on pool p:
// before every birth, at Born edges, a second before Died edges (and
// at them), mid-day, and at or past the horizon.
func edgeTimes(p *Pool, rng *rand.Rand) []simclock.Time {
	ts := []simclock.Time{
		historyStart.Add(-simclock.Days(1)),
		simclock.EntityTrackingEnd,
		simclock.EntityTrackingEnd.Add(simclock.Days(3)),
	}
	for range 12 {
		a := &p.Amps[rng.Intn(len(p.Amps))]
		ts = append(ts, a.Born, a.Died-1, a.Died, a.Born.Add(simclock.Hours(12)))
	}
	return ts
}

func TestAppendAliveMatchesStrideWalk(t *testing.T) {
	if got := walkStride(7919); got != 7921 {
		t.Fatalf("walkStride(7919) = %d, want 7921", got)
	}
	topo := topology.Generate(topology.Config{Members: 24, ASesPerClass: 40, Seed: 1})
	for _, size := range []int{1, 2, 7919, 14_000} {
		p := NewPool(size, topo)
		pick := rand.New(rand.NewSource(int64(size)))
		ts := edgeTimes(p, pick)
		// Twice over, in a shuffled order: the second pass reads every
		// epoch list from the cache, built by whichever query came first.
		for pass := range 2 {
			pick.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			for _, at := range ts {
				alive := len(p.AliveIDs(at))
				for _, k := range []int{0, 1, 5, alive + 1} {
					for _, wp := range walkPreds {
						seed := pick.Int63()
						rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
						prefix := []int{-1}
						got := p.AppendAlive(slices.Clone(prefix), rngGot, at, k, wp.make(rngGot))
						want := strideWalk(p, slices.Clone(prefix), rngWant, at, k, wp.make(rngWant))
						if !slices.Equal(got, want) {
							t.Fatalf("size %d pass %d t=%s k=%d pred %s: AppendAlive = %v, stride walk = %v",
								size, pass, at, k, wp.name, got, want)
						}
						if g, w := rngGot.Int63(), rngWant.Int63(); g != w {
							t.Fatalf("size %d pass %d t=%s k=%d pred %s: rng diverged after the walk (%d != %d)",
								size, pass, at, k, wp.name, g, w)
						}
					}
				}
			}
		}
		filled := 0
		for _, l := range p.alive {
			if l != nil {
				filled++
			}
		}
		if epochs := len(p.edges) + 1; len(p.alive) != epochs || filled > epochs {
			t.Errorf("size %d: cache holds %d lists in %d slots, %d epochs", size, filled, len(p.alive), epochs)
		}
	}
}

// TestAppendAliveConcurrent: four goroutines, each with its own rng,
// walk one fresh pool at once and so race to build its epoch lists;
// each must draw what it draws alone on another pool.
func TestAppendAliveConcurrent(t *testing.T) {
	topo := topology.Generate(topology.Config{Members: 24, ASesPerClass: 40, Seed: 1})
	const size = 14_000
	walks := func(p *Pool, seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		var out []int
		for d := range 60 {
			at := simclock.MeasurementStart.Add(simclock.Days(d*7%40) + simclock.Hours(d%24))
			out = p.AppendAlive(out, rng, at, 1+rng.Intn(400), walkPreds[2].make(rng))
		}
		return out
	}

	serial := NewPool(size, topo)
	want := make([][]int, 4)
	for g := range want {
		want[g] = walks(serial, int64(g))
	}

	shared := NewPool(size, topo)
	got := make([][]int, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = walks(shared, int64(g))
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want[g]) {
			t.Errorf("goroutine %d: %d draws differ from the serial run's %d", g, len(got[g]), len(want[g]))
		}
	}
}
