package ingest

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dnsamp/internal/simclock"
)

// scripted builds a scheduler over n sources that are never started,
// so the test alone fills the rings and moves the lifecycle states.
// Every source starts out finished (StateDone); setState is how a test
// makes one live.
func scripted(t *testing.T, pol string, n int, tun Tuning) *Scheduler {
	t.Helper()
	runners := make([]runner, n)
	for i := range runners {
		runners[i] = idleRunner{}
	}
	s := fakeSched(t, Config{Policy: pol, Tuning: tun}, runners...)
	for _, sv := range s.sups {
		sv.state.Store(int32(StateDone))
	}
	return s
}

// push appends items stamped at to source src's ring, as its adapter
// would, and wakes a blocked Next.
func push(s *Scheduler, src int, at ...simclock.Time) {
	sv := s.sups[src]
	s.mu.Lock()
	for _, a := range at {
		sv.buf.push(Item{SourceID: sv.spec.ID, At: a, Cursor: int64(a)})
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// ats lists a run's capture times, the scripted items' identities.
func ats(run []Item) []simclock.Time {
	out := make([]simclock.Time, len(run))
	for i, it := range run {
		out[i] = it.At
	}
	return out
}

// nextAsync runs one Next on its own goroutine.
func nextAsync(s *Scheduler, capacity int) <-chan []Item {
	ch := make(chan []Item, 1)
	go func() { ch <- s.Next(make([]Item, 0, capacity)) }()
	return ch
}

// await receives Next's run, failing after a generous guard.
func await(t *testing.T, ch <-chan []Item, what string) []Item {
	t.Helper()
	select {
	case run := <-ch:
		return run
	case <-time.After(10 * time.Second):
		t.Fatalf("Next never returned: %s", what)
		return nil
	}
}

// TestNextPickOrder: over rings filled before the first call, one Next
// pops in the policy's order, at most cap(run) items, and the next call
// picks up where it stopped.
func TestNextPickOrder(t *testing.T) {
	cases := []struct {
		pol   string
		rings [][]simclock.Time
		want  []simclock.Time
	}{
		// Round-robin cycles over the sources with data, from the first.
		{PolicyRoundRobin, [][]simclock.Time{{1, 2, 3}, {4}, {5, 6}}, []simclock.Time{1, 4, 5, 2, 6, 3}},
		// Arrival merges by capture time over finished sources.
		{PolicyArrival, [][]simclock.Time{{10, 40}, {20, 30}, {15}}, []simclock.Time{10, 15, 20, 30, 40}},
	}
	for _, c := range cases {
		for _, capacity := range []int{RunLen, 2} {
			t.Run(fmt.Sprintf("%s/cap=%d", c.pol, capacity), func(t *testing.T) {
				s := scripted(t, c.pol, len(c.rings), fastTuning())
				for i, r := range c.rings {
					push(s, i, r...)
				}
				var got []simclock.Time
				run := make([]Item, 0, capacity)
				for {
					if run = s.Next(run); len(run) == 0 {
						break
					}
					if len(run) > capacity {
						t.Fatalf("Next returned %d items into a run of capacity %d", len(run), capacity)
					}
					got = append(got, ats(run)...)
				}
				if !slices.Equal(got, c.want) {
					t.Fatalf("pick order %v, want %v", got, c.want)
				}
			})
		}
	}
}

// TestNextArrivalHolds: the arrival merge holds for a source that may
// still deliver, however much the others have buffered, and releases
// only what is older than that source's next datagram once it comes.
func TestNextArrivalHolds(t *testing.T) {
	// A stall deadline no test run reaches: only a delivery releases.
	tun := fastTuning()
	tun.StallAfter = time.Hour
	s := scripted(t, PolicyArrival, 3, tun)
	push(s, 0, 10, 40)
	push(s, 1, 20, 30)
	s.sups[2].setState(StateHealthy)
	ch := nextAsync(s, RunLen)
	push(s, 2, 15)
	if got, want := ats(await(t, ch, "source 2 delivered")), []simclock.Time{10, 15}; !slices.Equal(got, want) {
		t.Fatalf("first run %v, want %v: held again once source 2's ring was empty", got, want)
	}
	ch = nextAsync(s, RunLen)
	s.sups[2].setState(StateDone)
	if got, want := ats(await(t, ch, "source 2 finished")), []simclock.Time{20, 30, 40}; !slices.Equal(got, want) {
		t.Fatalf("second run %v, want %v", got, want)
	}
	if run := s.Next(make([]Item, 0, RunLen)); len(run) != 0 {
		t.Fatalf("Next after the last item returned %v, want the end of the stream", ats(run))
	}
}

// TestNextArrivalReleasesAfterStall: a live source that never delivers
// holds the merge for StallAfter, then one item goes, and the wait
// starts over for the next.
func TestNextArrivalReleasesAfterStall(t *testing.T) {
	tun := fastTuning()
	s := scripted(t, PolicyArrival, 2, tun)
	s.wg.Add(1)
	go s.watchdog() // its tick is what wakes the bounded wait
	s.sups[1].setState(StateHealthy)
	push(s, 0, 10, 20)
	for _, want := range []simclock.Time{10, 20} {
		t0 := time.Now()
		run := await(t, nextAsync(s, RunLen), "the bounded wait")
		if waited := time.Since(t0); waited < tun.StallAfter {
			t.Fatalf("released after %v, before StallAfter = %v", waited, tun.StallAfter)
		}
		if got := ats(run); !slices.Equal(got, []simclock.Time{want}) {
			t.Fatalf("released %v, want [%v]", got, want)
		}
	}
}

// TestNextEndOfStream: with every source finished and every ring
// drained, Next returns an empty run at once, and keeps doing so.
func TestNextEndOfStream(t *testing.T) {
	s := scripted(t, PolicyRoundRobin, 2, fastTuning())
	s.sups[0].setState(StateQuarantined)
	push(s, 1, 7)
	run := make([]Item, 0, RunLen)
	if run = s.Next(run); !slices.Equal(ats(run), []simclock.Time{7}) {
		t.Fatalf("Next returned %v, want the one buffered item", ats(run))
	}
	for i := 0; i < 2; i++ {
		if run = s.Next(run); len(run) != 0 {
			t.Fatalf("Next at the end of the stream returned %v", ats(run))
		}
	}
}

// TestStopWakesNext: a Next blocked on a live, empty source returns an
// empty run when the scheduler stops, and so does every later call,
// buffered items or not.
func TestStopWakesNext(t *testing.T) {
	s := scripted(t, PolicyRoundRobin, 1, fastTuning())
	s.sups[0].setState(StateHealthy)
	ch := nextAsync(s, RunLen)
	s.Stop()
	if run := await(t, ch, "Stop"); len(run) != 0 {
		t.Fatalf("a Next woken by Stop returned %v, want an empty run", ats(run))
	}
	push(s, 0, 1)
	if run := s.Next(make([]Item, 0, RunLen)); len(run) != 0 {
		t.Fatalf("Next after Stop returned %v, want an empty run", ats(run))
	}
}
