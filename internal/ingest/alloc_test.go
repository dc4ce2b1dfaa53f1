//go:build !race

// Compiled out under the race detector, whose instrumentation allocates
// (the convention of internal/core's alloc guards).

package ingest

import (
	"testing"

	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// TestDispatchZeroAllocSteadyState guards the scheduler's hand-off: one
// datagram through deliver (the copy into its chunk included), the
// policy's pick, either a Next (the service's path) or the receive on
// Items(), and its release allocates nothing under any policy, in the
// caller's goroutine or the relay's. The source rings, the run, the
// Items() channel and the chunks are allocated once.
func TestDispatchZeroAllocSteadyState(t *testing.T) {
	for _, pol := range []string{PolicyRoundRobin, PolicyArrival} {
		t.Run(pol, func(t *testing.T) {
			for _, via := range []string{"next", "items"} {
				t.Run(via, func(t *testing.T) {
					s := fakeSched(t, Config{Policy: pol}, idleRunner{})
					run := make([]Item, 0, RunLen)
					take := func() {
						if run = s.Next(run); len(run) != 1 {
							t.Fatalf("Next returned %d items, want the 1 delivered", len(run))
						}
						run[0].Release()
					}
					if via == "items" {
						items := s.Items()
						take = func() {
							it := <-items
							it.Release()
						}
					}
					tk := &task{sv: s.sups[0], ctx: s.ctx, w: NewWriter()}
					dg := &sflow.Datagram{Agent: [4]byte{203, 0, 113, 1}, Samples: []sflow.FlowSample{
						{Seq: 1, Rate: sflow.DefaultRate, FrameLen: 90, Header: make([]byte, 90)},
					}}
					c := int64(0)
					allocs := testing.AllocsPerRun(1000, func() {
						c++
						if !tk.deliver(dg, simclock.Time(c), c, 0) {
							t.Fatal("deliver refused a live task")
						}
						take()
					})
					if allocs != 0 {
						t.Errorf("one datagram through the scheduler allocates %.2f times, want 0", allocs)
					}
				})
			}
		})
	}
}
