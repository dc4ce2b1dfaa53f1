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
// datagram through deliver, the policy's pick and the receive on
// Items() allocates nothing under any policy, in the dispatcher's
// goroutine or the caller's. The source rings and the dispatcher's run
// are allocated once.
func TestDispatchZeroAllocSteadyState(t *testing.T) {
	for _, pol := range []string{PolicyRoundRobin, PolicyBacklog, PolicyArrival} {
		t.Run(pol, func(t *testing.T) {
			s := fakeSched(t, Config{Policy: pol}, idleRunner{})
			s.wg.Add(1)
			go s.dispatch()
			tk := &task{sv: s.sups[0], ctx: s.ctx}
			dg := &sflow.Datagram{Agent: [4]byte{203, 0, 113, 1}}
			c := int64(0)
			allocs := testing.AllocsPerRun(1000, func() {
				c++
				if !tk.deliver(dg, simclock.Time(c), c, 0) {
					t.Fatal("deliver refused a live task")
				}
				<-s.Items()
			})
			if allocs != 0 {
				t.Errorf("one datagram through the scheduler allocates %.2f times, want 0", allocs)
			}
		})
	}
}
