package pipeline

import (
	"reflect"
	"testing"

	"dnsamp/internal/core"
)

// sweepGrid is a small thresholds grid spanning loose to strict.
var sweepGrid = []core.Thresholds{
	{MinShare: 0.50, MinPackets: 5},
	{MinShare: 0.90, MinPackets: 5},
	{MinShare: 0.90, MinPackets: 10},
	{MinShare: 0.90, MinPackets: 50},
	{MinShare: 0.99, MinPackets: 10},
}

// snapshotDetections deep-copies a detection list so later re-Detect
// calls cannot alias it.
func snapshotDetections(dets []*core.Detection) []core.Detection {
	out := make([]core.Detection, len(dets))
	for i, d := range dets {
		out[i] = *d
	}
	return out
}

// TestRedetectSweepMatchesFreshRuns is the threshold-sweep determinism
// gate the eval harness depends on: N re-Detect invocations over one
// aggregate must equal N independent fresh Run(cfg) studies, point for
// point, with the pass-1 aggregates physically untouched throughout.
func TestRedetectSweepMatchesFreshRuns(t *testing.T) {
	cfg := runnerConfig()
	cfg.Concurrency = 8

	r := NewRunner(cfg)
	r.Detect()
	agg := r.Current().AggMain

	swept := make([][]core.Detection, len(sweepGrid))
	for i, th := range sweepGrid {
		r.Cfg.Thresholds = th
		r.Detect()
		swept[i] = snapshotDetections(r.Current().Detections)
	}
	if r.Current().AggMain != agg {
		t.Fatal("sweep rebuilt the pass-1 aggregates")
	}

	for i, th := range sweepGrid {
		fresh := cfg
		fresh.Thresholds = th
		want := snapshotDetections(Run(fresh).Detections)
		if !reflect.DeepEqual(swept[i], want) {
			t.Errorf("grid point %+v: re-Detect got %d detections, fresh run %d (or contents differ)",
				th, len(swept[i]), len(want))
		}
	}

	// The sweep must also be order-independent: walking the grid
	// backwards over the same runner reproduces each point exactly.
	for i := len(sweepGrid) - 1; i >= 0; i-- {
		r.Cfg.Thresholds = sweepGrid[i]
		r.Detect()
		if got := snapshotDetections(r.Current().Detections); !reflect.DeepEqual(got, swept[i]) {
			t.Errorf("grid point %+v: reverse-order re-Detect differs from forward pass", sweepGrid[i])
		}
	}
}

// TestForceNamesBypassesConsensus pins the eval harness hook: Select
// with ForceNames set must produce exactly the forced name list without
// touching the selectors, and Detect must run against it.
func TestForceNamesBypassesConsensus(t *testing.T) {
	cfg := runnerConfig()
	cfg.Concurrency = 4

	forced := []string{"doj.gov", "nsf.gov", "peacecorps.gov"}
	r := NewRunner(cfg)
	r.ForceNames = forced
	r.Detect()
	st := r.Current()

	if st.NameList == nil || len(st.NameList.Names) != len(forced) {
		t.Fatalf("NameList = %+v, want exactly the %d forced names", st.NameList, len(forced))
	}
	for _, n := range forced {
		if !st.NameList.Names[n] {
			t.Errorf("forced name %q missing from NameList", n)
		}
	}
	if st.ConsensusN != 0 || st.ConsensusCurve != nil {
		t.Error("ForceNames ran the consensus sweep anyway")
	}

	// The forced list is a subset of the full campaign's candidate
	// space, so detections must be a subset of (or equal to) an
	// unforced run's at the same thresholds, keyed by victim-day.
	fullKeys := make(map[core.ClientDay]bool)
	for _, d := range Run(cfg).Detections {
		fullKeys[core.ClientDay{Client: d.Victim, Day: d.Day}] = true
	}
	for _, d := range st.Detections {
		if !fullKeys[core.ClientDay{Client: d.Victim, Day: d.Day}] {
			t.Errorf("forced-name detection (%v, %d) absent from full run", d.Victim, d.Day)
		}
	}
}
