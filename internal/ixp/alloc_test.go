//go:build !race

// The AllocsPerRun guards are compiled out under the race detector:
// race instrumentation adds its own allocations, which is noise, not a
// hot-path regression. CI runs them in the non-race build job.

package ixp_test

import (
	"testing"

	"dnsamp/internal/core"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// TestObserveBatchZeroAllocSteadyState guards the batch-native pass-1
// loop end to end: RemapBatch (the batch's tally, identity table view)
// feeding Aggregator.ObserveBatch must not allocate per batch once the name
// slots and client-day arena exist — this is the loop the pipeline's
// Aggregate stage now spends its life in.
func TestObserveBatchZeroAllocSteadyState(t *testing.T) {
	cfg := ecosystem.DefaultCampaignConfig(0.002)
	cfg.Zones.ProceduralNames = 5000
	cfg.Topology = topology.Config{Members: 12, ASesPerClass: 20, Seed: 1}
	c := ecosystem.NewCampaign(cfg)
	gen := ecosystem.NewGenerator(c, 7)
	dt := gen.Day(simclock.MeasurementStart.Add(simclock.Days(3)), nil)
	if dt.Batch == nil || dt.Batch.N == 0 {
		t.Fatal("no batch records")
	}

	cap := ixp.NewCapturePoint(nil, gen.Table())
	ag := core.NewAggregator(gen.Table(), c.DB.ExplicitNames())
	// Warm pass: creates every aggregation slot.
	ag.ObserveBatch(cap.RemapBatch(dt.Batch))

	allocs := testing.AllocsPerRun(3, func() {
		ag.ObserveBatch(cap.RemapBatch(dt.Batch))
	})
	perPacket := allocs / float64(dt.Batch.N)
	if perPacket > 0.001 {
		t.Errorf("RemapBatch+ObserveBatch steady state: %.4f allocs/packet over %d packets, want 0",
			perPacket, dt.Batch.N)
	}
}

// TestDayGenerationAllocBound guards the synthesis side: materializing
// a full day must stay far under one allocation per packet (templates,
// sensor flows, and the batch columns themselves are amortized).
func TestDayGenerationAllocBound(t *testing.T) {
	cfg := ecosystem.DefaultCampaignConfig(0.002)
	cfg.Zones.ProceduralNames = 5000
	cfg.Topology = topology.Config{Members: 12, ASesPerClass: 20, Seed: 1}
	c := ecosystem.NewCampaign(cfg)
	gen := ecosystem.NewGenerator(c, 7)
	day := simclock.MeasurementStart.Add(simclock.Days(3))
	dt := gen.Day(day, nil)
	if dt.Batch == nil || dt.Batch.N == 0 {
		t.Fatal("no batch records")
	}

	allocs := testing.AllocsPerRun(3, func() { gen.Day(day, nil) })
	perPacket := allocs / float64(dt.Batch.N)
	if perPacket > 0.5 {
		t.Errorf("Day generation: %.3f allocs/packet over %d packets, want < 0.5",
			perPacket, dt.Batch.N)
	}
}

// TestProcessZeroAllocKnownName guards the live consumer's per-sample
// step: once a day's names are interned, sanitising its frames again —
// queries and truncated responses, accepted and dropped — allocates
// nothing.
func TestProcessZeroAllocKnownName(t *testing.T) {
	day := wireDay(t)
	cp := ixp.NewCapturePoint(nil, nil)
	pass := func() {
		for _, tr := range day {
			cp.Process(tr.Rec)
		}
	}
	pass() // interns every name
	if cp.Stats.Accepted == 0 {
		t.Fatal("nothing accepted")
	}
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Errorf("Process over %d known-name frames: %.0f allocs, want 0", len(day), allocs)
	}
}
