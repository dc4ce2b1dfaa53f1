package core_test

// The aggregation layer's benchmarks over generated traffic. They sit
// in the external test package because the traffic comes from
// internal/ecosystem, which the rest of this package's tests do not
// need.

import (
	"testing"

	"dnsamp/internal/core"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
)

// benchTraffic is the campaign and day generator the benchmarks below
// draw their traffic from.
func benchTraffic() (*ecosystem.Campaign, *ecosystem.Generator) {
	cfg := ecosystem.DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	c := ecosystem.NewCampaign(cfg)
	return c, ecosystem.NewGenerator(c, 7)
}

// BenchmarkObserveBatch measures the batch-native pass-1 loop:
// RemapBatch (stats + routing coverage over the AS cache) feeding
// Aggregator.ObserveBatch directly, one generated day per iteration.
// Must report 0 allocs/op.
func BenchmarkObserveBatch(b *testing.B) {
	c, g := benchTraffic()
	dt := g.Day(simclock.MeasurementStart.Add(simclock.Days(10)), nil)
	cap := ixp.NewCapturePoint(c.Topo, g.Table())
	ag := core.NewAggregator(g.Table(), c.DB.ExplicitNames())
	ag.ObserveBatch(cap.RemapBatch(dt.Batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ag.ObserveBatch(cap.RemapBatch(dt.Batch))
	}
}

// BenchmarkDetectColumnar measures the threshold scan over the flat
// client-day arena: candidate resolution into the dense mark column,
// the cand/total column fill, and the branch-light integer pass.
func BenchmarkDetectColumnar(b *testing.B) {
	c, g := benchTraffic()
	cap := ixp.NewCapturePoint(c.Topo, g.Table())
	ag := core.NewAggregator(g.Table(), c.DB.ExplicitNames())
	for d := 0; d < 7; d++ {
		dt := g.Day(simclock.MeasurementStart.Add(simclock.Days(10+d)), nil)
		ag.ObserveBatch(cap.RemapBatch(dt.Batch))
	}
	ag = core.MergeShards([]*core.Aggregator{ag})
	cands := map[string]bool{}
	for _, n := range c.DB.MisusedCandidates() {
		cands[n] = true
	}
	th := core.DefaultThresholds()
	if len(core.Detect(ag, cands, th)) == 0 {
		b.Fatal("benchmark sweep found no detections")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Detect(ag, cands, th)
	}
}

// BenchmarkCollectorObserveBatch measures pass 2's reject scan: a
// collector over one generated day's detections sweeps the next day,
// whose rows all reject — most on the dense candidate column, which
// reads a row's Name alone, the candidate rows on the (client, day)
// lookup. Must report 0 allocs/op.
func BenchmarkCollectorObserveBatch(b *testing.B) {
	c, g := benchTraffic()
	day := simclock.MeasurementStart.Add(simclock.Days(10))
	cap := ixp.NewCapturePoint(c.Topo, g.Table())
	ag := core.NewAggregator(g.Table(), c.DB.ExplicitNames())
	ag.ObserveBatch(cap.RemapBatch(g.Day(day, nil).Batch))
	cands := map[string]bool{}
	for _, n := range c.DB.MisusedCandidates() {
		cands[n] = true
	}
	dets := core.Detect(core.MergeShards([]*core.Aggregator{ag}), cands, core.DefaultThresholds())
	if len(dets) == 0 {
		b.Fatal("no detections to collect for")
	}
	col := core.NewCollector(core.NewCandidates(g.Table(), cands), dets)
	next := g.Day(day.Add(simclock.Day), nil).Batch
	col.ObserveBatch(next, c.Topo)
	for _, rec := range col.Records() {
		if rec.Packets != 0 {
			b.Fatalf("victim %v collected %d packets of the next day, want every row rejected", rec.Victim, rec.Packets)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.ObserveBatch(next, c.Topo)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*next.N), "ns/row")
}
