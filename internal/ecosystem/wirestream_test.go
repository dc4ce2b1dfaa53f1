package ecosystem_test

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/scenario"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// checkWireOrder holds a stream of days [MeasurementStart, +days) to
// its reference: every day materialised at once by day, then
// stable-sorted by capture time. The two must agree record for record
// (time, frame, Seq, ingress). It returns the record count and how
// many records lie past their generation day's midnight.
func checkWireOrder(t *testing.T, got sflow.RecordSource, days int, day func(simclock.Time) []ecosystem.TaggedRecord) (n, spilled int) {
	t.Helper()
	var want []ecosystem.TaggedRecord
	for d := range days {
		start := simclock.MeasurementStart.Add(simclock.Days(d))
		recs := day(start)
		for _, tr := range recs {
			if !tr.Rec.Time.Before(start.Add(simclock.Day)) {
				spilled++
			}
		}
		want = append(want, recs...)
	}
	slices.SortStableFunc(want, func(a, b ecosystem.TaggedRecord) int {
		return int(a.Rec.Time.Sub(b.Rec.Time))
	})
	for i := 0; ; i++ {
		rec, ingress, err := got.Next()
		if errors.Is(err, io.EOF) {
			if i != len(want) {
				t.Fatalf("stream ends after %d records, the reference holds %d", i, len(want))
			}
			return len(want), spilled
		}
		if err != nil {
			t.Fatal(err)
		}
		if i == len(want) {
			t.Fatalf("stream runs past the reference's %d records", len(want))
		}
		w := want[i]
		if rec.Time != w.Rec.Time || rec.Seq != w.Rec.Seq || rec.FrameLen != w.Rec.FrameLen ||
			!bytes.Equal(rec.Frame, w.Rec.Frame) || ingress != w.Ingress {
			t.Fatalf("record %d: at %v seq %d ingress %d, want at %v seq %d ingress %d (or the frames differ)",
				i, rec.Time, rec.Seq, ingress, w.Rec.Time, w.Rec.Seq, w.Ingress)
		}
	}
}

// TestWireStreamMatchesSort: a campaign streamed day by day, with the
// records past each midnight carried into the next day, is the stable
// time sort of all its days at once. The campaign is the synthetic:
// input's (scale 0.02, 6 days, seed 3), whose events straddle
// midnights; the scenario catalog is run at the eval smoke's params.
func TestWireStreamMatchesSort(t *testing.T) {
	t.Run("campaign", func(t *testing.T) {
		const days, seed = 6, 3
		cfg := ecosystem.DefaultCampaignConfig(0.02)
		cfg.Zones.ProceduralNames = 20_000
		cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: seed}
		gen := ecosystem.NewGenerator(ecosystem.NewCampaign(cfg), seed)
		wire := func(day simclock.Time) []ecosystem.TaggedRecord { return gen.WireDay(day).IXP }
		s := ecosystem.NewWireStream(simclock.MeasurementStart, days, func(day simclock.Time) ([]ecosystem.TaggedRecord, error) {
			return wire(day), nil
		})
		n, spilled := checkWireOrder(t, s, days, wire)
		if spilled == 0 {
			t.Fatal("no record runs past its day's midnight: the carry is untested")
		}
		t.Logf("%d records, %d past their day's midnight", n, spilled)
	})
	env := scenario.NewEnv(scenario.Params{Days: 6, Scale: 0.03, ProceduralNames: 20_000, CampaignSeed: 1, TrafficSeed: 11})
	for _, sc := range scenario.Catalog() {
		t.Run(sc.Name, func(t *testing.T) {
			bt := env.Build(sc, 42)
			n, spilled := checkWireOrder(t, bt.WireStream(), env.P.Days, bt.WireDay)
			t.Logf("%d records, %d past their day's midnight", n, spilled)
		})
	}
}
