package pipeline

import (
	"reflect"
	"sync/atomic"
	"testing"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
	"dnsamp/internal/topology"
)

// fullDays is pass 2's oracle: a synthetic source whose DayFor ignores
// the clients and returns the whole day.
type fullDays struct{ *source.Synthetic }

func (s fullDays) DayFor(day simclock.Time, _ [][4]byte, scratch *ixp.SampleBatch) *ixp.SampleBatch {
	b, _ := s.DayFlows(day, scratch)
	return b
}

// attackOnly is a wrong pass 2: it never runs the background loop.
type attackOnly struct{ *source.Synthetic }

func (s attackOnly) DayFor(day simclock.Time, _ [][4]byte, scratch *ixp.SampleBatch) *ixp.SampleBatch {
	return s.Synthetic.DayFor(day, nil, scratch)
}

// branchCount is the synthetic source itself, counting the DayFor calls
// that ran the background loop (some client is a background client) and
// those that skipped it, told apart by comparison with the day's attack
// rows alone.
type branchCount struct {
	*source.Synthetic
	background, skipped *atomic.Int32
}

func (s branchCount) DayFor(day simclock.Time, clients [][4]byte, scratch *ixp.SampleBatch) *ixp.SampleBatch {
	b := s.Synthetic.DayFor(day, clients, scratch)
	if b.N > s.Synthetic.DayFor(day, nil, nil).N {
		s.background.Add(1)
	} else {
		s.skipped.Add(1)
	}
	return b
}

// TestCollectMatchesFullDays holds pass 2's exactness: a Study whose
// collectors read DayFor's client rows is DeepEqual to one whose
// collectors read every row of every day, serial and worker-pooled. The
// configuration (the bench topology at scale 0.02, campaign seed 8) has
// pass-2 days with a background-client victim, so both of DayFor's
// branches run, and that victim's records hold background rows, so a
// pass 2 that skipped the background loop on those days would differ.
func TestCollectMatchesFullDays(t *testing.T) {
	cfg := DefaultConfig(0.02)
	cfg.Campaign.Seed = 8
	cfg.Campaign.Zones.ProceduralNames = 20_000
	cfg.Campaign.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	cfg.ExtendedWindow = false
	c := ecosystem.NewCampaign(cfg.Campaign)
	syn := source.NewSynthetic(ecosystem.NewGenerator(c, cfg.TrafficSeed), simclock.MainPeriod())

	for _, conc := range []int{1, 8} {
		cfg.Concurrency = conc
		var background, skipped atomic.Int32
		got := NewRunnerWithSource(cfg, c, branchCount{syn, &background, &skipped}).Study()
		want := NewRunnerWithSource(cfg, c, fullDays{syn}).Study()
		if !reflect.DeepEqual(got, want) {
			checkStudiesEqual(t, "DayFor vs full days", want, got)
			t.Fatalf("concurrency %d: Study differs from the full-day oracle", conc)
		}
		if background.Load() == 0 || skipped.Load() == 0 {
			t.Fatalf("concurrency %d: %d pass-2 days ran the background loop, %d skipped it; want both branches",
				conc, background.Load(), skipped.Load())
		}
		t.Logf("concurrency %d: %d pass-2 days with a background-client victim, %d without",
			conc, background.Load(), skipped.Load())
	}
	want := NewRunnerWithSource(cfg, c, fullDays{syn}).Study()
	if wrong := NewRunnerWithSource(cfg, c, attackOnly{syn}).Study(); reflect.DeepEqual(wrong.Records, want.Records) {
		t.Fatal("records do not depend on the background rows: the comparison cannot see the background branch")
	}
}
