package honeypot

import (
	"net/netip"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/simclock"
)

func flow(sensor int, victim string, start simclock.Time, dur simclock.Duration, count int) ecosystem.SensorFlow {
	return ecosystem.SensorFlow{
		Sensor: sensor, Victim: netip.MustParseAddr(victim),
		Start: start, Duration: dur, Count: count,
		QName: "doj.gov.", QType: dnswire.TypeANY,
	}
}

func TestThresholdMinRequests(t *testing.T) {
	p := NewPlatform(CCCThresholds(), 80)
	t0 := simclock.MeasurementStart
	p.Observe(flow(1, "11.0.0.1", t0, 600, 4)) // below 5 requests
	p.Observe(flow(2, "11.0.0.2", t0, 600, 5)) // at threshold
	attacks := p.Finalize()
	if len(attacks) != 1 {
		t.Fatalf("attacks = %d, want 1", len(attacks))
	}
	if attacks[0].Victim.String() != "11.0.0.2" {
		t.Errorf("wrong victim: %v", attacks[0].Victim)
	}
}

func TestThresholdMaxGap(t *testing.T) {
	p := NewPlatform(CCCThresholds(), 80)
	t0 := simclock.MeasurementStart
	// 10 requests over 3 hours: gap = 10800/9 = 1200s > 900s -> drop.
	p.Observe(flow(1, "11.0.0.1", t0, 3*simclock.Hour, 10))
	// 10 requests over 1 hour: gap 400s -> keep.
	p.Observe(flow(2, "11.0.0.2", t0, simclock.Hour, 10))
	attacks := p.Finalize()
	if len(attacks) != 1 || attacks[0].Victim.String() != "11.0.0.2" {
		t.Fatalf("gap rule failed: %+v", attacks)
	}
}

// TestAcceptsBoundaries pins the CCC rule as Accepts states it, at both
// edges: the request floor and the largest even-spacing gap.
func TestAcceptsBoundaries(t *testing.T) {
	cfg := CCCThresholds()
	t0 := simclock.MeasurementStart
	for _, tc := range []struct {
		f    ecosystem.SensorFlow
		want bool
	}{
		{flow(1, "11.0.0.1", t0, 600, 4), false},                     // below 5 requests
		{flow(1, "11.0.0.1", t0, 600, 5), true},                      // at the floor
		{flow(1, "11.0.0.1", t0, 4*900*simclock.Second, 5), true},    // gap exactly 900 s
		{flow(1, "11.0.0.1", t0, 4*900*simclock.Second+4, 5), false}, // gap just above
		{flow(1, "11.0.0.1", t0, 3*simclock.Hour, 10), false},
	} {
		if got := cfg.Accepts(tc.f); got != tc.want {
			t.Errorf("Accepts(%d requests over %v) = %v, want %v", tc.f.Count, tc.f.Duration, got, tc.want)
		}
		p := NewPlatform(cfg, 80)
		p.Observe(tc.f)
		if got := len(p.Finalize()) == 1; got != tc.want {
			t.Errorf("Observe of %d requests over %v kept it: %v, Accepts says %v", tc.f.Count, tc.f.Duration, got, tc.want)
		}
	}
}

func TestAmpPotThresholdsStricter(t *testing.T) {
	ccc := NewPlatform(CCCThresholds(), 80)
	amp := NewPlatform(AmpPotThresholds(), 80)
	t0 := simclock.MeasurementStart
	f := flow(1, "11.0.0.1", t0, simclock.Hour, 50) // 50 requests
	ccc.Observe(f)
	amp.Observe(f)
	if len(ccc.Finalize()) != 1 {
		t.Error("CCC should detect 50 requests")
	}
	if len(amp.Finalize()) != 0 {
		t.Error("AmpPot (min 100) should not detect 50 requests")
	}
}

func TestMergeAcrossSensors(t *testing.T) {
	p := NewPlatform(CCCThresholds(), 80)
	t0 := simclock.MeasurementStart
	for s := 0; s < 10; s++ {
		p.Observe(flow(s, "11.0.0.1", t0, simclock.Hour, 20))
	}
	attacks := p.Finalize()
	if len(attacks) != 1 {
		t.Fatalf("attacks = %d, want 1 merged", len(attacks))
	}
	a := attacks[0]
	if len(a.Sensors) != 10 {
		t.Errorf("sensors = %d, want 10", len(a.Sensors))
	}
	if a.Requests != 200 {
		t.Errorf("requests = %d, want 200", a.Requests)
	}
}

func TestSplitByGap(t *testing.T) {
	p := NewPlatform(CCCThresholds(), 80)
	t0 := simclock.MeasurementStart
	p.Observe(flow(1, "11.0.0.1", t0, simclock.Hour, 20))
	// Second burst 2 hours after the first ends: separate attack.
	p.Observe(flow(1, "11.0.0.1", t0.Add(3*simclock.Hour), simclock.Hour, 20))
	attacks := p.Finalize()
	if len(attacks) != 2 {
		t.Fatalf("attacks = %d, want 2 (split by gap)", len(attacks))
	}
}

func TestMergeOverlapping(t *testing.T) {
	p := NewPlatform(CCCThresholds(), 80)
	t0 := simclock.MeasurementStart
	p.Observe(flow(1, "11.0.0.1", t0, simclock.Hour, 20))
	p.Observe(flow(2, "11.0.0.1", t0.Add(30*simclock.Minute), simclock.Hour, 20))
	attacks := p.Finalize()
	if len(attacks) != 1 {
		t.Fatalf("attacks = %d, want 1 (overlapping)", len(attacks))
	}
	if attacks[0].End.Sub(attacks[0].Start) != 90*simclock.Minute {
		t.Errorf("merged span = %v", attacks[0].End.Sub(attacks[0].Start))
	}
}

func TestFinalizeDeterministicOrder(t *testing.T) {
	build := func() []*Attack {
		p := NewPlatform(CCCThresholds(), 80)
		t0 := simclock.MeasurementStart
		p.Observe(flow(1, "11.0.0.9", t0.Add(simclock.Hour), simclock.Hour, 20))
		p.Observe(flow(1, "11.0.0.1", t0, simclock.Hour, 20))
		p.Observe(flow(1, "11.0.0.5", t0, simclock.Hour, 20))
		return p.Finalize()
	}
	a := build()
	b := build()
	if len(a) != 3 || len(b) != 3 {
		t.Fatal("expected 3 attacks")
	}
	for i := range a {
		if a[i].Victim != b[i].Victim || a[i].Start != b[i].Start {
			t.Fatal("Finalize order not deterministic")
		}
	}
	if a[0].Victim.String() != "11.0.0.1" {
		t.Errorf("order wrong: %v", a[0].Victim)
	}
}

func TestConvergenceCurve(t *testing.T) {
	p := NewPlatform(CCCThresholds(), 10)
	t0 := simclock.MeasurementStart
	// 10 victims, each visible on all sensors: one sensor suffices.
	for v := 0; v < 10; v++ {
		victim := netip.AddrFrom4([4]byte{11, 0, 1, byte(v)})
		for s := 0; s < 10; s++ {
			p.Observe(ecosystem.SensorFlow{
				Sensor: s, Victim: victim, Start: t0, Duration: simclock.Hour,
				Count: 20, QName: "doj.gov.",
			})
		}
	}
	attacks := p.Finalize()
	curve := Convergence(attacks, 10)
	if curve[0] != 1 {
		t.Errorf("full-coverage convergence[0] = %v, want 1", curve[0])
	}
	// Partial coverage: victim seen by one sensor only.
	p2 := NewPlatform(CCCThresholds(), 4)
	for s := 0; s < 4; s++ {
		victim := netip.AddrFrom4([4]byte{11, 0, 2, byte(s)})
		p2.Observe(ecosystem.SensorFlow{
			Sensor: s, Victim: victim, Start: t0, Duration: simclock.Hour,
			Count: 20, QName: "doj.gov.",
		})
	}
	curve2 := Convergence(p2.Finalize(), 4)
	if curve2[0] != 0.25 || curve2[3] != 1 {
		t.Errorf("disjoint convergence = %v", curve2)
	}
}

func TestConvergenceEmpty(t *testing.T) {
	curve := Convergence(nil, 5)
	for _, v := range curve {
		if v != 1 {
			t.Error("empty attack set should read as fully converged")
		}
	}
}

func TestQNamesRecorded(t *testing.T) {
	p := NewPlatform(CCCThresholds(), 80)
	t0 := simclock.MeasurementStart
	f := flow(1, "11.0.0.1", t0, simclock.Hour, 20)
	f.QName = "peacecorps.gov."
	p.Observe(f)
	attacks := p.Finalize()
	if len(attacks) != 1 || !attacks[0].QNames["peacecorps.gov."] {
		t.Error("query names not recorded")
	}
}
