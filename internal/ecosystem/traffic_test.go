package ecosystem

import (
	"reflect"
	"sync"
	"testing"

	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// TestDayIndependentOfCallOrder is the foundation of the parallel
// pipeline: a day's traffic depends only on (campaign, seed, day), not
// on which days were generated before it.
func TestDayIndependentOfCallOrder(t *testing.T) {
	c := tinyCampaign(t)
	d3 := simclock.MeasurementStart.Add(simclock.Days(3))
	d5 := simclock.MeasurementStart.Add(simclock.Days(5))

	seq := NewGenerator(c, 7)
	seq.Day(d3) // consume a prior day first
	got := seq.Day(d5)
	fresh := NewGenerator(c, 7).Day(d5)
	if !reflect.DeepEqual(got, fresh) {
		t.Error("day 5 traffic differs when day 3 is generated first")
	}
	if !reflect.DeepEqual(seq.Day(d3), NewGenerator(c, 7).Day(d3)) {
		t.Error("regenerating day 3 differs from a fresh generator")
	}
}

// TestDayConcurrentGeneration drives one generator from many goroutines
// and checks the output against a serial replay (run with -race).
func TestDayConcurrentGeneration(t *testing.T) {
	c := tinyCampaign(t)
	gen := NewGenerator(c, 7)
	const n = 6
	days := make([]simclock.Time, n)
	for i := range days {
		days[i] = simclock.MeasurementStart.Add(simclock.Days(i))
	}
	out := make([]*DayTraffic, n)
	var wg sync.WaitGroup
	for i := range days {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = gen.Day(days[i])
		}(i)
	}
	wg.Wait()
	serial := NewGenerator(c, 7)
	for i := range days {
		if !reflect.DeepEqual(out[i], serial.Day(days[i])) {
			t.Errorf("day %d: concurrent generation differs from serial", i)
		}
	}
}

func TestNameAtConcurrentEpisode(t *testing.T) {
	c := tinyCampaign(t)
	e := c.Entity
	// Tenure index 2 carries the 10-day concurrent-use episode.
	ten := e.Tenures[2]
	if ten.OverlapDays == 0 {
		t.Fatal("tenure 2 should carry the overlap episode")
	}
	early := e.NameAt(ten.Start)
	if len(early) != 1 || early[0] != ten.Name {
		t.Errorf("early tenure names = %v", early)
	}
	lateDay := ten.End.Add(-simclock.Days(2))
	late := e.NameAt(lateDay)
	if len(late) != 2 {
		t.Fatalf("overlap window names = %v, want 2", late)
	}
	if late[0] != ten.Name || late[1] != e.Tenures[3].Name {
		t.Errorf("overlap names = %v", late)
	}
	// Outside the window entirely.
	if got := e.NameAt(simclock.FromDate(2030, 1, 1)); got != nil {
		t.Errorf("out-of-window names = %v", got)
	}
}

func TestSkipIXPSensorsOnly(t *testing.T) {
	c := tinyCampaign(t)
	full := NewGenerator(c, 7)
	skip := NewGenerator(c, 7)
	skip.SkipIXP = true
	day := simclock.MeasurementStart.Add(simclock.Days(5))
	dtFull := full.Day(day)
	dtSkip := skip.Day(day)
	if dtSkip.Batch != nil {
		t.Fatalf("SkipIXP produced an IXP batch (%d records)", dtSkip.Batch.N)
	}
	if len(dtSkip.Sensors) != len(dtFull.Sensors) {
		t.Fatalf("sensor flows %d vs %d — must be identical in count", len(dtSkip.Sensors), len(dtFull.Sensors))
	}
	for i := range dtSkip.Sensors {
		a, b := dtSkip.Sensors[i], dtFull.Sensors[i]
		if a.Sensor != b.Sensor || a.Victim != b.Victim || a.Count != b.Count || a.EventID != b.EventID {
			t.Fatalf("sensor flow %d differs beyond TXID: %+v vs %+v", i, a, b)
		}
	}
}

func TestEntityRequestsTaggedWithIngress(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	// A post-relocation day must yield ingress-tagged request records.
	day := c.Entity.Reloc1.Add(simclock.Days(3))
	dt := g.Day(day)
	tagged := 0
	for _, in := range dt.Batch.Ingress {
		if in != 0 {
			tagged++
			if in != c.Entity.Ingress1 {
				t.Fatalf("ingress %d, want %d", in, c.Entity.Ingress1)
			}
		}
	}
	if tagged == 0 {
		t.Fatal("no ingress-tagged requests after relocation 1")
	}
	// And a pre-relocation day must not.
	dt0 := g.Day(simclock.MeasurementStart.Add(simclock.Days(2)))
	for _, in := range dt0.Batch.Ingress {
		if in != 0 {
			t.Fatal("ingress tag before relocation 1")
		}
	}
}

func TestBackgroundOnlyInMainWindow(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	after := simclock.MeasurementEnd.Add(simclock.Days(30))
	dt := g.Day(after)
	// Post-window days carry only (entity) attack traffic, which is
	// far sparser than a background day.
	mainDay := NewGenerator(c, 7).Day(simclock.MeasurementStart.Add(simclock.Days(3)))
	if dt.Batch.N >= mainDay.Batch.N {
		t.Errorf("extended-window day (%d records) should be sparser than main-window day (%d)",
			dt.Batch.N, mainDay.Batch.N)
	}
}

func TestRootEventsPreferAuthoritative(t *testing.T) {
	cfg := DefaultCampaignConfig(0.05)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	c := NewCampaign(cfg)
	authShare := func(amps []int) float64 {
		auth := 0
		for _, id := range amps {
			if c.Pool.Get(id).Kind == resolverAuthoritative {
				auth++
			}
		}
		if len(amps) == 0 {
			return 0
		}
		return float64(auth) / float64(len(amps))
	}
	var rootSum, otherSum float64
	var rootN, otherN int
	for _, ev := range c.Events {
		if ev.IsEntity {
			continue
		}
		if ev.QName == "." {
			rootSum += authShare(ev.Amplifiers)
			rootN++
		} else {
			otherSum += authShare(ev.Amplifiers)
			otherN++
		}
	}
	if rootN == 0 {
		t.Skip("no root events at this scale")
	}
	if rootSum/float64(rootN) <= otherSum/float64(otherN) {
		t.Errorf("root events should prefer authoritative amplifiers: %.3f vs %.3f",
			rootSum/float64(rootN), otherSum/float64(otherN))
	}
}

func TestSensorRequestIntensity(t *testing.T) {
	c := tinyCampaign(t)
	for _, ev := range c.Events {
		if len(ev.Sensors) == 0 {
			continue
		}
		if ev.ReqPerSensor < 5 {
			t.Fatalf("event %d sensor count %d below CCC threshold floor", ev.ID, ev.ReqPerSensor)
		}
	}
}

// BenchmarkTrafficDay is one day of columnar traffic synthesis (no
// frames): what a batch-study worker pays per day before aggregation.
func BenchmarkTrafficDay(b *testing.B) {
	cfg := DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	c := NewCampaign(cfg)
	g := NewGenerator(c, 7)
	day := simclock.MeasurementStart.Add(simclock.Days(10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Day(day.Add(simclock.Days(i % 30)))
	}
}
