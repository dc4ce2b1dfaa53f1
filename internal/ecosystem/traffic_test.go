package ecosystem

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dnsamp/internal/ixp"
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
	seq.Day(d3, nil) // consume a prior day first
	got := seq.Day(d5, nil)
	fresh := NewGenerator(c, 7).Day(d5, nil)
	if !reflect.DeepEqual(got, fresh) {
		t.Error("day 5 traffic differs when day 3 is generated first")
	}
	if !reflect.DeepEqual(seq.Day(d3, nil), NewGenerator(c, 7).Day(d3, nil)) {
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
			out[i] = gen.Day(days[i], nil)
		}(i)
	}
	wg.Wait()
	serial := NewGenerator(c, 7)
	for i := range days {
		if !reflect.DeepEqual(out[i], serial.Day(days[i], nil)) {
			t.Errorf("day %d: concurrent generation differs from serial", i)
		}
	}
}

// TestDayScratchReuse holds a reused scratch batch to a fresh one. Day
// and DayFor synthesized one after the other into one scratch, over
// every third day of the main period and ten days after it in shuffled
// order, return the scratch holding exactly the batch a nil scratch
// gets, with the same sensor flows; so do four concurrent callers, each
// over its own scratch (under -race, the pipeline's per-worker
// batches). DayFor asks for the day's victims, so a whole day and an
// attack-only day alternate in one scratch.
func TestDayScratchReuse(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	var days []simclock.Time
	for d := simclock.MeasurementStart; d < simclock.MeasurementEnd; d = d.Add(simclock.Days(3)) {
		days = append(days, d)
	}
	for i := range 10 {
		days = append(days, simclock.MeasurementEnd.Add(simclock.Days(i)))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(days), func(i, j int) { days[i], days[j] = days[j], days[i] })
	type want struct{ day, dayFor *DayTraffic }
	wants := make(map[simclock.Time]want, len(days))
	victims := make(map[simclock.Time][][4]byte, len(days))
	for _, d := range days {
		for _, ev := range c.EventsOnDay(d) {
			victims[d] = append(victims[d], ev.VictimKey())
		}
		wants[d] = want{g.Day(d, nil), g.DayFor(d, victims[d], nil)}
	}
	check := func(scratch *ixp.SampleBatch, d simclock.Time) error {
		for _, call := range []struct {
			name string
			day  func() *DayTraffic
			want *DayTraffic
		}{
			{"Day", func() *DayTraffic { return g.Day(d, scratch) }, wants[d].day},
			{"DayFor", func() *DayTraffic { return g.DayFor(d, victims[d], scratch) }, wants[d].dayFor},
		} {
			got := call.day()
			if got.Batch != scratch {
				return fmt.Errorf("day %s: %s returned a batch other than the scratch", d.Date(), call.name)
			}
			if !reflect.DeepEqual(rows(got.Batch), rows(call.want.Batch)) || !reflect.DeepEqual(got.Sensors, call.want.Sensors) {
				return fmt.Errorf("day %s: %s into a reused scratch differs from a fresh batch", d.Date(), call.name)
			}
		}
		return nil
	}
	var scratch ixp.SampleBatch
	for _, d := range days {
		if err := check(&scratch, d); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch ixp.SampleBatch
			for i := w; i < len(days) && errs[w] == nil; i += len(errs) {
				errs[w] = check(&scratch, days[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// rows returns a copy of b whose empty columns are nil: a reused batch
// keeps an emptied column's array where a fresh batch of no rows holds
// none, and no reader tells the two apart.
func rows(b *ixp.SampleBatch) ixp.SampleBatch {
	c := *b
	v := reflect.ValueOf(&c).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.SetZero()
		}
	}
	return c
}

// TestSizeCacheLanes holds every size-cache lane to the size it stands
// for, min(DB.ResponseSize, sizeCap) (DB.ResponseSize itself for a name
// with an explicit zone, which bypasses the cache): in every qtype slot,
// for the root, every hashed ID, the first and last ranks of the name
// Zipf, and, in a namespace larger than those ranks, IDs past rank
// 200 000, which only the ANY slot covers. Each ID is asked twice, so
// the second answer is read back from its lane. At the benchmark's zone
// database (20 000 bulk names) the whole cache stays within 4 MiB.
func TestSizeCacheLanes(t *testing.T) {
	cfg := DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = namespaceRanks + 50_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	c := NewCampaign(cfg)
	g := NewGenerator(c, 7)
	at := simclock.MeasurementStart.Add(simclock.Days(3))
	var ids []uint32
	for id := range g.procBase {
		ids = append(ids, id)
	}
	for _, r := range []uint32{0, 1, 2, namespaceRanks - 2, namespaceRanks - 1, namespaceRanks, namespaceRanks + 1} {
		ids = append(ids, g.procBase+r)
	}
	for r := uint32(3); r < uint32(c.DB.NumProceduralNames()); r += 37 {
		ids = append(ids, g.procBase+r)
	}
	ids = append(ids, uint32(g.table.Len()-1))
	capped, uncovered := 0, 0
	for slot, qtype := range qtypeSlots {
		for _, id := range ids {
			want := c.DB.ResponseSize(g.table.Name(id), qtype, at)
			if !g.explicit(id) {
				if want > sizeCap {
					capped++
				}
				want = min(want, sizeCap)
			}
			for range 2 {
				if got := g.responseSizeFor(id, qtype, at); got != want {
					t.Fatalf("slot %d (%v), ID %d %q: size %d, want %d", slot, qtype, id, g.table.Name(id), got, want)
				}
			}
			w, shift := g.sizes.word(slot, id)
			if w == nil {
				uncovered++
				if slot == 0 || id < g.procBase+namespaceRanks {
					t.Fatalf("slot %d (%v) does not cover ID %d", slot, qtype, id)
				}
				continue
			}
			if lane := int(w.Load() >> shift & 0xffff); !g.explicit(id) && lane != want {
				t.Fatalf("slot %d (%v), ID %d: lane holds %d, want %d", slot, qtype, id, lane, want)
			}
		}
	}
	if capped == 0 || uncovered == 0 {
		t.Fatalf("%d sizes above the cap, %d IDs past a typed slot: the check cannot see the cap or the cover", capped, uncovered)
	}
	bytes := 0
	for _, lanes := range NewGenerator(tinyCampaign(t), 7).sizes.lanes {
		bytes += 4 * len(lanes)
	}
	t.Logf("size cache at 20 000 bulk names: %d bytes", bytes)
	if bytes > 4<<20 {
		t.Errorf("size cache at 20 000 bulk names holds %d bytes, want at most 4 MiB", bytes)
	}
}

// TestDayForHoldsClientRows is DayFor's exactness contract, over every
// day of the main period: for each client set, the rows of DayFor whose
// client is in the set equal the same rows of Day, in order, column for
// column, and the sensor flows are Day's. The sets cover both branches:
// none and the day's event victims skip the background loop (unless a
// victim happens to be a background client), one background client
// ahead of the victims and background clients alone run it.
func TestDayForHoldsClientRows(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	skipped, next := 0, 0
	// bg walks the background population, a different client per call.
	bg := func() [4]byte {
		next = (next + 7919) % len(g.bgClients)
		return g.bgClients[next].As4()
	}
	simclock.MainPeriod().EachDay(func(day simclock.Time) {
		full := g.Day(day, nil)
		var victims [][4]byte
		for _, ev := range c.EventsOnDay(day) {
			victims = append(victims, ev.VictimKey())
		}
		for _, set := range []struct {
			name    string
			clients [][4]byte
		}{
			{"none", nil},
			{"victims", victims},
			{"background+victims", append([][4]byte{bg()}, victims...)},
			{"background", [][4]byte{bg(), bg(), bg()}},
		} {
			got := g.DayFor(day, set.clients, nil)
			want, have := clientRows(full.Batch, set.clients), clientRows(got.Batch, set.clients)
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("day %s, %s: DayFor holds %d of the set's rows, Day %d (or they differ)",
					day.Date(), set.name, len(have), len(want))
			}
			if !reflect.DeepEqual(got.Sensors, full.Sensors) {
				t.Fatalf("day %s, %s: sensor flows differ from Day's", day.Date(), set.name)
			}
			if got.Batch.N < full.Batch.N {
				skipped++
			}
			if set.name == "background" && !reflect.DeepEqual(got.Batch, full.Batch) {
				t.Fatalf("day %s: DayFor for background clients is not the whole day", day.Date())
			}
		}
	})
	if skipped == 0 {
		t.Fatal("DayFor never skipped the background loop")
	}
}

// clientRows returns, in batch order, the rows of b whose client is in
// clients.
func clientRows(b *ixp.SampleBatch, clients [][4]byte) []ixp.BatchRecord {
	var out []ixp.BatchRecord
	for _, r := range b.Rows {
		if slices.Contains(clients, r.Client()) {
			out = append(out, r)
		}
	}
	return out
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

func TestEntityRequestsTaggedWithIngress(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	// A post-relocation day must yield ingress-tagged request records.
	day := c.Entity.Reloc1.Add(simclock.Days(3))
	dt := g.Day(day, nil)
	tagged := 0
	for _, r := range dt.Batch.Rows {
		if in := r.Ingress; in != 0 {
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
	dt0 := g.Day(simclock.MeasurementStart.Add(simclock.Days(2)), nil)
	for _, r := range dt0.Batch.Rows {
		if r.Ingress != 0 {
			t.Fatal("ingress tag before relocation 1")
		}
	}
}

func TestBackgroundOnlyInMainWindow(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	after := simclock.MeasurementEnd.Add(simclock.Days(30))
	dt := g.Day(after, nil)
	// Post-window days carry only (entity) attack traffic, which is
	// far sparser than a background day.
	mainDay := NewGenerator(c, 7).Day(simclock.MeasurementStart.Add(simclock.Days(3)), nil)
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
// frames) into a reused scratch batch: what a batch-study worker pays
// per day before aggregation.
func BenchmarkTrafficDay(b *testing.B) {
	cfg := DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	c := NewCampaign(cfg)
	g := NewGenerator(c, 7)
	day := simclock.MeasurementStart.Add(simclock.Days(10))
	var scratch ixp.SampleBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Day(day.Add(simclock.Days(i%30)), &scratch)
	}
}

// BenchmarkWireDay is one day of wire frames at the same scale: what a
// synthetic: input of the live service, or a wire export, pays per day
// before any frame is parsed. frames/op is the day's sampled frame
// count, allocs/op what materializing them costs.
func BenchmarkWireDay(b *testing.B) {
	cfg := DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	g := NewGenerator(NewCampaign(cfg), 7)
	day := simclock.MeasurementStart.Add(simclock.Days(10))
	frames := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames += len(g.WireDay(day.Add(simclock.Days(i % 30))).IXP)
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
}

// BenchmarkNewGenerator builds the generator of a campaign at three
// scales over the recording's zone database (20 000 procedural names,
// so the name Zipf's 200 000-rank namespace is the larger): the client
// population grows with the scale, the namespace does not. The fourth
// case is dnsampdetect's default zone database, 4.4 M procedural names,
// at scale 0.02: there the bulk namespace and the size cache's ANY slot
// span every name. live-MB is the heap one built generator holds.
func BenchmarkNewGenerator(b *testing.B) {
	for _, bc := range []struct {
		scale float64
		names int
	}{{0.0002, 20_000}, {0.02, 20_000}, {0.05, 20_000}, {0.02, 4_400_000}} {
		name := fmt.Sprintf("scale=%g", bc.scale)
		if bc.names != 20_000 {
			name += fmt.Sprintf("/names=%d", bc.names)
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultCampaignConfig(bc.scale)
			cfg.Zones.ProceduralNames = bc.names
			c := NewCampaign(cfg)
			b.ReportAllocs()
			var g *Generator
			for b.Loop() {
				g = NewGenerator(c, 7)
			}
			var before, after runtime.MemStats
			g = nil
			runtime.GC()
			runtime.ReadMemStats(&before)
			g = NewGenerator(c, 7)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(g)
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), "live-MB")
		})
	}
}
