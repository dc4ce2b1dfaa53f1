package ecosystem

import (
	"math/rand"
	"strings"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/resolver"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
	"dnsamp/internal/zonedb"
)

// tinyCampaign builds a small deterministic campaign for tests.
func tinyCampaign(t *testing.T) *Campaign {
	t.Helper()
	cfg := DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	return NewCampaign(cfg)
}

func TestPoolComposition(t *testing.T) {
	topo := topology.Generate(topology.Config{Members: 24, ASesPerClass: 40, Seed: 1})
	pool := NewPool(30_000, topo)
	if pool.Len() != 30_000 {
		t.Fatalf("pool size = %d", pool.Len())
	}
	alive := pool.AliveIDs(simclock.MeasurementStart.Add(simclock.Days(30)))
	if len(alive) < 200 {
		t.Fatalf("alive amplifiers = %d, want hundreds", len(alive))
	}
	kinds := map[resolver.Kind]int{}
	for _, id := range alive {
		kinds[pool.Get(id).Kind]++
	}
	fw := float64(kinds[resolver.Forwarder]) / float64(len(alive))
	auth := float64(kinds[resolver.Authoritative]) / float64(len(alive))
	if fw < 0.75 {
		t.Errorf("alive forwarder share = %.2f, want ~0.9", fw)
	}
	if auth > 0.10 {
		t.Errorf("alive authoritative share = %.2f, want ~0.02", auth)
	}
}

func TestPoolBirthRecency(t *testing.T) {
	topo := topology.Generate(topology.Config{Members: 24, ASesPerClass: 40, Seed: 1})
	pool := NewPool(20_000, topo)
	recent := 0
	cut := simclock.MeasurementStart.Add(-simclock.Days(183))
	for i := 0; i < pool.Len(); i++ {
		if !pool.Get(i).Born.Before(cut) {
			recent++
		}
	}
	share := float64(recent) / float64(pool.Len())
	if share < 0.35 || share > 0.55 {
		t.Errorf("recent-birth share = %.2f, want ~0.45 (Fig. 15)", share)
	}
}

func TestSampleAliveRespectsPredicate(t *testing.T) {
	topo := topology.Generate(topology.Config{Members: 24, ASesPerClass: 40, Seed: 1})
	pool := NewPool(20_000, topo)
	rng := rand.New(rand.NewSource(5))
	day := simclock.MeasurementStart
	got := pool.AppendAlive([]int{-1}, rng, day, 50, func(a *Amplifier) bool { return !a.MinimalANY })
	if len(got) != 51 || got[0] != -1 {
		t.Fatalf("appended %d ids after the caller's %v, want 50", len(got)-1, got[:1])
	}
	got = got[1:]
	seen := map[int]bool{}
	for _, id := range got {
		a := pool.Get(id)
		if !a.AliveAt(day) {
			t.Fatalf("amplifier %d not alive", id)
		}
		if a.MinimalANY {
			t.Fatalf("predicate violated for %d", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

// TestWalkStride checks AppendAlive's stride: co-prime to the pool size,
// so the walk is one full cycle, including at 7919·89, where stepping
// past divisors of n alone picked 7921 = 89² and cycled through n/89
// ids; and unchanged wherever that older rule was already co-prime.
func TestWalkStride(t *testing.T) {
	for n, want := range map[int]int{704_791: 7923, 7919 * 2: 7921, 2800: 7919, 1: 7919} {
		if got := walkStride(n); got != want {
			t.Errorf("walkStride(%d) = %d, want %d", n, got, want)
		}
	}
	const n = 704_791
	seen := make([]bool, n)
	id, step := 0, walkStride(n)%n
	for range n {
		if seen[id] {
			t.Fatalf("walk over %d ids revisits %d", n, id)
		}
		seen[id] = true
		if id += step; id >= n {
			id -= n
		}
	}
	for n := 1; n <= 200_000; n++ {
		old := 7919
		for n%old == 0 {
			old += 2
		}
		if gcd(old, n) == 1 && walkStride(n) != old {
			t.Fatalf("n=%d: stride %d, was %d", n, walkStride(n), old)
		}
	}
}

func TestEntityRotationSchedule(t *testing.T) {
	c := tinyCampaign(t)
	e := c.Entity
	if len(e.Tenures) != 10 {
		t.Fatalf("tenures = %d, want 10 names", len(e.Tenures))
	}
	// Tenures must be contiguous, ordered, and follow the rotation list.
	for i, ten := range e.Tenures {
		if ten.NameIdx != i {
			t.Errorf("tenure %d uses name %d", i, ten.NameIdx)
		}
		if i > 0 && ten.Start != e.Tenures[i-1].End {
			t.Errorf("gap between tenures %d and %d", i-1, i)
		}
		if !ten.Start.Before(ten.End) {
			t.Errorf("tenure %d empty", i)
		}
	}
	// First four-plus tenures fall inside the main window (§6.1: the
	// main period sees several names).
	inMain := 0
	for _, ten := range e.Tenures {
		if simclock.MainPeriod().Contains(ten.Start) || ten.Start == simclock.MeasurementStart {
			inMain++
		}
	}
	if inMain < 3 || inMain > 7 {
		t.Errorf("tenures starting in main window = %d", inMain)
	}
}

func TestEntityRelocationsOrdered(t *testing.T) {
	c := tinyCampaign(t)
	e := c.Entity
	if !e.Reloc1.Before(e.Reloc2) {
		t.Fatal("relocations out of order")
	}
	if !simclock.MainPeriod().Contains(e.Reloc1) {
		t.Error("relocation 1 should fall in the main window (mid-August)")
	}
	if e.Ingress1 == e.Ingress2 {
		t.Error("relocations should use different ingress members")
	}
	if e.Phase(e.Reloc1.Add(-1)) != 0 || e.Phase(e.Reloc1) != 1 || e.Phase(e.Reloc2) != 2 {
		t.Error("phase boundaries wrong")
	}
	if e.IngressAt(e.Reloc1.Add(-1)) != 0 {
		t.Error("phase-0 ingress should be 0 (requests invisible)")
	}
}

func TestEntityTXIDParityRhythm(t *testing.T) {
	c := tinyCampaign(t)
	e := c.Entity
	day0 := simclock.MeasurementStart
	p0 := e.TXIDParity(day0)
	if e.TXIDParity(day0.Add(simclock.Day)) != p0 {
		t.Error("parity should be stable within a 48h window")
	}
	if e.TXIDParity(day0.Add(2*simclock.Day)) == p0 {
		t.Error("parity should flip every 48h")
	}
}

func TestEntityEventsParityMatchesDay(t *testing.T) {
	c := tinyCampaign(t)
	checked := 0
	for _, ev := range c.Events {
		if !ev.IsEntity || len(ev.TXIDs) == 0 {
			continue
		}
		want := uint16(c.Entity.TXIDParity(ev.Start))
		for _, id := range ev.TXIDs {
			if id&1 != want {
				t.Fatalf("event %d TXID %#x parity != %d", ev.ID, id, want)
			}
		}
		if len(ev.TXIDs2) > 0 {
			for _, id := range ev.TXIDs2 {
				if id&1 == want {
					t.Fatalf("phase-2 pool must flip parity")
				}
			}
		}
		if len(ev.TXIDs) > 16 {
			t.Fatalf("entity pool too large: %d", len(ev.TXIDs))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no entity events with TXID pools")
	}
}

func TestEntityAdvanceChurn(t *testing.T) {
	c := tinyCampaign(t)
	e := c.Entity
	day := simclock.MeasurementStart.Add(simclock.Days(10))
	l1, _ := e.AdvanceTo(day)
	size1 := len(l1)
	snapshot := append([]int(nil), l1...)
	l2, n2 := e.AdvanceTo(day.Add(simclock.Day))
	if n2 == 0 {
		t.Error("expected new amplifiers daily (Fig. 12)")
	}
	if len(l2) == 0 || size1 == 0 {
		t.Fatal("empty lists")
	}
	// Same-day advance is idempotent.
	l3, _ := e.AdvanceTo(day.Add(simclock.Day))
	if len(l3) != len(l2) {
		t.Error("AdvanceTo not idempotent within a day")
	}
	// Substantial overlap with previous day, but not identical.
	prev := map[int]bool{}
	for _, id := range snapshot {
		prev[id] = true
	}
	inter := 0
	for _, id := range l2 {
		if prev[id] {
			inter++
		}
	}
	if inter == 0 {
		t.Error("no overlap day-over-day — churn too aggressive")
	}
	if inter == len(l2) && len(l2) == size1 {
		t.Error("identical lists day-over-day — churn missing")
	}
}

func TestEventCountsScale(t *testing.T) {
	c := tinyCampaign(t)
	var entity, spray, vetted, fixed int
	for _, ev := range c.Events {
		switch {
		case ev.IsEntity:
			entity++
		case strings.HasPrefix(ev.Attacker, "spray"):
			spray++
		case strings.HasPrefix(ev.Attacker, "vetted"):
			vetted++
		default:
			fixed++
		}
	}
	if entity == 0 || spray == 0 || vetted == 0 || fixed == 0 {
		t.Fatalf("missing population: entity=%d spray=%d vetted=%d fixed=%d", entity, spray, vetted, fixed)
	}
	// Spray events carry sensors, vetted do not.
	for _, ev := range c.Events {
		if strings.HasPrefix(ev.Attacker, "vetted") && len(ev.Sensors) > 0 {
			t.Fatal("vetted attacker leaked sensors")
		}
		if strings.HasPrefix(ev.Attacker, "spray") && len(ev.Sensors) == 0 {
			t.Fatal("spray attacker without sensors")
		}
	}
}

func TestAlphaClusterStatic(t *testing.T) {
	c := tinyCampaign(t)
	var lists [][]int
	for _, ev := range c.Events {
		if ev.Attacker == "alpha" {
			lists = append(lists, ev.Amplifiers)
		}
	}
	if len(lists) < 2 {
		t.Skip("not enough alpha events at this scale")
	}
	for _, l := range lists[1:] {
		if len(l) != len(lists[0]) {
			t.Fatal("alpha list size changed")
		}
		for i := range l {
			if l[i] != lists[0][i] {
				t.Fatal("alpha list changed between attacks — must be static")
			}
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	a := NewCampaign(cfg)
	b := NewCampaign(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Victim != eb.Victim || ea.Start != eb.Start || ea.QName != eb.QName ||
			len(ea.Amplifiers) != len(eb.Amplifiers) {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	c := tinyCampaign(t)
	day := simclock.MeasurementStart.Add(simclock.Days(5))
	d1 := NewGenerator(c, 7).WireDay(day)
	d2 := NewGenerator(c, 7).WireDay(day)
	if len(d1.IXP) != len(d2.IXP) {
		t.Fatalf("IXP record counts differ: %d vs %d", len(d1.IXP), len(d2.IXP))
	}
	for i := range d1.IXP {
		if string(d1.IXP[i].Rec.Frame) != string(d2.IXP[i].Rec.Frame) {
			t.Fatalf("frame %d differs between equal-seed generators", i)
		}
	}
}

func TestGeneratedFramesDecode(t *testing.T) {
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	day := simclock.MeasurementStart.Add(simclock.Days(3))
	dt := g.WireDay(day)
	if len(dt.IXP) == 0 {
		t.Fatal("no IXP records")
	}
	decoded := 0
	for _, tr := range dt.IXP {
		pkt, err := netmodel.DecodeFrame(tr.Rec.Frame)
		if err != nil {
			t.Fatalf("frame decode: %v", err)
		}
		if pkt.UDP.SrcPort != 53 && pkt.UDP.DstPort != 53 {
			t.Fatal("non-DNS ports in generated traffic")
		}
		res, err := dnswire.Parse(pkt.Payload)
		if err != nil {
			t.Fatalf("DNS parse: %v", err)
		}
		if res.Msg.QName() == "" {
			t.Fatal("empty qname")
		}
		decoded++
	}
	if len(dt.IXP) > 0 && decoded != len(dt.IXP) {
		t.Errorf("decoded %d of %d", decoded, len(dt.IXP))
	}
	// Frames are truncated to the snaplen.
	for _, tr := range dt.IXP {
		if len(tr.Rec.Frame) > 128 {
			t.Fatalf("frame exceeds snaplen: %d", len(tr.Rec.Frame))
		}
	}
}

func TestResponseSizeRecoverable(t *testing.T) {
	// A misused-name attack response must advertise its full DNS size
	// in the UDP length field even though the frame is truncated.
	c := tinyCampaign(t)
	g := NewGenerator(c, 7)
	found := false
	for d := 0; d < 20 && !found; d++ {
		dt := g.WireDay(simclock.MeasurementStart.Add(simclock.Days(d)))
		for _, tr := range dt.IXP {
			pkt, err := netmodel.DecodeFrame(tr.Rec.Frame)
			if err != nil {
				continue
			}
			if pkt.UDP.SrcPort == 53 && pkt.DNSPayloadSize() > 3000 {
				found = true
				if !pkt.Truncated {
					t.Error("large response should be truncated at snaplen")
				}
				break
			}
		}
	}
	if !found {
		t.Error("no large attack response found in 20 days of traffic")
	}
}

func TestRouteViaIXPProperties(t *testing.T) {
	c := tinyCampaign(t)
	if c.RouteViaIXP(0, 5) || c.RouteViaIXP(5, 0) || c.RouteViaIXP(7, 7) {
		t.Error("degenerate pairs must not route via IXP")
	}
	// Determinism.
	for i := 0; i < 50; i++ {
		a, b := uint32(100+i), uint32(300+i)
		if c.RouteViaIXP(a, b) != c.RouteViaIXP(a, b) {
			t.Fatal("RouteViaIXP not deterministic")
		}
	}
}

func TestSensorsPlacement(t *testing.T) {
	c := tinyCampaign(t)
	if len(c.Sensors) != NumSensors {
		t.Fatalf("sensors = %d", len(c.Sensors))
	}
	prefixes := map[string]bool{}
	for _, s := range c.Sensors {
		prefixes[topology.Prefix24(s).String()] = true
	}
	if len(prefixes) < sensorPrefixes/2 {
		t.Errorf("sensor prefixes = %d, want diversity", len(prefixes))
	}
}

func TestVictimsAreRoutable(t *testing.T) {
	c := tinyCampaign(t)
	for _, ev := range c.Events[:min(200, len(c.Events))] {
		if got := c.Topo.OriginAS(ev.Victim); got != ev.VictimASN {
			t.Fatalf("victim %v maps to AS%d, event says AS%d", ev.Victim, got, ev.VictimASN)
		}
	}
}

func TestDurationQuartiles(t *testing.T) {
	c := tinyCampaign(t)
	var short7, short33, n int
	for _, ev := range c.Events {
		n++
		if ev.Duration < 7*simclock.Minute {
			short7++
		}
		if ev.Duration < 33*simclock.Minute {
			short33++
		}
	}
	p7 := float64(short7) / float64(n)
	p33 := float64(short33) / float64(n)
	if p7 < 0.10 || p7 > 0.40 {
		t.Errorf("share under 7m = %.2f, want ~0.25", p7)
	}
	if p33 < 0.35 || p33 > 0.65 {
		t.Errorf("share under 33m = %.2f, want ~0.50", p33)
	}
}

func TestZonedbIntegration(t *testing.T) {
	// The campaign's attacked names must all be explicit zones with
	// ANY enabled.
	c := tinyCampaign(t)
	for _, ev := range c.Events[:min(500, len(c.Events))] {
		z, ok := c.DB.Zone(ev.QName)
		if !ok {
			t.Fatalf("event name %q has no zone", ev.QName)
		}
		if !z.AllowANY {
			t.Fatalf("attacked zone %q blocks ANY", ev.QName)
		}
	}
	_ = zonedb.DefaultConfig()
}

// BenchmarkNewCampaign plans the campaign a scale-0.03 study plans:
// topology, pool, entity and every attack event (victim draws and
// amplifier-pool walks).
func BenchmarkNewCampaign(b *testing.B) {
	cfg := DefaultCampaignConfig(0.03)
	b.ReportAllocs()
	for range b.N {
		NewCampaign(cfg)
	}
}
