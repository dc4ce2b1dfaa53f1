package ecosystem

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sort"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/resolver"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
	"dnsamp/internal/topology"
	"dnsamp/internal/zonedb"
)

// resolverAuthoritative aliases the resolver kind used in the root-query
// amplifier preference.
const resolverAuthoritative = resolver.Authoritative

// CampaignConfig controls a full synthetic measurement campaign.
type CampaignConfig struct {
	Seed int64
	// Scale multiplies every event count (not per-event volumes, which
	// must stay paper-faithful for the sampling thresholds to behave
	// identically). 1.0 reproduces paper scale; the default harness
	// uses 0.2. It must lie in (0, 1] (CheckScale).
	Scale float64

	Topology topology.Config
	Zones    zonedb.Config
}

// DefaultCampaignConfig returns the standard configuration at the given
// scale.
func DefaultCampaignConfig(scale float64) CampaignConfig {
	return CampaignConfig{
		Seed:     1,
		Scale:    scale,
		Topology: topology.DefaultConfig(),
		Zones:    zonedb.DefaultConfig(),
	}
}

// CheckScale is the one rule for a campaign scale: 1 is the paper's
// campaign and a smaller one shrinks every event count, so a scale
// outside (0, 1], NaN included, plans no campaign and is refused.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("%g is outside (0, 1]", scale)
	}
	return nil
}

// The honeypot platform (§3.2: 80 sensors in 62 prefixes and 15 ASes).
// The 15 hosting ASes are 10 access plus 5 education ASes.
const (
	NumSensors          = 80
	sensorPrefixes      = 62
	sensorAccessASes    = 10
	sensorEducationASes = 5
)

// Paper-scale independent event counts (scaled by Scale) and the
// attackers they are spread over.
const (
	vettedEvents    = 9400
	sprayEvents     = 37000
	vettedAttackers = 28
	sprayAttackers  = 60
)

// pathViaIXPProb is the chance a given (source AS, destination AS) pair
// routes across the IXP. Typed, so that RouteViaIXP's sum rounds as the
// run-time sum of a float64 did.
const pathViaIXPProb float64 = 0.75

// poolSize is the paper-scale number of amplifiers ever existing across
// the scan-history horizon (scaled by Scale): the alive population
// during the main period comfortably exceeds the abused set (at paper
// scale: ~2M reachable open resolvers vs 45k abused).
const poolSize = 280_000

// Campaign is a fully planned synthetic measurement campaign: ground
// truth events plus the substrate needed to materialize traffic.
type Campaign struct {
	Cfg  CampaignConfig
	Topo *topology.Topology
	DB   *zonedb.DB
	Pool *Pool

	Entity *Entity
	// Events holds every attack event (entity + independents), sorted
	// by start time. Entity events cover the extended window; all
	// others the main window.
	Events []*AttackEvent

	// Sensors are the honeypot sensor addresses.
	Sensors []netip.Addr
	// SensorASNs are the ASes hosting sensors.
	SensorASNs []uint32

	rng *rand.Rand
	// victimASes holds Topo.ASesOfType for every victim class, resolved
	// once: pickVictim runs per attack event.
	victimASes map[topology.ASType][]uint32
	// eventsByDay indexes Events by day for traffic generation.
	eventsByDay map[int][]*AttackEvent
}

// NewCampaign plans a campaign. Materialize traffic with a Generator.
// Its scale must pass CheckScale, which every entry point applies to
// its input.
func NewCampaign(cfg CampaignConfig) *Campaign {
	if err := CheckScale(cfg.Scale); err != nil {
		panic("ecosystem: campaign scale " + err.Error())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Campaign{Cfg: cfg, rng: rng, eventsByDay: make(map[int][]*AttackEvent)}
	c.Topo = topology.Generate(cfg.Topology)
	c.victimASes = make(map[topology.ASType][]uint32, len(victimClassWeights))
	for _, cw := range victimClassWeights {
		c.victimASes[cw.typ] = c.Topo.ASesOfType(cw.typ)
	}
	c.DB = zonedb.New(cfg.Zones)

	c.Pool = NewPool(scaleInt(poolSize, cfg.Scale), c.Topo)

	c.placeSensors()

	// The entity's back-end relocates into two different transit
	// members' cones; pick the two largest cones.
	in1, in2 := c.largestTransitMembers()
	c.Entity = NewEntity(cfg.Scale, c.DB, c.Pool, simclock.EntityPeriod(), in1, in2, rng)

	c.generateEntityEvents()
	c.generateVettedEvents()
	c.generateSprayEvents()
	c.generateFixedListEvents()

	sort.SliceStable(c.Events, func(i, j int) bool { return c.Events[i].Start < c.Events[j].Start })
	for i, ev := range c.Events {
		ev.ID = i
		c.eventsByDay[ev.Day().Day()] = append(c.eventsByDay[ev.Day().Day()], ev)
	}
	return c
}

func scaleInt(v int, s float64) int {
	n := int(math.Round(float64(v) * s))
	if n < 1 {
		n = 1
	}
	return n
}

// placeSensors distributes honeypot sensors across prefixes and ASes for
// topological diversity (§3.2).
func (c *Campaign) placeSensors() {
	access := c.Topo.ASesOfType(topology.ASAccess)
	edu := c.Topo.ASesOfType(topology.ASEducation)
	hostASes := append(append([]uint32{}, access[:sensorAccessASes]...), edu[:sensorEducationASes]...)
	c.SensorASNs = hostASes
	prefixes := make([]netip.Prefix, 0, sensorPrefixes)
	for len(prefixes) < sensorPrefixes {
		asn := hostASes[len(prefixes)%len(hostASes)]
		addr, _ := c.Topo.RandomAddrIn(c.rng, asn)
		p := topology.Prefix24(addr)
		dup := false
		for _, q := range prefixes {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			prefixes = append(prefixes, p)
		}
	}
	for i := 0; i < NumSensors; i++ {
		p := prefixes[i%len(prefixes)]
		base := p.Addr().As4()
		base[3] = byte(10 + i%200)
		c.Sensors = append(c.Sensors, netip.AddrFrom4(base))
	}
}

// largestTransitMembers returns the two transit members with the biggest
// customer cones.
func (c *Campaign) largestTransitMembers() (uint32, uint32) {
	type mc struct {
		asn  uint32
		cone int
	}
	var list []mc
	for _, m := range c.Topo.Members {
		if c.Topo.ASes[m].Type == topology.ASTransit {
			list = append(list, mc{m, c.Topo.ConeSize(m)})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].cone != list[j].cone {
			return list[i].cone > list[j].cone
		}
		return list[i].asn < list[j].asn
	})
	if len(list) < 2 {
		return c.Topo.Members[0], c.Topo.Members[len(c.Topo.Members)-1]
	}
	return list[0].asn, list[1].asn
}

// victimClassWeights drive victim selection so that ISP (access)
// networks receive the largest share of attack traffic (36%), followed
// by content (24%) (§4.2).
var victimClassWeights = []struct {
	typ topology.ASType
	w   float64
}{
	{topology.ASAccess, 0.38},
	{topology.ASContent, 0.23},
	{topology.ASHosting, 0.14},
	{topology.ASEnterprise, 0.11},
	{topology.ASEducation, 0.08},
	{topology.ASGovernment, 0.06},
}

// pickVictim draws a victim address.
func (c *Campaign) pickVictim() (netip.Addr, uint32) {
	u := c.rng.Float64()
	var typ topology.ASType = topology.ASAccess
	acc := 0.0
	for _, cw := range victimClassWeights {
		acc += cw.w
		if u < acc {
			typ = cw.typ
			break
		}
	}
	asn := stats.Pick(c.rng, c.victimASes[typ])
	addr, _ := c.Topo.RandomAddrIn(c.rng, asn)
	return addr, asn
}

// attackDuration draws a duration matching the reported quartiles (25%
// < 7 min, 50% < 33 min, §4.2) via a lognormal.
func (c *Campaign) attackDuration() simclock.Duration {
	const mu, sigma = 7.59, 2.0 // ln-seconds
	d := math.Exp(mu + sigma*c.rng.NormFloat64())
	if d < 30 {
		d = 30
	}
	if d > 86400 {
		d = 86400
	}
	return simclock.Duration(d)
}

// eventVolume draws the unsampled request volume of a detect-grade event
// (entity and vetted attackers): bounded Pareto with a heavy tail.
func (c *Campaign) eventVolume() int {
	return int(stats.Pareto(c.rng, 2.5e5, 3e7, 1.05))
}

// fixedListVolume draws the volume of the scripted fixed-list attackers;
// high enough that nearly every list member becomes visible in sampled
// data, which is what lets the clustering recover the static lists.
func (c *Campaign) fixedListVolume() int {
	return int(stats.Pareto(c.rng, 3e6, 3e7, 1.2))
}

// sprayVolume draws the volume of a spray event: mostly small (below
// IXP detectability), with ~3.5% of events at detect-grade volume —
// these become the mutual attacks of §5, which rank high in the
// honeypot's intensity scale but only medium at the IXP (Fig. 7).
func (c *Campaign) sprayVolume() int {
	if c.rng.Float64() < 0.035 {
		return c.eventVolume()
	}
	return int(stats.Pareto(c.rng, 500, 1.6e5, 0.8))
}

// txidPool builds a transaction-ID pool of n IDs with the given parity
// (-1 = unconstrained).
func txidPool(rng *rand.Rand, n, parity int) []uint16 {
	if n < 1 {
		n = 1
	}
	out := make([]uint16, n)
	for i := range out {
		v := uint16(rng.Intn(1 << 16))
		if parity >= 0 {
			v = v&^1 | uint16(parity)
		}
		out[i] = v
	}
	return out
}

// entityTXIDPoolSize sizes the entity tool's pre-built query set: a
// handful of templates per event, so unique IDs stay 1–2 orders of
// magnitude below even the *sampled* packet count (Fig. 10).
func entityTXIDPoolSize(vol int) int {
	n := vol / 2_000_000
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// independentTXIDPoolSize sizes other tools' pools: pre-built but large,
// so no detectable structure survives sampling.
func independentTXIDPoolSize(rng *rand.Rand, vol int) int {
	n := vol / (30 + rng.Intn(200))
	if n < 1 {
		n = 1
	}
	if n > 2048 {
		n = 2048
	}
	return n
}

// generateEntityEvents schedules the major entity's attacks across the
// extended window.
func (c *Campaign) generateEntityEvents() {
	e := c.Entity
	simclock.EntityPeriod().EachDay(func(day simclock.Time) {
		rate := e.EventRate(day)
		n := poisson(c.rng, rate)
		names := e.NameAt(day)
		if len(names) == 0 {
			return
		}
		parity := e.TXIDParity(day)
		for i := 0; i < n; i++ {
			victim, vASN := c.pickVictim()
			start := day.Add(simclock.Duration(c.rng.Intn(int(simclock.Day))))
			dur := c.attackDuration()
			amps := e.PickEventAmplifiers(day)
			vol := c.eventVolume()
			name := names[c.rng.Intn(len(names))]

			ev := &AttackEvent{
				Attacker:   "entity",
				IsEntity:   true,
				Victim:     victim,
				VictimASN:  vASN,
				Start:      start,
				Duration:   dur,
				QName:      name,
				QType:      dnswire.TypeANY,
				Amplifiers: amps,
				ReqPerAmp:  max(1, vol/max(1, len(amps))),
				ReqIPTTL:   250,
				SrcPort:    uint16(1024 + c.rng.Intn(60000)),
			}
			ev.TXIDs = txidPool(c.rng, entityTXIDPoolSize(vol), parity)
			// ~9% of entity events straddle the 48 h parity shift: two
			// phases with a distinct switch (§6.1).
			if c.rng.Float64() < 0.09 {
				ev.TXIDs2 = txidPool(c.rng, entityTXIDPoolSize(vol), 1-parity)
			}
			if phase := e.Phase(start); phase >= 1 {
				ev.RequestsViaIXP = true
				ev.IngressAS = e.IngressAt(start)
			}
			// Near-perfect honeypot avoidance.
			if c.rng.Float64() < sensorLeakProb {
				ns := 1 + c.rng.Intn(3)
				for j := 0; j < ns; j++ {
					ev.Sensors = append(ev.Sensors, c.rng.Intn(len(c.Sensors)))
				}
				ev.ReqPerSensor = 5 + c.rng.Intn(20)
			}
			c.Events = append(c.Events, ev)
		}
	})
}

// independentNameWeights approximates Table 2's per-TLD attack counts
// for non-entity attackers.
func (c *Campaign) independentNameWeights() ([]string, []float64) {
	var names []string
	var weights []float64
	for _, n := range c.DB.AttackedNames() {
		w := 1.0
		switch dnswire.TLD(n) {
		case "gov":
			w = 0.45 // split across 17 names
		case "za", "cc", "pl", "cz":
			w = 3.8
		case "com", "org":
			w = 1.7
		case "se":
			w = 2.6
		case "eu":
			w = 2.3
		case "be":
			w = 1.5
		case ".":
			w = 1.1
		case "br":
			w = 0.18
		case "ru":
			w = 0.002
		}
		names = append(names, n)
		weights = append(weights, w)
	}
	return names, weights
}

func weightedPick(rng *rand.Rand, names []string, weights []float64) string {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := rng.Float64() * total
	for i, w := range weights {
		u -= w
		if u <= 0 {
			return names[i]
		}
	}
	return names[len(names)-1]
}

// independentAttacker is shared state for one non-entity attacker.
type independentAttacker struct {
	label      string
	names      []string
	list       []int
	refreshDay int
	listSize   int
}

// generateVettedEvents creates the IXP-visible independent attacks:
// attackers that curate amplifier lists (no honeypot sensors) and push
// detect-grade volumes.
func (c *Campaign) generateVettedEvents() {
	total := scaleInt(vettedEvents, c.Cfg.Scale)
	names, weights := c.independentNameWeights()
	attackers := make([]*independentAttacker, vettedAttackers)
	for i := range attackers {
		nn := 1 + c.rng.Intn(4)
		own := make([]string, 0, nn)
		for j := 0; j < nn; j++ {
			own = append(own, weightedPick(c.rng, names, weights))
		}
		attackers[i] = &independentAttacker{
			label:    labelf("vetted-%d", i),
			names:    own,
			listSize: 150 + c.rng.Intn(1200),
		}
	}
	c.scheduleIndependent(attackers, total, simclock.MainPeriod(), false)
}

// generateSprayEvents creates the honeypot-visible long tail: attackers
// using huge public reflector lists that include the sensors.
func (c *Campaign) generateSprayEvents() {
	total := scaleInt(sprayEvents, c.Cfg.Scale)
	names, weights := c.independentNameWeights()
	attackers := make([]*independentAttacker, sprayAttackers)
	for i := range attackers {
		nn := 1 + c.rng.Intn(3)
		own := make([]string, 0, nn)
		for j := 0; j < nn; j++ {
			own = append(own, weightedPick(c.rng, names, weights))
		}
		attackers[i] = &independentAttacker{
			label:    labelf("spray-%d", i),
			names:    own,
			listSize: 400 + c.rng.Intn(4000),
		}
	}
	c.scheduleIndependent(attackers, total, simclock.MainPeriod(), true)
}

// scheduleIndependent distributes events across attackers and days.
func (c *Campaign) scheduleIndependent(attackers []*independentAttacker, total int, window simclock.Window, spray bool) {
	days := window.Days()
	for i := 0; i < total; i++ {
		a := attackers[c.rng.Intn(len(attackers))]
		day := window.Start.Add(simclock.Days(c.rng.Intn(days)))
		c.refreshList(a, day)

		victim, vASN := c.pickVictim()
		start := day.Add(simclock.Duration(c.rng.Intn(int(simclock.Day))))
		n := eventAmplifierCount(c.rng)
		if n > len(a.list) {
			n = len(a.list)
		}
		qname := a.names[c.rng.Intn(len(a.names))]
		var amps []int
		if qname == "." {
			// Root-query attacks exploit misconfigured root hint files
			// and reach authoritative nameservers ~4x more often
			// (§7.1).
			amps = c.Pool.AppendAlive(make([]int, 0, n), c.rng, day, n, func(am *Amplifier) bool {
				if am.Kind == resolverAuthoritative {
					return true
				}
				return c.rng.Float64() < 0.12
			})
		} else {
			amps = stats.SampleWithoutReplacement(c.rng, a.list, n)
		}

		var vol int
		if spray {
			vol = int(float64(c.sprayVolume()))
		} else {
			vol = c.eventVolume()
		}
		ev := &AttackEvent{
			Attacker:   a.label,
			Victim:     victim,
			VictimASN:  vASN,
			Start:      start,
			Duration:   c.attackDuration(),
			QName:      qname,
			QType:      dnswire.TypeANY,
			Amplifiers: amps,
			ReqPerAmp:  max(1, vol/max(1, n)),
			ReqIPTTL:   uint8(40 + c.rng.Intn(200)),
			SrcPort:    uint16(1024 + c.rng.Intn(60000)),
		}
		// Half the independent tools also ship pre-built queries, but
		// without the entity's parity structure.
		if c.rng.Float64() < 0.5 {
			ev.TXIDs = txidPool(c.rng, independentTXIDPoolSize(c.rng, vol), -1)
		}
		if spray {
			// Public lists contain the sensors: nearly every event
			// reaches most of them, which is what makes the honeypot
			// converge with a handful of sensors (Fig. 18).
			var ns int
			if c.rng.Float64() < 0.97 {
				ns = 50 + c.rng.Intn(len(c.Sensors)-49)
			} else {
				ns = 5 + c.rng.Intn(15)
			}
			perm := c.rng.Perm(len(c.Sensors))[:ns]
			slices.Sort(perm)
			ev.Sensors = perm
			ev.ReqPerSensor = clampInt(vol/10, 40, 8000)
		}
		c.Events = append(c.Events, ev)
	}
}

// refreshList rebuilds an independent attacker's amplifier list at most
// once per day, mixing carried-over and new reflectors.
func (c *Campaign) refreshList(a *independentAttacker, day simclock.Time) {
	d := day.Day()
	if a.refreshDay == d && len(a.list) > 0 {
		return
	}
	a.refreshDay = d
	kept := a.list[:0]
	for _, id := range a.list {
		if c.Pool.Get(id).AliveAt(day) && c.rng.Float64() < 0.75 {
			kept = append(kept, id)
		}
	}
	a.list = kept
	want := a.listSize - len(a.list)
	if want > 0 {
		a.list = c.Pool.AppendAlive(a.list, c.rng, day, want, nil)
	}
}

// generateFixedListEvents adds the scripted static-list attackers that
// produce the dense DBSCAN clusters of Fig. 14: cluster α reuses one
// 30-amplifier list for 177 attacks over 40 days; cluster β uses ~527
// amplifiers with a small steady drift; a handful of smaller clusters
// round out the picture. Together they are ~2% of attack events (§7.1).
func (c *Campaign) generateFixedListEvents() {
	window := simclock.MainPeriod()

	// α: perfectly static list, long-lived amplifiers only.
	alphaStart := window.Start.Add(simclock.Days(20))
	alphaList := c.Pool.AppendAlive(nil, c.rng, alphaStart, 30, func(a *Amplifier) bool {
		return a.Died.Sub(alphaStart) > simclock.Days(45)
	})
	nAlpha := scaleInt(177, c.Cfg.Scale)
	for i := 0; i < nAlpha; i++ {
		day := alphaStart.Add(simclock.Days(c.rng.Intn(40)))
		victim, vASN := c.pickVictim()
		c.Events = append(c.Events, &AttackEvent{
			Attacker: "alpha", Victim: victim, VictimASN: vASN,
			Start:    day.Add(simclock.Duration(c.rng.Intn(int(simclock.Day)))),
			Duration: c.attackDuration(),
			QName:    "nask.pl.", QType: dnswire.TypeANY,
			Amplifiers: append([]int(nil), alphaList...),
			ReqPerAmp:  max(1, c.fixedListVolume()/30),
			ReqIPTTL:   120, SrcPort: uint16(1024 + c.rng.Intn(60000)),
		})
	}

	// β: large list with a small steady change per attack.
	betaSize := scaleInt(527, math.Max(c.Cfg.Scale, 0.3))
	betaList := c.Pool.AppendAlive(nil, c.rng, window.Start, betaSize, nil)
	nBeta := scaleInt(120, c.Cfg.Scale)
	var repl []int
	for i := 0; i < nBeta; i++ {
		day := window.Start.Add(simclock.Days(c.rng.Intn(window.Days())))
		// Replace ~2% of the list each attack.
		for j := 0; j < len(betaList)/50+1; j++ {
			idx := c.rng.Intn(len(betaList))
			if repl = c.Pool.AppendAlive(repl[:0], c.rng, day, 1, nil); len(repl) == 1 {
				betaList[idx] = repl[0]
			}
		}
		victim, vASN := c.pickVictim()
		c.Events = append(c.Events, &AttackEvent{
			Attacker: "beta", Victim: victim, VictimASN: vASN,
			Start:    day.Add(simclock.Duration(c.rng.Intn(int(simclock.Day)))),
			Duration: c.attackDuration(),
			QName:    "nic.cz.", QType: dnswire.TypeANY,
			Amplifiers: append([]int(nil), betaList...),
			ReqPerAmp:  max(1, c.fixedListVolume()/len(betaList)),
			ReqIPTTL:   110, SrcPort: uint16(1024 + c.rng.Intn(60000)),
		})
	}

	// Smaller fixed-list clusters.
	nClusters := 6
	for k := 0; k < nClusters; k++ {
		size := 8 + c.rng.Intn(40)
		cstart := window.Start.Add(simclock.Days(c.rng.Intn(60)))
		list := c.Pool.AppendAlive(nil, c.rng, cstart, size, func(a *Amplifier) bool {
			return a.Died.Sub(cstart) > simclock.Days(30)
		})
		names, weights := c.independentNameWeights()
		name := weightedPick(c.rng, names, weights)
		nEv := scaleInt(4+c.rng.Intn(9), math.Max(c.Cfg.Scale, 0.5))
		for i := 0; i < nEv; i++ {
			day := cstart.Add(simclock.Days(c.rng.Intn(25)))
			victim, vASN := c.pickVictim()
			c.Events = append(c.Events, &AttackEvent{
				Attacker: labelf("cluster-%d", k), Victim: victim, VictimASN: vASN,
				Start:    day.Add(simclock.Duration(c.rng.Intn(int(simclock.Day)))),
				Duration: c.attackDuration(),
				QName:    name, QType: dnswire.TypeANY,
				Amplifiers: append([]int(nil), list...),
				ReqPerAmp:  max(1, c.fixedListVolume()/max(1, len(list))),
				ReqIPTTL:   uint8(40 + c.rng.Intn(200)),
				SrcPort:    uint16(1024 + c.rng.Intn(60000)),
			})
		}
	}
}

// EventsOnDay returns the events whose start falls on the given day.
func (c *Campaign) EventsOnDay(day simclock.Time) []*AttackEvent {
	return c.eventsByDay[day.StartOfDay().Day()]
}

// RouteViaIXP reports whether traffic between two ASNs crosses the IXP.
// The decision is deterministic and dominated by the source side:
// whether a reflector's outbound traffic traverses this IXP is mostly a
// property of its network's routing policy, with only a small
// destination-dependent component. (A strongly pair-dependent rule would
// break the observed stability of fixed amplifier lists across victims,
// which the paper's Fig. 14 clusters demonstrate.)
func (c *Campaign) RouteViaIXP(srcASN, dstASN uint32) bool {
	if srcASN == 0 || dstASN == 0 || srcASN == dstASN {
		return false
	}
	if c.Topo.MemberFor(srcASN) == c.Topo.MemberFor(dstASN) {
		return false // stays inside one member's cone
	}
	if !hashCoin(srcASN, 0, pathViaIXPProb+0.1, uint32(c.Cfg.Seed)) {
		return false
	}
	return hashCoin(srcASN, dstASN, 0.9, uint32(c.Cfg.Seed)+1)
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		// Normal approximation.
		n := int(math.Round(rng.NormFloat64()*math.Sqrt(lambda) + lambda))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func labelf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
