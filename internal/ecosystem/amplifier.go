// Package ecosystem is the generative model of the DNS amplification
// attack ecosystem: the amplifier population with its churn, the major
// attack entity with its name rotation and attack-tool quirks, the long
// tail of independent attackers, and the materialization of all traffic
// the four vantage points observe (IXP samples, honeypot requests).
//
// Nothing in this package "knows" the analysis results: the paper's
// findings (TXID structure, relocations, amplifier-set clusters, ...)
// must emerge from the mechanics encoded here and be re-derived by the
// detection and analysis pipeline.
// Each packet the generator synthesizes is one ixp.BatchRecord read by
// two sinks: Generator.Day sanitizes it (§3.1) by the rules' owners, as
// ixp.CapturePoint.Sanitize does WireDay's frames (frame lengths from
// netmodel, what is kept from ixp, message lengths from dnswire), and
// WireDay frames it through a WireSink, which the scenario overlays
// use too.
package ecosystem

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"time"

	"dnsamp/internal/resolver"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
	"dnsamp/internal/topology"
)

// Amplifier is one abusable DNS endpoint.
type Amplifier struct {
	ID   int
	Addr netip.Addr
	ASN  uint32
	Kind resolver.Kind
	// Born and Died bound the reachability window: outside it the
	// address no longer answers (dynamic re-addressing, closed
	// resolver, ...). Died may lie beyond the observation horizon.
	Born, Died simclock.Time
	// EDNSCap is the largest UDP response the endpoint emits (0 means
	// unbounded within the message size).
	EDNSCap int
	// MinimalANY marks RFC 8482 endpoints: useless for ANY attacks.
	MinimalANY bool
	// RRL marks endpoints with response rate limiting.
	RRL bool
	// Upstream is the shared recursive resolver index for forwarders
	// (-1 otherwise). Individual upstreams serve up to tens of
	// thousands of forwarders (§8).
	Upstream int
	// InitTTL is the initial IP TTL of its OS (64/128/255).
	InitTTL uint8
	// PathLen is the hop count from the amplifier to the IXP.
	PathLen uint8
}

// AliveAt reports whether the amplifier answers at t.
func (a *Amplifier) AliveAt(t simclock.Time) bool {
	return !t.Before(a.Born) && t.Before(a.Died)
}

// ObservedTTL is the IP TTL its responses carry at the IXP.
func (a *Amplifier) ObservedTTL() uint8 { return a.InitTTL - a.PathLen }

// The amplifier population's kind mix. Typed, so that NewPool's birth
// weights round as their run-time products of float64 fields did.
const (
	// authoritativeShare is the fraction of authoritative servers
	// (paper: ~2% of abused amplifiers, §7.1).
	authoritativeShare float64 = 0.02
	// forwarderShare of the non-authoritative part (paper: 98% of open
	// amplifiers are forwarders).
	forwarderShare float64 = 0.98
	// poolSeed seeds the population draw.
	poolSeed = 2
)

// Pool is the amplifier population.
type Pool struct {
	Amps []Amplifier
	// walk is AppendAlive's stride walk started at id 0: walk[j] is the
	// id at walk position j and pos[id] its position, so a walk from
	// any id visits positions pos[id], pos[id]+1, ... cyclically. life
	// holds the reachability windows in walk order.
	walk, pos []int32
	life      []lifespan
	// edges are the distinct Born and Died instants, ascending. Epoch e
	// is [edges[e-1], edges[e]); epoch 0 is before edges[0] and the last
	// from the last edge on. Within one, the alive set does not change.
	edges []simclock.Time
	// mu guards alive: per epoch, the walk positions of the amplifiers
	// alive in it, ascending; nil until first asked for.
	mu    sync.Mutex
	alive [][]int32
	// upstreams is the number of distinct shared recursive resolvers.
	upstreams int
}

// lifespan is one amplifier's reachability window [born, died).
type lifespan struct{ born, died simclock.Time }

// historyStart is the beginning of the scan-history horizon (Fig. 15's
// x-axis starts in 2016).
var historyStart = simclock.FromDate(2016, time.January, 1)

// NewPool synthesizes a population of size amplifiers, ever existing
// across the scan-history horizon (2016-2020), over topo's access-heavy
// address space.
func NewPool(size int, topo *topology.Topology) *Pool {
	rng := rand.New(rand.NewSource(poolSeed))
	access := topo.ASesOfType(topology.ASAccess)
	hosting := topo.ASesOfType(topology.ASHosting)
	education := topo.ASesOfType(topology.ASEducation)
	p := &Pool{upstreams: 1 + size/1500}

	horizon := simclock.EntityTrackingEnd
	recentStart := simclock.MeasurementStart.Add(-simclock.Days(183)) // 6 months before

	// Kind selection must produce the target mix among *alive*
	// endpoints, not among births: long-lived servers accumulate while
	// short-lived home-gateway forwarders churn away, so birth shares
	// are weighted by the inverse mean lifetime. Target alive mix:
	// ~90% forwarders, ~8% open recursives, ~2% authoritative (§7.1).
	const (
		meanForwarderLife = 30.0 // days (heavy-tailed Pareto below)
		meanServerLife    = 510.0
	)
	// The ×4 / ×3 factors correct for servers whose lifetime extends
	// beyond the simulated horizon (their effective alive time is
	// shorter than the nominal mean), calibrated against the abused-
	// amplifier composition of §7.1.
	wF := (1 - authoritativeShare) * forwarderShare / meanForwarderLife
	wR := (1 - authoritativeShare) * (1 - forwarderShare) * 4 / meanServerLife
	wA := authoritativeShare * 3 / meanServerLife
	wSum := wF + wR + wA

	usedAddrs := make(map[netip.Addr]bool, size)

	for i := 0; i < size; i++ {
		var a Amplifier
		a.ID = i
		switch r := rng.Float64() * wSum; {
		case r < wA:
			a.Kind = resolver.Authoritative
			a.Upstream = -1
		case r < wA+wR:
			a.Kind = resolver.Recursive
			a.Upstream = -1
		default:
			a.Kind = resolver.Forwarder
			a.Upstream = rng.Intn(p.upstreams)
		}

		// Placement: forwarders live in access networks (home CPE);
		// recursives and authoritatives in hosting/education space.
		var asn uint32
		switch a.Kind {
		case resolver.Forwarder:
			asn = stats.Pick(rng, access)
		case resolver.Recursive:
			if rng.Float64() < 0.6 {
				asn = stats.Pick(rng, hosting)
			} else {
				asn = stats.Pick(rng, education)
			}
		default:
			asn = stats.Pick(rng, hosting)
		}
		a.ASN = asn
		// Addresses are unique across the pool: each Amplifier models
		// one (IP, occupancy-period); re-draw on collision.
		for {
			addr, _ := topo.RandomAddrIn(rng, asn)
			if !usedAddrs[addr] {
				usedAddrs[addr] = true
				a.Addr = addr
				break
			}
		}

		// Birth: ~45% appear within the six months preceding the main
		// period ("attackers mostly use amplifiers that are not older
		// than six months", Fig. 15); the rest spread back to 2016.
		if rng.Float64() < 0.45 {
			span := int(simclock.MeasurementEnd.Sub(recentStart) / simclock.Day)
			a.Born = recentStart.Add(simclock.Days(rng.Intn(span)))
		} else {
			span := int(simclock.MeasurementStart.Sub(historyStart) / simclock.Day)
			a.Born = historyStart.Add(simclock.Days(rng.Intn(span)))
		}

		// Lifetime: home-gateway forwarders churn within days to
		// months (24 h DHCP leases, §7.1); servers live much longer.
		var lifetimeDays int
		if a.Kind == resolver.Forwarder {
			lifetimeDays = int(stats.Pareto(rng, 2, 400, 0.7))
		} else {
			lifetimeDays = 60 + rng.Intn(900)
		}
		a.Died = a.Born.Add(simclock.Days(lifetimeDays))
		if a.Died.After(horizon) {
			a.Died = horizon
		}

		// Response behaviour mix. The EDNS caps produce the bi- and
		// tri-modal observed size distributions of Fig. 9.
		switch r := rng.Float64(); {
		case r < 0.60:
			a.EDNSCap = 0 // effectively unbounded
		case r < 0.85:
			a.EDNSCap = 4096
		case r < 0.95:
			a.EDNSCap = 1232
		default:
			a.EDNSCap = 512
		}
		a.MinimalANY = rng.Float64() < 0.03
		a.RRL = rng.Float64() < 0.04

		switch rng.Intn(3) {
		case 0:
			a.InitTTL = 64
		case 1:
			a.InitTTL = 128
		default:
			a.InitTTL = 255
		}
		a.PathLen = uint8(4 + rng.Intn(16))

		p.Amps = append(p.Amps, a)
	}

	n := len(p.Amps)
	p.walk = make([]int32, n)
	p.pos = make([]int32, n)
	p.life = make([]lifespan, n)
	p.edges = make([]simclock.Time, 0, 2*n)
	if n > 0 {
		step := walkStride(n) % n
		for j, id := 0, 0; j < n; j, id = j+1, id+step {
			if id >= n {
				id -= n
			}
			a := &p.Amps[id]
			p.walk[j], p.pos[id] = int32(id), int32(j)
			p.life[j] = lifespan{a.Born, a.Died}
			p.edges = append(p.edges, a.Born, a.Died)
		}
	}
	slices.Sort(p.edges)
	p.edges = slices.Clone(slices.Compact(p.edges))
	p.alive = make([][]int32, len(p.edges)+1)
	return p
}

// Get returns the amplifier with the given id.
func (p *Pool) Get(id int) *Amplifier { return &p.Amps[id] }

// Len is the population size.
func (p *Pool) Len() int { return len(p.Amps) }

// AppendAlive appends to dst up to k distinct amplifiers alive at t,
// optionally filtered by pred, and returns the extended slice. It walks
// the pool from a random id with a stride co-prime to its size, so it
// visits every id once, and pred sees only alive candidates, in walk
// order. The walk skips dead ids through t's epoch list (aliveAt), so a
// call costs O(log a) to find its start plus one step per alive
// candidate visited: at most a, the number alive at t, when fewer than
// k pass pred. The first call in an epoch also builds its list, O(n).
func (p *Pool) AppendAlive(dst []int, rng *rand.Rand, t simclock.Time, k int, pred func(*Amplifier) bool) []int {
	n := len(p.Amps)
	if n == 0 || k <= 0 {
		return dst
	}
	start := p.pos[rng.Intn(n)]
	alive := p.aliveAt(t)
	i, _ := slices.BinarySearch(alive, start)
	end := len(dst) + k
	for range alive {
		if len(dst) == end {
			break
		}
		if i == len(alive) {
			i = 0
		}
		id := int(p.walk[alive[i]])
		i++
		if pred == nil || pred(&p.Amps[id]) {
			dst = append(dst, id)
		}
	}
	return dst
}

// aliveAt returns the walk positions of the amplifiers alive at t,
// ascending, building t's epoch list on first use. The list is built at
// the epoch's first instant, so every t in the epoch shares it; it is
// never modified afterwards.
func (p *Pool) aliveAt(t simclock.Time) []int32 {
	e, at := slices.BinarySearch(p.edges, t)
	if at {
		e++
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.alive[e] == nil {
		list := []int32{} // non-nil: an epoch with nobody alive is built too
		if e > 0 {
			from := p.edges[e-1]
			for j, l := range p.life {
				if !from.Before(l.born) && from.Before(l.died) {
					list = append(list, int32(j))
				}
			}
		}
		p.alive[e] = list
	}
	return p.alive[e]
}

// walkStride is AppendAlive's stride over a pool of n: the first of
// 7919, 7921, ... co-prime to n. A prime spreads the walk; co-primality
// makes it a full cycle.
func walkStride(n int) int {
	stride := 7919
	for gcd(stride, n) != 1 {
		stride += 2
	}
	return stride
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// AddrFromKey converts a fixed array map key back to an address.
func AddrFromKey(k [4]byte) netip.Addr { return netip.AddrFrom4(k) }

// hashCoin returns a deterministic pseudo-random bit for a pair of
// values, used for stable routing decisions (does the (amplifier AS,
// victim AS) path cross the IXP?).
func hashCoin(a, b uint32, p float64, salt uint32) bool {
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:4], a)
	binary.BigEndian.PutUint32(buf[4:8], b)
	binary.BigEndian.PutUint32(buf[8:12], salt)
	h := fnv64(buf[:])
	return float64(h>>11)/float64(1<<53) < p
}

// fnv64 is a tiny inline FNV-1a.
func fnv64(b []byte) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}
