package analysis

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/resolver"
	"dnsamp/internal/simclock"
	"dnsamp/internal/zonedb"
)

// SnoopConfig tunes the modified cache-snooping study of Appendix C.
type SnoopConfig struct {
	// Resolvers is the number of open recursive resolvers probed after
	// phase-1 classification.
	Resolvers int
	// Forwarders are additional endpoints that phase 1 must identify
	// and exclude (they inherit upstream TTLs and would bias results).
	Forwarders int
}

// DefaultSnoopConfig returns study defaults.
func DefaultSnoopConfig() SnoopConfig {
	return SnoopConfig{Resolvers: 1500, Forwarders: 1500}
}

const (
	// snoopErrorRate models mutual resolver caches and DNS optimizers
	// that produce residual cache hits even for fresh names.
	snoopErrorRate float64 = 0.015
	// snoopSeed seeds the cache population and the residual errors.
	snoopSeed = 9
)

// SnoopName describes one probed name.
type SnoopName struct {
	Name string
	// AlexaRank is the popularity rank (0 = unranked).
	AlexaRank int
	// Misused marks names from the detector's list.
	Misused bool
	// Anchor marks control names (fresh name, post-expiry scanner
	// name).
	Anchor bool
	// OrganicPopularity is the probability the name sits in a given
	// resolver cache due to organic use.
	OrganicPopularity float64
	// AttackDriven is the extra cache presence caused by ongoing abuse
	// through open resolvers.
	AttackDriven float64
}

// SnoopResult is one name's Fig. 17 bar.
type SnoopResult struct {
	SnoopName
	Responses int
	CacheHits int
	CacheMiss int
}

// HitRate returns hits / responses.
func (r *SnoopResult) HitRate() float64 {
	if r.Responses == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Responses)
}

// SnoopStudy runs both phases of Appendix C against simulated endpoints.
type SnoopStudy struct {
	Cfg SnoopConfig
	// ResolversFound / ForwardersExcluded are phase-1 outcomes.
	ResolversFound     int
	ForwardersExcluded int
	// Results hold one entry per probed name, sorted by rank.
	Results []*SnoopResult
}

// organicPopularity maps an Alexa-style rank to cache presence.
func organicPopularity(rank int) float64 {
	if rank <= 0 {
		return 0.01
	}
	// log10 falloff: rank 7 -> ~0.93, rank 200k -> ~0.30.
	p := 1.05 - 0.14*math.Log10(float64(rank))
	if p < 0.02 {
		p = 0.02
	}
	if p > 0.98 {
		p = 0.98
	}
	return p
}

// RunSnoopStudy executes phase 1 (resolver identification) and phase 2
// (ANY snooping) and returns per-name hit/miss counts.
func RunSnoopStudy(cfg SnoopConfig, db *zonedb.DB, misused []string, now simclock.Time) *SnoopStudy {
	rng := rand.New(rand.NewSource(snoopSeed))
	st := &SnoopStudy{Cfg: cfg}

	// --- Phase 1: identify resolvers, exclude forwarders --------------
	// Our authoritative test server returns an A record carrying the
	// address of the resolver that contacted it; endpoints whose
	// response A record differs from the probed address are forwarders.
	var endpoints []*resolver.Resolver
	for i := 0; i < cfg.Resolvers; i++ {
		addr := netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)})
		endpoints = append(endpoints, resolver.New(addr, resolver.Recursive, db))
	}
	for i := 0; i < cfg.Forwarders; i++ {
		addr := netip.AddrFrom4([4]byte{100, 80, byte(i >> 8), byte(i)})
		fw := resolver.New(addr, resolver.Forwarder, db)
		// Forwarders share upstreams.
		up := endpoints[i%cfg.Resolvers]
		fw.Upstream = up
		endpoints = append(endpoints, fw)
	}
	var probed []*resolver.Resolver
	for _, ep := range endpoints {
		// The "which address asked my authoritative" test: a forwarder
		// relays through its upstream, whose address differs.
		contactAddr := ep.Addr
		if ep.Kind == resolver.Forwarder && ep.Upstream != nil {
			contactAddr = ep.Upstream.Addr
		}
		if contactAddr == ep.Addr {
			probed = append(probed, ep)
			st.ResolversFound++
		} else {
			st.ForwardersExcluded++
		}
	}

	// --- Cache population ----------------------------------------------
	names := snoopNameSet(db, misused)
	for _, ep := range probed {
		for _, n := range names {
			p := n.OrganicPopularity + n.AttackDriven
			if rng.Float64() < p {
				// Warmed at a random moment within the TTL window
				// before the scan, so remaining TTL < default.
				z, ok := db.Zone(n.Name)
				ttl := uint32(3600)
				if ok {
					ttl = z.TTL
				}
				back := simclock.Duration(1 + rng.Int63n(int64(ttl)-1))
				ep.Warm(n.Name, dnswire.TypeANY, now.Add(-back))
			}
		}
	}

	// --- Phase 2: snoop -------------------------------------------------
	for _, n := range names {
		res := &SnoopResult{SnoopName: n}
		for _, ep := range probed {
			r := ep.Handle(n.Name, dnswire.TypeANY, now)
			if !r.Answered || r.RCode != dnswire.RCodeNoError {
				continue // sanitization: drop REFUSED etc.
			}
			res.Responses++
			hit := r.CacheHit && r.TTL < r.DefaultTTL
			// Residual error: mutual caches / TTL manipulators.
			if !hit && rng.Float64() < snoopErrorRate {
				hit = true
			}
			if hit {
				res.CacheHits++
			} else {
				res.CacheMiss++
			}
		}
		st.Results = append(st.Results, res)
	}
	sort.Slice(st.Results, func(i, j int) bool {
		ri, rj := st.Results[i].AlexaRank, st.Results[j].AlexaRank
		if ri == 0 {
			ri = 1 << 30
		}
		if rj == 0 {
			rj = 1 << 30
		}
		if ri != rj {
			return ri < rj
		}
		return st.Results[i].Name < st.Results[j].Name
	})
	return st
}

// snoopNameSet assembles the probed names: popular references, misused
// names, and the two anchors.
func snoopNameSet(db *zonedb.DB, misused []string) []SnoopName {
	var out []SnoopName
	seen := make(map[string]bool)
	add := func(n SnoopName) {
		cn := dnswire.CanonicalName(n.Name)
		if seen[cn] {
			return
		}
		seen[cn] = true
		n.Name = cn
		out = append(out, n)
	}
	misusedSet := make(map[string]bool)
	for _, m := range misused {
		misusedSet[dnswire.CanonicalName(m)] = true
	}
	for _, name := range db.ExplicitNames() {
		z, _ := db.Zone(name)
		if z.PopularityRank == 0 && !misusedSet[name] {
			continue
		}
		n := SnoopName{
			Name:              name,
			AlexaRank:         z.PopularityRank,
			Misused:           misusedSet[name],
			OrganicPopularity: organicPopularity(z.PopularityRank),
		}
		if n.Misused {
			// Ongoing abuse keeps the name hot in open-resolver caches
			// regardless of web popularity — the Fig. 17 signal.
			n.AttackDriven = 0.80
			if n.OrganicPopularity+n.AttackDriven > 0.95 {
				n.AttackDriven = 0.95 - n.OrganicPopularity
			}
		}
		add(n)
	}
	// Anchor 1: a name created right before the scan — must miss.
	add(SnoopName{Name: "uncached-anchor.example.", Anchor: true, OrganicPopularity: 0})
	// Anchor 2: a scanner name probed after its documented daily TTL
	// expiry — must miss too.
	add(SnoopName{Name: "scan.shadowserver.org.", AlexaRank: 117_000, Anchor: true, OrganicPopularity: 0})
	return out
}
