// Package resolver models the behaviour of the DNS infrastructure that
// amplification attacks abuse: open recursive resolvers, transparent
// forwarders (98% of open amplifiers per the paper), and authoritative
// nameservers. It implements TTL-decrementing caches (the mechanism the
// cache-snooping study of Appendix C exploits) and the RFC 8482
// minimal-ANY answer of a zone that refuses ANY.
package resolver

import (
	"net/netip"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
	"dnsamp/internal/zonedb"
)

// Kind classifies a DNS endpoint.
type Kind int

// Endpoint kinds.
const (
	// Recursive is an open recursive resolver: it answers from cache or
	// resolves against authoritative data and caches the result.
	Recursive Kind = iota
	// Forwarder is a transparent forwarder (e.g. a home router): it
	// relays to an upstream recursive resolver and inherits that
	// resolver's cache state, including decremented TTLs.
	Forwarder
	// Authoritative answers only for its own zones and never
	// recursively resolves — which is why only ~2% of abused amplifiers
	// are authoritative servers (§7.1).
	Authoritative
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Recursive:
		return "recursive"
	case Forwarder:
		return "forwarder"
	default:
		return "authoritative"
	}
}

// cacheKey identifies a cached RRset.
type cacheKey struct {
	name  string
	qtype dnswire.Type
}

type cacheEntry struct {
	expires    simclock.Time
	defaultTTL uint32
	size       int
}

// Resolver is one simulated DNS endpoint.
type Resolver struct {
	Addr netip.Addr
	Kind Kind
	// Upstream is the recursive resolver a forwarder relays to.
	Upstream *Resolver
	// Zones is the authority set (Authoritative kind only).
	Zones []*zonedb.Zone

	db    *zonedb.DB
	cache map[cacheKey]cacheEntry
}

// New creates a resolver backed by the namespace db.
func New(addr netip.Addr, kind Kind, db *zonedb.DB) *Resolver {
	return &Resolver{Addr: addr, Kind: kind, db: db, cache: make(map[cacheKey]cacheEntry)}
}

// Result describes the outcome of handling one query.
type Result struct {
	// Answered is false when the endpoint dropped the query (a
	// forwarder without an upstream).
	Answered bool
	// Size is the response size in bytes.
	Size int
	// CacheHit reports whether the answer came from cache.
	CacheHit bool
	// TTL is the TTL the client observes (decremented on cache hits —
	// the cache-snooping signal).
	TTL uint32
	// DefaultTTL is the authoritative TTL of the RRset.
	DefaultTTL uint32
	// RCode of the response.
	RCode dnswire.RCode
}

// Handle processes a query for (name, qtype) arriving at time t and
// returns the response description. The spoofed source address is
// irrelevant to the resolver; reflection happens at the transport layer.
func (r *Resolver) Handle(name string, qtype dnswire.Type, t simclock.Time) Result {
	switch r.Kind {
	case Authoritative:
		return r.handleAuthoritative(name, qtype, t)
	case Forwarder:
		if r.Upstream == nil {
			return Result{}
		}
		res := r.Upstream.Handle(name, qtype, t)
		// A transparent forwarder relays the upstream answer verbatim
		// (inheriting decremented TTLs), which is why forwarders must
		// be excluded from cache snooping (Appendix C phase 1).
		return res
	default:
		return r.handleRecursive(name, qtype, t)
	}
}

func (r *Resolver) handleAuthoritative(name string, qtype dnswire.Type, t simclock.Time) Result {
	cn := dnswire.CanonicalName(name)
	for _, z := range r.Zones {
		if z.Name == cn {
			if qtype == dnswire.TypeANY && !z.AllowANY {
				return Result{Answered: true, Size: dnswire.MinimalANYSize(cn), TTL: z.TTL, DefaultTTL: z.TTL}
			}
			size := r.db.ResponseSize(cn, qtype, t)
			return Result{Answered: true, Size: size, TTL: z.TTL, DefaultTTL: z.TTL}
		}
	}
	// Authoritative servers refuse queries outside their authority with
	// a small REFUSED response.
	return Result{Answered: true, Size: dnswire.QuestionSize(cn), RCode: dnswire.RCodeRefused}
}

func (r *Resolver) handleRecursive(name string, qtype dnswire.Type, t simclock.Time) Result {
	cn := dnswire.CanonicalName(name)
	key := cacheKey{cn, qtype}
	if e, ok := r.cache[key]; ok && t.Before(e.expires) {
		remaining := uint32(e.expires.Sub(t))
		return Result{
			Answered: true, Size: e.size, CacheHit: true,
			TTL: remaining, DefaultTTL: e.defaultTTL,
		}
	}
	// Cache miss: resolve against authoritative data.
	size := r.db.ResponseSize(cn, qtype, t)
	ttl := r.defaultTTLFor(cn)
	r.cache[key] = cacheEntry{
		expires:    t.Add(simclock.Duration(ttl)),
		defaultTTL: ttl,
		size:       size,
	}
	return Result{Answered: true, Size: size, TTL: ttl, DefaultTTL: ttl}
}

// defaultTTLFor returns the authoritative TTL of a name.
func (r *Resolver) defaultTTLFor(cn string) uint32 {
	if z, ok := r.db.Zone(cn); ok {
		return z.TTL
	}
	return 3600
}

// Warm inserts a cache entry as if the name had just been resolved at t,
// used to model organic popularity-driven cache contents.
func (r *Resolver) Warm(name string, qtype dnswire.Type, t simclock.Time) {
	if r.Kind != Recursive {
		if r.Upstream != nil {
			r.Upstream.Warm(name, qtype, t)
		}
		return
	}
	cn := dnswire.CanonicalName(name)
	ttl := r.defaultTTLFor(cn)
	r.cache[cacheKey{cn, qtype}] = cacheEntry{
		expires:    t.Add(simclock.Duration(ttl)),
		defaultTTL: ttl,
		size:       r.db.ResponseSize(cn, qtype, t),
	}
}

// AmplificationFactor is the response/request size ratio for a query of
// qtype for name at time t via this resolver.
func (r *Resolver) AmplificationFactor(name string, qtype dnswire.Type, t simclock.Time) float64 {
	req := dnswire.QuerySize(dnswire.CanonicalName(name))
	res := r.Handle(name, qtype, t)
	if !res.Answered || req == 0 {
		return 0
	}
	return float64(res.Size) / float64(req)
}
