// Package topology models the inter-domain substrate the IXP sits in:
// autonomous systems with typed roles, IPv4 prefix allocations, a
// longest-prefix-match routing table (standing in for RIPE RIS data,
// which the paper uses to map origin ASes), IXP membership and customer
// cones (used to annotate the "peering hop" AS of every sampled frame).
//
// The generator allocates everything deterministically from a seeded
// PRNG, so a campaign is fully reproducible.
package topology

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"

	"dnsamp/internal/stats"
)

// ASType classifies an autonomous system. Victim-category statistics in
// the paper (§4.2: 36% of attack traffic to ISP networks, 24% to content)
// are expressed against these classes.
type ASType int

// AS classes.
const (
	ASTransit ASType = iota
	ASAccess         // "ISP" / eyeball networks
	ASContent
	ASEnterprise
	ASEducation
	ASGovernment
	ASHosting
)

var asTypeNames = map[ASType]string{
	ASTransit: "transit", ASAccess: "access", ASContent: "content",
	ASEnterprise: "enterprise", ASEducation: "education",
	ASGovernment: "government", ASHosting: "hosting",
}

// String returns the class name.
func (t ASType) String() string { return asTypeNames[t] }

// AS is one autonomous system.
type AS struct {
	ASN      uint32
	Type     ASType
	Name     string
	Prefixes []netip.Prefix
	// Transit is the ASN of the upstream transit provider through which
	// this AS reaches the IXP (zero for IXP members themselves).
	Transit uint32
	// IXPMember marks ASes directly connected to the IXP fabric.
	IXPMember bool
}

// Topology is the full AS-level substrate.
type Topology struct {
	ASes    map[uint32]*AS
	Members []uint32 // IXP member ASNs, sorted
	rt      *routeTable
	// cone maps every ASN to the IXP member whose customer cone carries
	// its traffic onto the fabric.
	cone map[uint32]uint32
}

// Config controls topology synthesis.
type Config struct {
	Members      int // IXP member networks ("over a hundred", §3.1)
	ASesPerClass int // non-member ASes per class hanging off members
	Seed         int64
}

// DefaultConfig mirrors the paper's IXP scale at simulation size.
func DefaultConfig() Config {
	return Config{Members: 120, ASesPerClass: 220, Seed: 1}
}

// Generate synthesizes a topology.
func Generate(cfg Config) *Topology {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{
		ASes: make(map[uint32]*AS),
		rt:   newRouteTable(),
		cone: make(map[uint32]uint32),
	}
	alloc := newPrefixAllocator()

	nextASN := uint32(100)
	newAS := func(typ ASType, member bool, prefixes int, plen int) *AS {
		a := &AS{
			ASN:       nextASN,
			Type:      typ,
			Name:      fmt.Sprintf("AS%d-%s", nextASN, typ),
			IXPMember: member,
		}
		nextASN++
		for i := 0; i < prefixes; i++ {
			p := alloc.next(plen)
			a.Prefixes = append(a.Prefixes, p)
			t.rt.insert(p, a.ASN)
		}
		t.ASes[a.ASN] = a
		return a
	}

	// IXP members: a mix of transit-heavy and access/content members.
	memberTypes := []ASType{ASTransit, ASAccess, ASContent, ASHosting}
	for i := 0; i < cfg.Members; i++ {
		typ := memberTypes[i%len(memberTypes)]
		a := newAS(typ, true, 2+rng.Intn(4), 16)
		t.Members = append(t.Members, a.ASN)
		t.cone[a.ASN] = a.ASN
	}
	slices.Sort(t.Members)

	// Transit members carry larger customer cones: weight attachment
	// toward transits.
	var transits []uint32
	for _, m := range t.Members {
		if t.ASes[m].Type == ASTransit {
			transits = append(transits, m)
		}
	}

	classes := []struct {
		typ      ASType
		prefixes int
		plen     int
	}{
		{ASAccess, 4, 18},
		{ASContent, 2, 20},
		{ASEnterprise, 1, 22},
		{ASEducation, 1, 21},
		{ASGovernment, 1, 22},
		{ASHosting, 2, 20},
	}
	for _, cl := range classes {
		for i := 0; i < cfg.ASesPerClass; i++ {
			a := newAS(cl.typ, false, cl.prefixes, cl.plen)
			// 70% attach through a transit member, the rest through any
			// member — a crude but serviceable cone model.
			var up uint32
			if len(transits) > 0 && rng.Float64() < 0.7 {
				up = stats.Pick(rng, transits)
			} else {
				up = stats.Pick(rng, t.Members)
			}
			a.Transit = up
			t.cone[a.ASN] = up
		}
	}
	return t
}

// OriginAS returns the origin AS of an address per the routing table, or
// 0 if unknown. This stands in for RIPE RIS origin mapping (99% coverage
// in the paper; unallocated space here returns 0).
func (t *Topology) OriginAS(addr netip.Addr) uint32 { return t.rt.lookup(addr) }

// PeerHopAS returns the IXP member whose port carries traffic from addr's
// origin AS, or 0 if the origin is unknown.
func (t *Topology) PeerHopAS(addr netip.Addr) uint32 {
	return t.cone[t.rt.lookup(addr)]
}

// MemberFor returns the IXP member carrying asn's traffic (identity for
// members themselves).
func (t *Topology) MemberFor(asn uint32) uint32 { return t.cone[asn] }

// ConeSize returns the number of ASNs (including the member itself) in a
// member's customer cone.
func (t *Topology) ConeSize(member uint32) int {
	n := 0
	for _, up := range t.cone {
		if up == member {
			n++
		}
	}
	return n
}

// ASesOfType returns all ASNs of the given class, sorted.
func (t *Topology) ASesOfType(typ ASType) []uint32 {
	var out []uint32
	for asn, a := range t.ASes {
		if a.Type == typ {
			out = append(out, asn)
		}
	}
	slices.Sort(out)
	return out
}

// RandomAddrIn returns a host address drawn uniformly from the AS's
// allocated prefixes.
func (t *Topology) RandomAddrIn(rng *rand.Rand, asn uint32) (netip.Addr, bool) {
	a, ok := t.ASes[asn]
	if !ok || len(a.Prefixes) == 0 {
		return netip.Addr{}, false
	}
	p := stats.Pick(rng, a.Prefixes)
	return randomAddrInPrefix(rng, p), true
}

// randomAddrInPrefix picks a uniform host address inside p, avoiding the
// network and broadcast addresses for prefixes shorter than /31.
func randomAddrInPrefix(rng *rand.Rand, p netip.Prefix) netip.Addr {
	base := binary.BigEndian.Uint32(p.Addr().AsSlice())
	hostBits := 32 - p.Bits()
	size := uint32(1) << hostBits
	var off uint32
	if size > 2 {
		off = 1 + uint32(rng.Intn(int(size-2)))
	} else {
		off = uint32(rng.Intn(int(size)))
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], base|off)
	return netip.AddrFrom4(b)
}

// Prefix24 returns the covering /24 of an address, the victim-prefix
// aggregation unit used in §4.3.
func Prefix24(addr netip.Addr) netip.Prefix {
	p, _ := addr.Prefix(24)
	return p
}

// routeTable is a longest-prefix-match table over IPv4, implemented as
// per-length exact-match maps probed from the longest populated length
// downward — simple, deterministic and fast enough for simulation scale.
type routeTable struct {
	byLen [33]map[uint32]uint32 // masked address -> ASN
	lens  []int                 // populated lengths, descending
}

func newRouteTable() *routeTable { return &routeTable{} }

func (rt *routeTable) insert(p netip.Prefix, asn uint32) {
	l := p.Bits()
	if rt.byLen[l] == nil {
		rt.byLen[l] = make(map[uint32]uint32)
		rt.lens = append(rt.lens, l)
		slices.SortFunc(rt.lens, func(a, b int) int { return b - a })
	}
	key := binary.BigEndian.Uint32(p.Masked().Addr().AsSlice())
	rt.byLen[l][key] = asn
}

func (rt *routeTable) lookup(addr netip.Addr) uint32 {
	if !addr.Is4() {
		return 0
	}
	v := binary.BigEndian.Uint32(addr.AsSlice())
	for _, l := range rt.lens {
		key := v &^ (1<<(32-l) - 1)
		if l == 0 {
			key = 0
		}
		if asn, ok := rt.byLen[l][key]; ok {
			return asn
		}
	}
	return 0
}

// prefixAllocator hands out disjoint prefixes from 10.0.0.0/8 upward
// through several private-ish /8s, enough space for simulation scale.
type prefixAllocator struct {
	next32 uint32
}

func newPrefixAllocator() *prefixAllocator {
	// Start at 11.0.0.0 to keep 10/8 free for honeypot sensors and
	// scanner infrastructure.
	return &prefixAllocator{next32: 11 << 24}
}

// next allocates the next free prefix of the given length.
func (a *prefixAllocator) next(plen int) netip.Prefix {
	size := uint32(1) << (32 - plen)
	// Align.
	if rem := a.next32 % size; rem != 0 {
		a.next32 += size - rem
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], a.next32)
	a.next32 += size
	return netip.PrefixFrom(netip.AddrFrom4(b), plen)
}
