// Package zonedb is the synthetic DNS namespace of the reproduction.
//
// It has two tiers:
//
//  1. Explicit zones — a few dozen fully-modelled zones: the misused-name
//     candidates of the paper (Table 2), the ten .gov names the major
//     attack entity rotates through (with double-signature DNSSEC
//     rollovers driving their ANY response sizes, §6.1), plus popular and
//     anchor names for the cache-snooping study (Fig. 17).
//
//  2. A procedural bulk namespace standing in for OpenINTEL's 440 M
//     measured names (default scale 1:100, i.e. 4.4 M names). Per-name
//     response-size profiles are derived deterministically from a hash, so
//     the full CDF of Fig. 16 can be regenerated without storing records.
//
// Response sizes are computed from actual record sets (via dnswire wire
// lengths and dnssec signing state), never hard-coded.
package zonedb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strings"

	"dnsamp/internal/dnssec"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
)

// Zone is one explicitly modelled zone.
type Zone struct {
	Name string
	TTL  uint32
	// RRsets holds the authoritative base records by type (unsigned;
	// DNSSEC material is derived from Signer).
	RRsets map[dnswire.Type][]dnswire.RR
	// Signer is non-nil for DNSSEC-signed zones.
	Signer *dnssec.Signer
	// AllowANY is false for zones whose authoritative servers implement
	// RFC 8482 minimal ANY responses.
	AllowANY bool
	// PopularityRank is an Alexa-style global rank (lower = more
	// popular, 0 = unranked). Drives cache prefill in the resolver sim.
	PopularityRank int
	// NSAddrs are the authoritative nameserver addresses.
	NSAddrs []netip.Addr
}

// DB is the namespace database.
type DB struct {
	zones map[string]*Zone
	// ordered explicit names for deterministic iteration
	names []string

	entityNames  []string // the major entity's .gov rotation, sorted
	misusedNames []string // all misused-name candidates (34)
	attacked     []string // candidates with attack traffic (32)

	procCount int
}

// Config controls namespace synthesis.
type Config struct {
	// ProceduralNames is the size of the bulk namespace (default 4.4 M:
	// the paper's 440 M at 1:100 scale).
	ProceduralNames int
}

// DefaultConfig returns the standard 1:100-scale configuration.
func DefaultConfig() Config { return Config{ProceduralNames: 4_400_000} }

// entityGov are the ten .gov names the major attack entity rotates
// through (Fig. 8), in its (lexicographic) rotation order.
var entityGov = []string{
	"bja.gov", "cybercrime.gov", "doj.gov", "elderjustice.gov",
	"esc.gov", "financialresearch.gov", "itap.gov", "nij.gov",
	"nsf.gov", "peacecorps.gov",
}

// otherGov are additional misused .gov names (Table 2 reports 17 .gov
// names in total).
var otherGov = []string{
	"americorps.gov", "bjs.gov", "eftps.gov", "nsa.gov",
	"ojp.gov", "ovc.gov", "usdoj.gov",
}

// otherMisused are the non-.gov misused names, matching Table 2's TLD
// distribution (.za .cc .pl .cz .com×2 .org×2 .se .eu .be root .br .ru×2).
var otherMisused = []string{
	"amp.co.za", "ripe.cc", "nask.pl", "nic.cz",
	"bigcorp.com", "cdnstatic.com",
	"opendata.org", "researchnet.org",
	"iis.se", "europa.eu", "dnssec.be",
	".", "registro.br", "mail.ru", "rbc.ru",
}

// idleCandidates are selected by the detector's selectors but never
// attacked (the paper detects attack traffic for 32 of 34 names).
var idleCandidates = []string{"reserve.net", "backup.info"}

// popularZones are popular (highly cached) names for the cache-snooping
// comparison; rank per the paper's Fig. 17 annotations.
var popularZones = []struct {
	name string
	rank int
}{
	{"facebook.com", 7},
	{"360.cn", 10},
	{"nsa.gov", 17_000},
	{"americorps.gov", 94_000},
	{"shadowserver.org", 117_000},
	{"eftps.gov", 123_000},
	{"peacecorps.gov", 191_000},
	{"isc.org", 250_000},
}

// New builds the namespace.
func New(cfg Config) *DB {
	if cfg.ProceduralNames <= 0 {
		cfg.ProceduralNames = DefaultConfig().ProceduralNames
	}
	db := &DB{
		zones:     make(map[string]*Zone),
		procCount: cfg.ProceduralNames,
	}

	// Entity .gov zones: DNSSEC-signed, double-signature ZSK rollovers,
	// staggered so rollovers relay from one name to the next (the attack
	// entity follows the size signal, §6.1). Base ANY sizes sit below
	// the 4096-byte EDNS limit; the rollover overhead lifts them above.
	// Phase stagger of 19 days: name i's rollover begins 19 days after
	// name i-1's, so when a rollover's 14-day plateau ends and the size
	// signal decays for ~5 days, the next name in lexicographic order is
	// just entering its own rollover — the relay the attack entity rides
	// (§6.1). The measurement start (day 18048 since the epoch) is an
	// exact multiple of the 47-day interval, anchoring name 0's rollover
	// to the first day of the campaign.
	for i, name := range entityGov {
		phase := -simclock.Days(19 * i)
		signer := dnssec.NewSigner(name, dnswire.AlgRSASHA256, dnssec.DoubleSignature, 47, phase)
		z := db.addZone(name, 3600, signer, true)
		fillGovZone(z, i)
	}
	for i, name := range otherGov {
		signer := dnssec.NewSigner(name, dnswire.AlgRSASHA256, dnssec.DoubleSignature, 61, simclock.Days(13*i))
		z := db.addZone(name, 3600, signer, true)
		fillGovZone(z, i+3)
	}
	// Target ANY sizes per Table 2's per-TLD maxima. Zones signed with a
	// pre-publish signer get their signature overhead on top, so their
	// targets are reduced accordingly when padding.
	targets := map[string]int{
		"amp.co.za": 5155, "ripe.cc": 4408, "nask.pl": 5954, "nic.cz": 5881,
		"bigcorp.com": 10270, "cdnstatic.com": 4100,
		"opendata.org": 6090, "researchnet.org": 3600,
		"iis.se": 5535, "europa.eu": 4096, "dnssec.be": 8199,
		"registro.br": 3893, "mail.ru": 1500, "rbc.ru": 1400,
	}
	for i, name := range otherMisused {
		var signer *dnssec.Signer
		if i%3 == 0 && name != "." {
			signer = dnssec.NewSigner(name, dnswire.AlgRSASHA256, dnssec.PrePublish, 90, simclock.Days(7*i))
		}
		z := db.addZone(name, 3600, signer, true)
		if name == "." {
			fillRootZone(z)
		} else {
			// The padding loop measures the live ANY size (including
			// any signature overhead), so the Table 2 target can be
			// used directly.
			fillLargeTXTZone(z, targets[name])
		}
	}
	for i, name := range idleCandidates {
		z := db.addZone(name, 3600, nil, true)
		fillLargeTXTZone(z, 4200+300*i)
	}
	for _, p := range popularZones {
		name := dnswire.CanonicalName(p.name)
		z, ok := db.zones[name]
		if !ok {
			z = db.addZone(p.name, 300, nil, false)
			fillOrdinaryZone(z)
		}
		z.PopularityRank = p.rank
	}

	db.entityNames = canonAll(entityGov)
	db.misusedNames = canonAll(append(append(append([]string{}, entityGov...), otherGov...), append(otherMisused, idleCandidates...)...))
	db.attacked = canonAll(append(append(append([]string{}, entityGov...), otherGov...), otherMisused...))
	slices.Sort(db.names)
	return db
}

func canonAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = dnswire.CanonicalName(n)
	}
	return out
}

func (db *DB) addZone(name string, ttl uint32, signer *dnssec.Signer, allowANY bool) *Zone {
	cn := dnswire.CanonicalName(name)
	z := &Zone{
		Name:     cn,
		TTL:      ttl,
		RRsets:   make(map[dnswire.Type][]dnswire.RR),
		Signer:   signer,
		AllowANY: allowANY,
	}
	// Two authoritative nameservers per zone, derived deterministically.
	h := nameHash(cn)
	for i := 0; i < 2; i++ {
		z.NSAddrs = append(z.NSAddrs, netip.AddrFrom4([4]byte{
			198, 18, byte(h >> (8 * (i + 1))), byte(h>>uint(8*i)) | 1,
		}))
	}
	db.zones[cn] = z
	db.names = append(db.names, cn)
	return z
}

// fillGovZone populates a .gov zone whose unsigned ANY payload plus
// steady-state DNSSEC overhead lands just below the 4096-byte EDNS limit;
// rollovers push it well above (Fig. 8b).
func fillGovZone(z *Zone, variant int) {
	base := z.Name
	addr := deterministicAddr(base, 0)
	z.RRsets[dnswire.TypeA] = []dnswire.RR{rr(base, dnswire.TypeA, z.TTL, dnswire.AData{Addr: addr})}
	z.RRsets[dnswire.TypeAAAA] = []dnswire.RR{rr(base, dnswire.TypeAAAA, z.TTL, dnswire.AAAAData{Addr: deterministicAddr6(base)})}
	z.RRsets[dnswire.TypeNS] = []dnswire.RR{
		rr(base, dnswire.TypeNS, z.TTL, dnswire.NameData{Target: "ns1." + base}),
		rr(base, dnswire.TypeNS, z.TTL, dnswire.NameData{Target: "ns2." + base}),
	}
	z.RRsets[dnswire.TypeSOA] = []dnswire.RR{rr(base, dnswire.TypeSOA, z.TTL, dnswire.SOAData{
		MName: "ns1." + base, RName: "hostmaster." + base,
		Serial: 2019060100, Refresh: 7200, Retry: 3600, Expire: 1209600, Min: 300,
	})}
	z.RRsets[dnswire.TypeMX] = []dnswire.RR{
		rr(base, dnswire.TypeMX, z.TTL, dnswire.MXData{Pref: 10, Host: "mail." + base}),
		rr(base, dnswire.TypeMX, z.TTL, dnswire.MXData{Pref: 20, Host: "mail2." + base}),
	}
	// Federal zones carry sizeable TXT policy records (SPF, verification
	// tokens); variant scales the bulk so names differ in max size while
	// every base (non-rollover) ANY stays below the 4096 B EDNS limit.
	txts := []string{
		"v=spf1 include:_spf." + base + " ip4:192.0.2.0/24 ip4:198.51.100.0/24 -all",
		strings.Repeat("google-site-verification=", 1) + synthToken(base, 40),
	}
	for i := 0; i < 2; i++ {
		txts = append(txts, fmt.Sprintf("policy-%d=%s", i, synthToken(base, 60+14*(variant%5))))
	}
	z.RRsets[dnswire.TypeTXT] = []dnswire.RR{rr(base, dnswire.TypeTXT, z.TTL, dnswire.TXTData{Strings: txts})}
	z.RRsets[dnswire.TypeCAA] = []dnswire.RR{rr(base, dnswire.TypeCAA, z.TTL, dnswire.CAAData{Tag: "issue", Value: "digicert.com"})}
}

// fillLargeTXTZone populates a non-gov misused zone: big TXT payloads
// that make ANY attractive even without DNSSEC. targetBytes is the ANY
// response size to approximate (Table 2's per-TLD max sizes).
func fillLargeTXTZone(z *Zone, targetBytes int) {
	base := z.Name
	z.RRsets[dnswire.TypeA] = []dnswire.RR{rr(base, dnswire.TypeA, z.TTL, dnswire.AData{Addr: deterministicAddr(base, 0)})}
	z.RRsets[dnswire.TypeNS] = []dnswire.RR{
		rr(base, dnswire.TypeNS, z.TTL, dnswire.NameData{Target: "ns1." + base}),
		rr(base, dnswire.TypeNS, z.TTL, dnswire.NameData{Target: "ns2." + base}),
	}
	z.RRsets[dnswire.TypeSOA] = []dnswire.RR{rr(base, dnswire.TypeSOA, z.TTL, dnswire.SOAData{
		MName: "ns1." + base, RName: "hostmaster." + base,
		Serial: 2019010100, Refresh: 7200, Retry: 3600, Expire: 1209600, Min: 300,
	})}
	z.RRsets[dnswire.TypeMX] = []dnswire.RR{rr(base, dnswire.TypeMX, z.TTL, dnswire.MXData{Pref: 10, Host: "mx." + base})}
	// Pad with TXT blobs until the ANY size approximates the target.
	var txts []string
	for i := 0; ; i++ {
		z.RRsets[dnswire.TypeTXT] = []dnswire.RR{rr(base, dnswire.TypeTXT, z.TTL, dnswire.TXTData{Strings: txts})}
		gap := targetBytes - z.ANYSize(0)
		if gap <= 40 || i > 200 {
			break
		}
		chunk := gap - 20
		if chunk > 230 {
			chunk = 230
		}
		txts = append(txts, fmt.Sprintf("blob-%02d=%s", i, synthToken(base, chunk)))
	}
}

// fillRootZone gives the root name an NS set resembling a hint file.
func fillRootZone(z *Zone) {
	for c := byte('a'); c <= 'm'; c++ {
		z.RRsets[dnswire.TypeNS] = append(z.RRsets[dnswire.TypeNS],
			rr(".", dnswire.TypeNS, 518400, dnswire.NameData{Target: string(c) + ".root-servers.net."}))
	}
	z.RRsets[dnswire.TypeSOA] = []dnswire.RR{rr(".", dnswire.TypeSOA, 86400, dnswire.SOAData{
		MName: "a.root-servers.net.", RName: "nstld.verisign-grs.com.",
		Serial: 2019060100, Refresh: 1800, Retry: 900, Expire: 604800, Min: 86400,
	})}
	var txts []string
	for i := 0; i < 15; i++ {
		txts = append(txts, fmt.Sprintf("rootmeta-%02d=%s", i, synthToken(".", 220)))
	}
	z.RRsets[dnswire.TypeTXT] = []dnswire.RR{rr(".", dnswire.TypeTXT, 86400, dnswire.TXTData{Strings: txts})}
}

// fillOrdinaryZone populates a small, unremarkable zone (popular web
// properties: large infrastructures but small DNS answers).
func fillOrdinaryZone(z *Zone) {
	base := z.Name
	z.RRsets[dnswire.TypeA] = []dnswire.RR{rr(base, dnswire.TypeA, z.TTL, dnswire.AData{Addr: deterministicAddr(base, 0)})}
	z.RRsets[dnswire.TypeAAAA] = []dnswire.RR{rr(base, dnswire.TypeAAAA, z.TTL, dnswire.AAAAData{Addr: deterministicAddr6(base)})}
	z.RRsets[dnswire.TypeNS] = []dnswire.RR{
		rr(base, dnswire.TypeNS, z.TTL, dnswire.NameData{Target: "ns1." + base}),
		rr(base, dnswire.TypeNS, z.TTL, dnswire.NameData{Target: "ns2." + base}),
	}
	z.RRsets[dnswire.TypeTXT] = []dnswire.RR{rr(base, dnswire.TypeTXT, z.TTL, dnswire.TXTData{Strings: []string{"v=spf1 -all"}})}
}

func rr(name string, t dnswire.Type, ttl uint32, data dnswire.RData) dnswire.RR {
	return dnswire.RR{Name: dnswire.CanonicalName(name), Type: t, Class: dnswire.ClassIN, TTL: ttl, Data: data}
}

// Zone returns an explicit zone.
func (db *DB) Zone(name string) (*Zone, bool) {
	z, ok := db.zones[dnswire.CanonicalName(name)]
	return z, ok
}

// ExplicitNames returns all explicit zone names, sorted.
func (db *DB) ExplicitNames() []string { return db.names }

// EntityNames returns the major entity's rotation list in order.
func (db *DB) EntityNames() []string { return db.entityNames }

// MisusedCandidates returns all 34 misused-name candidates.
func (db *DB) MisusedCandidates() []string { return db.misusedNames }

// AttackedNames returns the candidates that see attack traffic (32).
func (db *DB) AttackedNames() []string { return db.attacked }

// NumProceduralNames returns the bulk namespace size.
func (db *DB) NumProceduralNames() int { return db.procCount }

// ProceduralName returns the i-th bulk name (0-based), equal to
// fmt.Sprintf("host%07d.%s.", i, tld) but without the formatter
// overhead.
func (db *DB) ProceduralName(i int) string {
	return string(appendProceduralName(nil, i))
}

// procTLDs are the bulk namespace's TLDs: name i takes procTLDs[i%10].
var procTLDs = [...]string{"com", "net", "org", "de", "nl", "info", "io", "co", "us", "fr"}

// ProceduralRange returns the first n bulk names as a range a
// names.Table holds without hashing them (names.Table.AppendRange). n
// may exceed a DB's NumProceduralNames: every index has a name.
func ProceduralRange(n int) Procedural { return Procedural{n: n} }

// Procedural is the bulk names 0..n-1: name i is "host", i zero-padded
// to seven decimal digits, ".", the TLD i selects, ".". It is plain
// data, so tables holding equal ranges compare equal.
type Procedural struct{ n int }

// procDigits is the zero-padded width of a bulk name's index.
const procDigits = 7

// Len returns the number of names.
func (p Procedural) Len() int { return p.n }

// Size returns the total length of the names: "host", seven digits
// and two dots each, a digit more per name from index 10 000 000 on
// (and another from 100 000 000 on, ...), and each name's TLD.
func (p Procedural) Size() int {
	size := p.n * (len("host") + procDigits + 2)
	for lo := 10_000_000; lo < p.n; lo *= 10 {
		size += p.n - lo
	}
	for j, tld := range procTLDs {
		size += (p.n - j + len(procTLDs) - 1) / len(procTLDs) * len(tld) // names j, j+10, ...
	}
	return size
}

// AppendName appends name i to dst.
func (p Procedural) AppendName(dst []byte, i int) []byte {
	return appendProceduralName(dst, i)
}

// ParseName returns the i whose name is name, if 0 ≤ i < Len(). It
// accepts exactly the bytes AppendName writes: no other padding, case
// or TLD.
func (p Procedural) ParseName(name string) (int, bool) {
	if len(name) < len("host0000000.") || name[:len("host")] != "host" {
		return 0, false
	}
	// Seven digits, or more without a leading zero. Eleven digits at
	// most are read, which a uint64 holds: more fail the dot test.
	var v uint64
	end := len("host")
	for ; end < len(name) && end < len("host")+11 && name[end] != '.'; end++ {
		c := name[end] - '0'
		if c > 9 {
			return 0, false
		}
		v = v*10 + uint64(c)
	}
	digits := end - len("host")
	if end == len(name) || name[end] != '.' || digits < procDigits || digits > procDigits && name[len("host")] == '0' || v >= uint64(p.n) {
		return 0, false
	}
	tld, rest := procTLDs[v%uint64(len(procTLDs))], name[end+1:]
	if len(rest) != len(tld)+1 || rest[len(tld)] != '.' || rest[:len(tld)] != tld {
		return 0, false
	}
	return int(v), true
}

// appendProceduralName appends bulk name i.
func appendProceduralName(dst []byte, i int) []byte {
	var digits [20]byte
	d := len(digits)
	for v := i; ; {
		d--
		digits[d] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for d > len(digits)-procDigits {
		d--
		digits[d] = '0'
	}
	dst = append(dst, "host"...)
	dst = append(dst, digits[d:]...)
	dst = append(dst, '.')
	dst = append(dst, procTLDs[i%len(procTLDs)]...)
	return append(dst, '.')
}

// ANYSize returns the estimated ANY response size in bytes of a name at
// time t, matching the paper's methodology of summing stored resource
// record sizes (Fig. 16: "we calculate the response sizes based on the
// cumulative resource record sizes stored in the DNS and ignore common
// software or protocol limits").
func (db *DB) ANYSize(name string, t simclock.Time) int {
	cn := dnswire.CanonicalName(name)
	if z, ok := db.zones[cn]; ok {
		return z.ANYSize(t)
	}
	return db.proceduralANYSize(cn)
}

// ANYSize computes the ANY response size of an explicit zone at t from
// its real record sets.
func (z *Zone) ANYSize(t simclock.Time) int {
	size := dnswire.QuerySize(z.Name)
	n := 0
	for _, set := range z.RRsets {
		for _, r := range set {
			size += r.WireLen()
		}
		n++
	}
	if z.Signer != nil {
		size += z.Signer.SignatureOverheadAt(t, z.Name, n, z.TTL)
	}
	return size
}

// ResponseSize estimates the response size for a specific query type.
func (db *DB) ResponseSize(name string, qtype dnswire.Type, t simclock.Time) int {
	cn := dnswire.CanonicalName(name)
	z, ok := db.zones[cn]
	if !ok {
		if qtype == dnswire.TypeANY {
			return db.proceduralANYSize(cn)
		}
		return db.proceduralTypedSize(cn, qtype)
	}
	if qtype == dnswire.TypeANY {
		if !z.AllowANY {
			// RFC 8482 minimal response: synthesized HINFO-sized answer.
			return dnswire.MinimalANYSize(z.Name)
		}
		return z.ANYSize(t)
	}
	size := dnswire.QuerySize(z.Name)
	for _, r := range z.RRsets[qtype] {
		size += r.WireLen()
	}
	if z.Signer != nil && len(z.RRsets[qtype]) > 0 {
		size += z.Signer.RRSIGLen(t, z.Name, qtype)
	}
	return size
}

// BuildANYResponse materializes the full ANY response message of an
// explicit zone at time t, including live DNSSEC records.
func (z *Zone) BuildANYResponse(q *dnswire.Message, t simclock.Time) *dnswire.Message {
	resp := dnswire.NewResponse(q)
	resp.Header.AA = true
	types := make([]dnswire.Type, 0, len(z.RRsets))
	for typ := range z.RRsets {
		types = append(types, typ)
	}
	slices.Sort(types)
	for _, typ := range types {
		resp.Answers = append(resp.Answers, z.RRsets[typ]...)
	}
	if z.Signer != nil {
		resp.Answers = append(resp.Answers, z.Signer.DNSKEYRecords(t, z.TTL)...)
		resp.Answers = append(resp.Answers, z.Signer.Sign(t, z.Name, dnswire.TypeDNSKEY, z.TTL)...)
		for _, typ := range types {
			resp.Answers = append(resp.Answers, z.Signer.Sign(t, z.Name, typ, z.TTL)...)
		}
	}
	resp.Additional = append(resp.Additional, dnswire.RR{
		Name: ".", Type: dnswire.TypeOPT, Class: dnswire.Class(4096), Data: dnswire.OPTData{},
	})
	return resp
}

// --- procedural namespace -------------------------------------------------

// Tail calibration: match the paper's Fig. 16 proportions.
//
//	P(size > 4096)          ≈ 2.1e-4  (92k of 440M)
//	P(size > misused max)   ≈ 2.06e-5 (9048 of 440M)
//	max estimated           ≈ 142 855 B (14× the largest observed)
//
// The shape parameter trades off two paper anchors that cannot both hold
// exactly at 1:100 scale: the count of names above the best misused name
// (0.002%) and the maximum estimated size (142,855 B → 14× headroom).
// α = 2.0 keeps the above-misused share at ~0.003% while letting the
// 4.4 M-name maximum reach ~125 kB (≈12× headroom).
const (
	procTailP      = 2.1e-4
	procTailStart  = 4096.0
	procTailMax    = 142855.0
	procTailAlpha  = 2.0
	procMisusedMax = 10270.0
)

// proceduralANYSize derives a deterministic ANY response size for a bulk
// name from its hash. The body of the distribution is a mixture of small
// answers; the tail is bounded-Pareto.
func (db *DB) proceduralANYSize(name string) int {
	u := hashUniform(name)
	switch {
	case u < 0.70:
		// Bare A/AAAA/NS/SOA zones: 120–400 B.
		return 120 + int(u/0.70*280)
	case u < 0.95:
		// SPF/TXT-bearing zones: 400–1200 B.
		return 400 + int((u-0.70)/0.25*800)
	case u < 1-procTailP:
		// DNSSEC-signed zones: 1200–4096 B.
		frac := (u - 0.95) / (1 - procTailP - 0.95)
		return 1200 + int(frac*(procTailStart-1200))
	default:
		// Heavy tail: bounded Pareto on [4096, 142855].
		v := (u - (1 - procTailP)) / procTailP // uniform in [0,1)
		size := procTailStart * math.Pow(1-v, -1/procTailAlpha)
		if size > procTailMax {
			size = procTailMax
		}
		return int(size)
	}
}

// proceduralTypedSize derives a typed (non-ANY) response size for a bulk
// name: single RRsets with realistic spread, with ~25% of the namespace
// DNSSEC-signed (adding an RRSIG). This keeps the background byte volume
// honest — the paper's attack traffic is 5% of DNS packets but 40% of
// bytes, which requires organic responses of a few hundred bytes on
// average, not bare minimum answers.
func (db *DB) proceduralTypedSize(name string, qtype dnswire.Type) int {
	u := hashUniform(string(qtype.String()) + "|" + name)
	size := dnswire.QuerySize(name) + 120 + int(u*420)
	if hashUniform("dnssec|"+name) < 0.25 {
		size += 286 // one RSA-2048 RRSIG
	}
	return size
}

// nameHash returns a stable 32-bit hash of a canonical name.
func nameHash(name string) uint32 {
	sum := sha256.Sum256([]byte(name))
	return binary.BigEndian.Uint32(sum[:4])
}

// hashUniform maps a name to a uniform float in [0,1).
func hashUniform(name string) float64 {
	sum := sha256.Sum256([]byte(name))
	v := binary.BigEndian.Uint64(sum[:8])
	return float64(v>>11) / float64(1<<53)
}

// deterministicAddr derives a stable IPv4 address for a name.
func deterministicAddr(name string, salt byte) netip.Addr {
	sum := sha256.Sum256([]byte{salt})
	h := sha256.Sum256(append(sum[:4], name...))
	return netip.AddrFrom4([4]byte{203, h[0], h[1], h[2] | 1})
}

// deterministicAddr6 derives a stable IPv6 address for a name.
func deterministicAddr6(name string) netip.Addr {
	h := sha256.Sum256([]byte("v6:" + name))
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = 0x0d, 0xb8
	copy(b[4:], h[:12])
	return netip.AddrFrom16(b)
}

// synthToken returns n bytes of deterministic base32-ish filler.
func synthToken(seed string, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz234567"
	out := make([]byte, 0, n)
	ctr := 0
	for len(out) < n {
		h := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", seed, ctr)))
		for _, b := range h {
			if len(out) == n {
				break
			}
			out = append(out, alphabet[int(b)%len(alphabet)])
		}
		ctr++
	}
	return string(out)
}
