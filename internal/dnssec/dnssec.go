// Package dnssec models DNSSEC signing material and ZSK rollover schemes.
//
// The paper's Fig. 8b shows that the ANY response size of misused .gov
// names plateaus for two weeks at a time because their operators run
// automated double-signature ZSK rollovers: during a rollover the zone
// carries an extra DNSKEY record and a second, redundant RRSIG per RRset,
// inflating every signed response. This package reproduces exactly that
// mechanism — response sizes are computed from the actual DNSKEY/RRSIG
// record sets in force at a given simulated time, not hard-coded.
package dnssec

import (
	"crypto/sha256"
	"encoding/binary"
	"strconv"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
)

// Scheme selects the ZSK rollover discipline of RFC 6781.
type Scheme int

// Rollover schemes.
const (
	// PrePublish introduces the new ZSK in stand-by (published but not
	// signing): one extra DNSKEY during the rollover, signature count
	// unchanged. Best practice (§6.1).
	PrePublish Scheme = iota
	// DoubleSignature keeps both ZSKs actively signing: one extra
	// DNSKEY and a doubled RRSIG set during the rollover. This is the
	// scheme the paper observes on the misused .gov names.
	DoubleSignature
)

// String names the scheme.
func (s Scheme) String() string {
	if s == DoubleSignature {
		return "double-signature"
	}
	return "pre-publish"
}

// Key material sizes (bytes of DNSKEY public-key rdata / RRSIG signature).
const (
	RSA2048KeyLen = 260 // 4-byte exponent header + 256-byte modulus
	RSA2048SigLen = 256
	RSA1024KeyLen = 132
	RSA1024SigLen = 128
	ECDSAKeyLen   = 64
	ECDSASigLen   = 64
)

// KeyLen returns the public-key rdata size for an algorithm.
func KeyLen(alg uint8) int {
	if alg == dnswire.AlgECDSAP256SHA256 {
		return ECDSAKeyLen
	}
	return RSA2048KeyLen
}

// SigLen returns the signature size for an algorithm.
func SigLen(alg uint8) int {
	if alg == dnswire.AlgECDSAP256SHA256 {
		return ECDSASigLen
	}
	return RSA2048SigLen
}

// Signer holds the signing configuration of one zone.
type Signer struct {
	Zone      string
	Algorithm uint8
	Scheme    Scheme
	// Interval is the time between consecutive rollover starts.
	Interval simclock.Duration
	// Overlap is how long old and new ZSK coexist ("plateaus ... last
	// two weeks", §6.1).
	Overlap simclock.Duration
	// Phase shifts the rollover schedule so that different zones roll
	// at different times.
	Phase simclock.Duration
	// KSKs are long-lived; we model a single static KSK.
	kskTag uint16
}

// NewSigner builds a signer with the paper-typical cadence: rollovers
// every interval days with a 14-day overlap.
func NewSigner(zone string, alg uint8, scheme Scheme, intervalDays int, phase simclock.Duration) *Signer {
	return &Signer{
		Zone:      dnswire.CanonicalName(zone),
		Algorithm: alg,
		Scheme:    scheme,
		Interval:  simclock.Days(intervalDays),
		Overlap:   simclock.Days(14),
		Phase:     phase,
		kskTag:    keyTag(zone, 0, true),
	}
}

// State is the signing material in force at one instant.
type State struct {
	// ZSKTags lists the ZSK key tags published in the DNSKEY RRset
	// (one normally, two during a rollover).
	ZSKTags []uint16
	// KSKTag is the (static) key-signing key.
	KSKTag uint16
	// SigsPerRRset is how many RRSIGs cover each authoritative RRset:
	// 1 normally; 2 during a double-signature rollover.
	SigsPerRRset int
	// InRollover reports whether a rollover overlap is in progress.
	InRollover bool
	// Generation is the index of the current (oldest active) ZSK.
	Generation int
}

// At computes the signing state at time t. Generations advance every
// Interval; during the first Overlap of each generation the previous key
// is still present.
func (s *Signer) At(t simclock.Time) State {
	gen, rolling := s.rollover(t)
	st := State{
		KSKTag:       s.kskTag,
		SigsPerRRset: 1,
		InRollover:   rolling,
		Generation:   gen,
	}
	cur := keyTag(s.Zone, gen, false)
	if rolling {
		// Both schemes publish the new key beside the old one; only
		// double signature has both sign (two RRSIGs per set), while
		// pre-publish keeps the new key in stand-by.
		st.ZSKTags = []uint16{keyTag(s.Zone, gen-1, false), cur}
		if s.Scheme == DoubleSignature {
			st.SigsPerRRset = 2
		}
	} else {
		st.ZSKTags = []uint16{cur}
	}
	return st
}

// rollover returns the ZSK generation in force at t and whether the
// previous generation's key is still present (the overlap).
func (s *Signer) rollover(t simclock.Time) (gen int, rolling bool) {
	if s.Interval <= 0 {
		return 0, false
	}
	rel := int64(t) + int64(s.Phase)
	gen = int(rel / int64(s.Interval))
	if rel < 0 {
		gen--
	}
	into := rel - int64(gen)*int64(s.Interval)
	return gen, into < int64(s.Overlap) && gen > 0
}

// counts returns what At(t) says without deriving a key tag: the
// number of ZSKs in the DNSKEY RRset and of RRSIGs over every other
// RRset.
func (s *Signer) counts(t simclock.Time) (zsks, sigsPerRRset int) {
	if _, rolling := s.rollover(t); !rolling {
		return 1, 1
	}
	if s.Scheme == DoubleSignature {
		return 2, 2
	}
	return 2, 1
}

// DNSKEYRecords materializes the DNSKEY RRset at time t.
func (s *Signer) DNSKEYRecords(t simclock.Time, ttl uint32) []dnswire.RR {
	st := s.At(t)
	out := make([]dnswire.RR, 0, len(st.ZSKTags)+1)
	for _, tag := range st.ZSKTags {
		out = append(out, dnswire.RR{
			Name: s.Zone, Type: dnswire.TypeDNSKEY, Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.DNSKEYData{
				Flags: dnswire.DNSKEYFlagZSK, Protocol: 3, Algorithm: s.Algorithm,
				PublicKey: syntheticKeyMaterial(s.Zone, tag, KeyLen(s.Algorithm)),
			},
		})
	}
	out = append(out, dnswire.RR{
		Name: s.Zone, Type: dnswire.TypeDNSKEY, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.DNSKEYData{
			Flags: dnswire.DNSKEYFlagKSK, Protocol: 3, Algorithm: s.Algorithm,
			PublicKey: syntheticKeyMaterial(s.Zone, st.KSKTag, KeyLen(s.Algorithm)),
		},
	})
	return out
}

// Sign produces the RRSIG records covering an RRset of the given type at
// time t — one per actively signing ZSK (two during a double-signature
// rollover), except DNSKEY RRsets, which the KSK signs.
func (s *Signer) Sign(t simclock.Time, owner string, covered dnswire.Type, ttl uint32) []dnswire.RR {
	st := s.At(t)
	labels := uint8(countLabels(owner))
	mk := func(tag uint16) dnswire.RR {
		return dnswire.RR{
			Name: dnswire.CanonicalName(owner), Type: dnswire.TypeRRSIG, Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.RRSIGData{
				TypeCovered: covered,
				Algorithm:   s.Algorithm,
				Labels:      labels,
				OriginalTTL: ttl,
				Expiration:  uint32(t.Add(simclock.Days(14))),
				Inception:   uint32(t.Add(-simclock.Days(1))),
				KeyTag:      tag,
				SignerName:  s.Zone,
				Signature:   syntheticKeyMaterial(s.Zone, tag^uint16(covered), SigLen(s.Algorithm)),
			},
		}
	}
	if covered == dnswire.TypeDNSKEY {
		sigs := []dnswire.RR{mk(st.KSKTag)}
		// During double-signature rollovers some signers also emit a
		// ZSK signature over DNSKEY; we keep the conservative single
		// KSK signature.
		return sigs
	}
	var out []dnswire.RR
	if st.SigsPerRRset >= 2 && len(st.ZSKTags) >= 2 {
		out = append(out, mk(st.ZSKTags[0]), mk(st.ZSKTags[1]))
	} else {
		// The newest key signs (pre-publish: old key until swap).
		out = append(out, mk(st.ZSKTags[0]))
	}
	return out
}

// SignatureOverheadAt returns the extra bytes that DNSSEC adds to an ANY
// response containing nRRsets authoritative RRsets at time t: the DNSKEY
// RRset itself plus all RRSIGs. This is the quantity whose time series
// produces the Fig. 8b plateaus. It is the wire length of the records
// DNSKEYRecords and Sign build, computed from the key and signature
// sizes and the rollover state alone.
func (s *Signer) SignatureOverheadAt(t simclock.Time, owner string, nRRsets int, ttl uint32) int {
	zsks, _ := s.counts(t)
	dnskey := (zsks + 1) * (dnswire.EncodedNameLen(s.Zone) + 10 + 4 + KeyLen(s.Algorithm))
	return dnskey + s.RRSIGLen(t, s.Zone, dnswire.TypeDNSKEY) +
		nRRsets*s.RRSIGLen(t, owner, dnswire.TypeA) // representative covered type
}

// RRSIGLen returns the wire length of the RRSIG records Sign(t, owner,
// covered, ttl) returns, for any ttl, without building them.
func (s *Signer) RRSIGLen(t simclock.Time, owner string, covered dnswire.Type) int {
	sigs := 1 // the KSK's over DNSKEY
	if covered != dnswire.TypeDNSKEY {
		_, sigs = s.counts(t)
	}
	return sigs * (dnswire.EncodedNameLen(dnswire.CanonicalName(owner)) + 10 +
		18 + dnswire.EncodedNameLen(s.Zone) + SigLen(s.Algorithm))
}

// keyTag derives a stable synthetic key tag for (zone, generation, ksk).
func keyTag(zone string, gen int, ksk bool) uint16 {
	h := sha256.New()
	h.Write([]byte(zone))
	var b [9]byte
	binary.BigEndian.PutUint64(b[:8], uint64(int64(gen)))
	if ksk {
		b[8] = 1
	}
	h.Write(b[:])
	sum := h.Sum(nil)
	tag := binary.BigEndian.Uint16(sum[:2])
	if tag == 0 {
		tag = 1
	}
	return tag
}

// syntheticKeyMaterial produces deterministic pseudo-random bytes of the
// requested length; only the size matters for amplification analysis.
// Block ctr is the SHA-256 of "zone/tag/ctr".
func syntheticKeyMaterial(zone string, tag uint16, n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	in := append([]byte(zone), '/')
	in = strconv.AppendUint(in, uint64(tag), 10)
	in = append(in, '/')
	prefix := len(in)
	for ctr := uint64(0); len(out) < n; ctr++ {
		in = strconv.AppendUint(in[:prefix], ctr, 10)
		sum := sha256.Sum256(in)
		out = append(out, sum[:]...)
	}
	return out[:n]
}

func countLabels(name string) int {
	name = dnswire.CanonicalName(name)
	if name == "." {
		return 0
	}
	n := 0
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			n++
		}
	}
	return n
}
