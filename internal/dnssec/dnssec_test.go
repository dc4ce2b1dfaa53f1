package dnssec

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
)

func TestSteadyState(t *testing.T) {
	s := NewSigner("example.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	// Pick a time safely outside any overlap: just before a generation
	// boundary.
	tm := simclock.Time(int64(s.Interval) - 1)
	st := s.At(tm)
	if st.InRollover {
		t.Fatal("unexpected rollover")
	}
	if len(st.ZSKTags) != 1 {
		t.Fatalf("ZSKs = %d, want 1", len(st.ZSKTags))
	}
	if st.SigsPerRRset != 1 {
		t.Fatalf("sigs per rrset = %d, want 1", st.SigsPerRRset)
	}
}

func TestDoubleSignatureRollover(t *testing.T) {
	s := NewSigner("example.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	// Time just inside generation 1's overlap.
	tm := simclock.Time(int64(s.Interval) + int64(simclock.Days(1)))
	st := s.At(tm)
	if !st.InRollover {
		t.Fatal("expected rollover")
	}
	if len(st.ZSKTags) != 2 {
		t.Fatalf("ZSKs = %d, want 2", len(st.ZSKTags))
	}
	if st.SigsPerRRset != 2 {
		t.Fatalf("sigs per rrset = %d, want 2 (double-signature)", st.SigsPerRRset)
	}
}

func TestPrePublishRollover(t *testing.T) {
	s := NewSigner("example.org", dnswire.AlgRSASHA256, PrePublish, 47, 0)
	tm := simclock.Time(int64(s.Interval) + int64(simclock.Days(1)))
	st := s.At(tm)
	if !st.InRollover {
		t.Fatal("expected rollover")
	}
	if len(st.ZSKTags) != 2 {
		t.Fatalf("ZSKs = %d, want 2 (stand-by key published)", len(st.ZSKTags))
	}
	if st.SigsPerRRset != 1 {
		t.Fatalf("sigs per rrset = %d, want 1 (pre-publish does not double-sign)", st.SigsPerRRset)
	}
}

func TestOverlapDuration(t *testing.T) {
	s := NewSigner("example.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	// Count rollover days in generation 1: must equal the 14-day overlap.
	days := 0
	for d := 0; d < 47; d++ {
		tm := simclock.Time(int64(s.Interval) + int64(simclock.Days(d)))
		if s.At(tm).InRollover {
			days++
		}
	}
	if days != 14 {
		t.Errorf("rollover days = %d, want 14", days)
	}
}

func TestGenerationAdvances(t *testing.T) {
	s := NewSigner("example.gov", dnswire.AlgRSASHA256, DoubleSignature, 30, 0)
	g0 := s.At(simclock.Time(1)).Generation
	g1 := s.At(simclock.Time(int64(simclock.Days(31)))).Generation
	g2 := s.At(simclock.Time(int64(simclock.Days(61)))).Generation
	if g1 != g0+1 || g2 != g0+2 {
		t.Errorf("generations: %d %d %d", g0, g1, g2)
	}
}

func TestKeyTagsStableAndDistinct(t *testing.T) {
	s := NewSigner("example.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	tm := simclock.Time(int64(s.Interval) + 1)
	a := s.At(tm)
	b := s.At(tm)
	if a.ZSKTags[0] != b.ZSKTags[0] || a.ZSKTags[1] != b.ZSKTags[1] {
		t.Error("key tags not stable")
	}
	if a.ZSKTags[0] == a.ZSKTags[1] {
		t.Error("old and new ZSK share a tag")
	}
	if a.KSKTag == a.ZSKTags[0] {
		t.Error("KSK and ZSK share a tag")
	}
}

func TestDNSKEYRecords(t *testing.T) {
	s := NewSigner("doj.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	steady := simclock.Time(int64(s.Interval) - 1)
	recs := s.DNSKEYRecords(steady, 3600)
	if len(recs) != 2 { // 1 ZSK + 1 KSK
		t.Fatalf("steady DNSKEYs = %d, want 2", len(recs))
	}
	roll := simclock.Time(int64(s.Interval) + 1)
	recs = s.DNSKEYRecords(roll, 3600)
	if len(recs) != 3 { // 2 ZSKs + 1 KSK
		t.Fatalf("rollover DNSKEYs = %d, want 3", len(recs))
	}
	zsk := 0
	for _, r := range recs {
		if r.Type != dnswire.TypeDNSKEY {
			t.Fatalf("wrong type %v", r.Type)
		}
		d := r.Data.(dnswire.DNSKEYData)
		if len(d.PublicKey) != RSA2048KeyLen {
			t.Errorf("key len = %d, want %d", len(d.PublicKey), RSA2048KeyLen)
		}
		if d.Flags == dnswire.DNSKEYFlagZSK {
			zsk++
		}
	}
	if zsk != 2 {
		t.Errorf("ZSK records = %d, want 2", zsk)
	}
}

func TestSignCounts(t *testing.T) {
	s := NewSigner("doj.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	steady := simclock.Time(int64(s.Interval) - 1)
	roll := simclock.Time(int64(s.Interval) + 1)
	if got := len(s.Sign(steady, "doj.gov", dnswire.TypeA, 300)); got != 1 {
		t.Errorf("steady sigs = %d, want 1", got)
	}
	if got := len(s.Sign(roll, "doj.gov", dnswire.TypeA, 300)); got != 2 {
		t.Errorf("rollover sigs = %d, want 2", got)
	}
	// DNSKEY RRset is KSK-signed once, regardless of rollover.
	if got := len(s.Sign(roll, "doj.gov", dnswire.TypeDNSKEY, 3600)); got != 1 {
		t.Errorf("DNSKEY sigs = %d, want 1", got)
	}
	sig := s.Sign(steady, "doj.gov", dnswire.TypeA, 300)[0].Data.(dnswire.RRSIGData)
	if len(sig.Signature) != RSA2048SigLen {
		t.Errorf("sig len = %d, want %d", len(sig.Signature), RSA2048SigLen)
	}
	if sig.SignerName != "doj.gov." {
		t.Errorf("signer = %q", sig.SignerName)
	}
	if sig.TypeCovered != dnswire.TypeA {
		t.Errorf("covered = %v", sig.TypeCovered)
	}
}

func TestSignatureOverheadPlateaus(t *testing.T) {
	s := NewSigner("nsf.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	steady := simclock.Time(int64(s.Interval) - 1)
	roll := simclock.Time(int64(s.Interval) + 1)
	base := s.SignatureOverheadAt(steady, "nsf.gov", 7, 3600)
	peak := s.SignatureOverheadAt(roll, "nsf.gov", 7, 3600)
	if peak <= base {
		t.Fatalf("rollover overhead %d not above steady %d", peak, base)
	}
	// Extra = 1 DNSKEY (~270 B) + 7 extra RRSIGs (~280 B each): ≥ 2 kB.
	if peak-base < 2000 {
		t.Errorf("rollover delta = %d B, want >= 2000", peak-base)
	}
}

func TestECDSASizes(t *testing.T) {
	if KeyLen(dnswire.AlgECDSAP256SHA256) != 64 || SigLen(dnswire.AlgECDSAP256SHA256) != 64 {
		t.Error("ECDSA sizes wrong")
	}
	if KeyLen(dnswire.AlgRSASHA256) != 260 || SigLen(dnswire.AlgRSASHA256) != 256 {
		t.Error("RSA sizes wrong")
	}
	s := NewSigner("small.example", dnswire.AlgECDSAP256SHA256, PrePublish, 47, 0)
	sig := s.Sign(1, "small.example", dnswire.TypeA, 300)[0].Data.(dnswire.RRSIGData)
	if len(sig.Signature) != 64 {
		t.Errorf("ECDSA sig len = %d", len(sig.Signature))
	}
}

func TestPhaseShiftsSchedule(t *testing.T) {
	a := NewSigner("x.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	b := NewSigner("x.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, simclock.Days(20))
	tm := simclock.Time(int64(simclock.Days(47)) + 1)
	if a.At(tm).InRollover == b.At(tm).InRollover {
		// With a 20-day phase shift and 14-day overlap they cannot both
		// be rolling at the generation boundary of a.
		t.Error("phase shift had no effect")
	}
}

func TestSchemeString(t *testing.T) {
	if PrePublish.String() != "pre-publish" || DoubleSignature.String() != "double-signature" {
		t.Error("scheme names wrong")
	}
}

func TestZeroIntervalSafe(t *testing.T) {
	s := &Signer{Zone: "static.example.", Algorithm: dnswire.AlgRSASHA256}
	st := s.At(simclock.MeasurementStart)
	if len(st.ZSKTags) != 1 || st.InRollover {
		t.Errorf("zero-interval state = %+v", st)
	}
}

func TestRecordsParseable(t *testing.T) {
	// DNSKEY/RRSIG records produced by the signer must survive a wire
	// round trip through the dnswire codec.
	s := NewSigner("doj.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	roll := simclock.Time(int64(s.Interval) + 1)
	m := &dnswire.Message{
		Header:    dnswire.Header{QR: true},
		Questions: []dnswire.Question{{Name: "doj.gov.", Type: dnswire.TypeANY, Class: dnswire.ClassIN}},
	}
	m.Answers = append(m.Answers, s.DNSKEYRecords(roll, 3600)...)
	m.Answers = append(m.Answers, s.Sign(roll, "doj.gov", dnswire.TypeA, 300)...)
	res, err := dnswire.Parse(dnswire.Encode(m))
	if err != nil || !res.Complete {
		t.Fatalf("parse: %v complete=%v", err, res != nil && res.Complete)
	}
	if len(res.Msg.Answers) != len(m.Answers) {
		t.Fatalf("answers = %d, want %d", len(res.Msg.Answers), len(m.Answers))
	}
}

// wireLen sums the wire lengths of records.
func wireLen(rrs []dnswire.RR) int {
	n := 0
	for _, rr := range rrs {
		n += rr.WireLen()
	}
	return n
}

// TestSizesMatchRecords holds the size arithmetic to the records it
// stands for: SignatureOverheadAt equals the summed wire lengths of
// DNSKEYRecords, the KSK's RRSIG over them and nRRsets RRSIG sets, and
// RRSIGLen equals Sign's, across algorithms, schemes, steady and
// rollover instants (a zero interval, a phase shift and a negative
// time too), owners in and out of canonical form, and TTLs.
func TestSizesMatchRecords(t *testing.T) {
	day := int64(simclock.Days(1))
	for _, alg := range []uint8{dnswire.AlgRSASHA256, dnswire.AlgECDSAP256SHA256} {
		for _, scheme := range []Scheme{PrePublish, DoubleSignature} {
			for _, s := range []*Signer{
				NewSigner("nsf.gov", alg, scheme, 47, 0),
				NewSigner("Deep.Sub.Example.ORG.", alg, scheme, 30, simclock.Days(20)),
				{Zone: "static.example.", Algorithm: alg, Scheme: scheme}, // no rollovers
			} {
				var times []simclock.Time
				for _, at := range []int64{-1, 0, 1, 13 * day, 14 * day, 15 * day} {
					times = append(times, simclock.Time(at), simclock.Time(int64(s.Interval)+at), simclock.Time(-int64(s.Interval)+at))
				}
				for _, tm := range times {
					for _, owner := range []string{s.Zone, "www.NSF.gov", ".", "a.b.c.d.example."} {
						for _, ttl := range []uint32{0, 300, 86400} {
							want := wireLen(s.DNSKEYRecords(tm, ttl)) + wireLen(s.Sign(tm, s.Zone, dnswire.TypeDNSKEY, ttl)) +
								5*wireLen(s.Sign(tm, owner, dnswire.TypeA, ttl))
							if got := s.SignatureOverheadAt(tm, owner, 5, ttl); got != want {
								t.Fatalf("%s alg %d %s at %d, owner %q: overhead %d, records %d", s.Zone, alg, scheme, tm, owner, got, want)
							}
							for _, covered := range []dnswire.Type{dnswire.TypeA, dnswire.TypeDNSKEY, dnswire.TypeTXT} {
								if got, want := s.RRSIGLen(tm, owner, covered), wireLen(s.Sign(tm, owner, covered, ttl)); got != want {
									t.Fatalf("%s alg %d %s at %d, owner %q, %v: RRSIGLen %d, records %d", s.Zone, alg, scheme, tm, owner, covered, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSyntheticKeyMaterialBytes holds the key material to its formatted
// definition: block ctr is the SHA-256 of fmt's "zone/tag/ctr".
func TestSyntheticKeyMaterialBytes(t *testing.T) {
	ref := func(zone string, tag uint16, n int) []byte {
		var out []byte
		for ctr := 0; len(out) < n; ctr++ {
			sum := sha256.Sum256(fmt.Appendf(nil, "%s/%d/%d", zone, tag, ctr))
			out = append(out, sum[:]...)
		}
		return out[:n]
	}
	for _, zone := range []string{"doj.gov.", ".", ""} {
		for _, tag := range []uint16{0, 7, 65535} {
			for _, n := range []int{0, 1, 32, 64, 260, 320, 33 * 32} {
				if got, want := syntheticKeyMaterial(zone, tag, n), ref(zone, tag, n); !bytes.Equal(got, want) {
					t.Fatalf("zone %q tag %d n %d: bytes differ", zone, tag, n)
				}
			}
		}
	}
}

// BenchmarkSignatureOverhead is the DNSSEC share of a signed zone's ANY
// size, as zonedb.Zone.ANYSize asks for it: one steady and one rollover
// instant per op, for a 7-RRset .gov zone.
func BenchmarkSignatureOverhead(b *testing.B) {
	s := NewSigner("nsf.gov", dnswire.AlgRSASHA256, DoubleSignature, 47, 0)
	steady := simclock.Time(int64(s.Interval) - 1)
	roll := simclock.Time(int64(s.Interval) + 1)
	b.ReportAllocs()
	for b.Loop() {
		s.SignatureOverheadAt(steady, s.Zone, 7, 3600)
		s.SignatureOverheadAt(roll, s.Zone, 7, 3600)
	}
}
