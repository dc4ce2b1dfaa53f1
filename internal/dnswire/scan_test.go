package dnswire

import (
	"bytes"
	"math/rand"
	"testing"
)

// sampleDNSBytes is what a 128-byte snaplen leaves of the DNS message
// after the Ethernet, IPv4 and UDP headers.
const sampleDNSBytes = 128 - 14 - 20 - 8

// parseOracle reads b through Parse the way the capture point did
// before Scan existed.
func parseOracle(b []byte) (Scanned, error) {
	res, err := Parse(b)
	if err != nil {
		return Scanned{}, err
	}
	m := res.Msg
	s := Scanned{Header: m.Header, QName: []byte(m.QName()), QType: m.QType()}
	for _, sec := range [][]RR{m.Answers, m.Authority} {
		for _, rr := range sec {
			if rr.Type == TypeNS {
				s.NS++
			}
		}
	}
	return s, nil
}

// checkScanMatchesParse holds Scan to the oracle on one input: same
// error, header, name bytes, question type and NS count.
func checkScanMatchesParse(t *testing.T, data []byte) {
	t.Helper()
	want, werr := parseOracle(data)
	got, gerr := Scan(data, make([]byte, 0, 8))
	if gerr != werr {
		t.Fatalf("%x: Scan error %v, Parse error %v", data, gerr, werr)
	}
	if got.Header != want.Header || !bytes.Equal(got.QName, want.QName) ||
		got.QType != want.QType || got.NS != want.NS {
		t.Fatalf("%x:\n Scan  %+v\n Parse %+v", data, got, want)
	}
}

// scanSeeds is the FuzzParse corpus plus, for every rdata type, a
// response carrying that type in the answer and authority sections,
// whole and cut at the sample length.
func scanSeeds() [][]byte {
	seeds := [][]byte{
		{},
		{0, 1, 2},
		Encode(NewQuery(0x1234, "doj.gov.", TypeANY, 4096)),
		Encode(bigResponse()),
	}
	rrs := append(bigResponse().Answers,
		RR{Name: "nsf.gov.", Type: TypeSPF, Class: ClassIN, TTL: 300, Data: TXTData{[]string{"v=spf1 -all", ""}}},
		RR{Name: "nsf.gov.", Type: TypeCNAME, Class: ClassIN, TTL: 300, Data: NameData{"www.nsf.gov."}},
		RR{Name: ".", Type: TypeOPT, Class: 4096, Data: OPTData{[]EDNSOption{{Code: 10, Data: make([]byte, 8)}, {Code: 12}}}},
		RR{Name: "nsf.gov.", Type: Type(65280), Class: ClassIN, TTL: 1, Data: RawData{[]byte{1, 2, 3}}},
	)
	for _, rr := range rrs {
		r := NewResponse(NewQuery(9, "NSF.gov", rr.Type, 0))
		ns := RR{Name: "nsf.gov.", Type: TypeNS, Class: ClassIN, TTL: 60, Data: NameData{"ns1.nsf.gov."}}
		r.Answers = []RR{rr, ns}
		r.Authority = []RR{ns, rr}
		r.Additional = []RR{ns}
		wire := Encode(r)
		seeds = append(seeds, wire)
		if len(wire) > sampleDNSBytes {
			seeds = append(seeds, wire[:sampleDNSBytes])
		}
	}
	return seeds
}

// FuzzScanMatchesParse is the differential target: for any input Scan
// and the Parse-based oracle agree, with no exception list.
func FuzzScanMatchesParse(f *testing.F) {
	for _, s := range scanSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkScanMatchesParse)
}

// TestScanMatchesParseMutations runs the differential over mutated
// seeds on every `go test`: bit flips, byte stores, compression
// pointers spliced in, count fields rewritten, random cuts.
func TestScanMatchesParseMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, seed := range scanSeeds() {
		if len(seed) < HeaderLen {
			continue
		}
		for i := 0; i < 1500; i++ {
			mut := bytes.Clone(seed)
			for k := 1 + rng.Intn(4); k > 0; k-- {
				at := rng.Intn(len(mut))
				switch rng.Intn(5) {
				case 0:
					mut[at] ^= 1 << rng.Intn(8)
				case 1:
					mut[at] = byte(rng.Intn(256))
				case 2:
					mut[at] = 0xc0
					if at+1 < len(mut) {
						mut[at+1] = byte(rng.Intn(len(mut)))
					}
				case 3:
					mut[4+rng.Intn(8)] = byte(rng.Intn(4))
				case 4:
					mut = mut[:HeaderLen+rng.Intn(len(mut)-HeaderLen+1)]
				}
			}
			checkScanMatchesParse(t, mut)
		}
	}
}

// TestNameFoldingIsASCIIOnly pins RFC 4343: a label of the bytes
// E2 84 AA (KELVIN SIGN) or C4 B0 (U+0130) is not the letter k or i.
// Unicode-aware lowering decoded them onto the legitimate names "k."
// and "i.", which ValidName accepted.
func TestNameFoldingIsASCIIOnly(t *testing.T) {
	for _, label := range []string{"\xe2\x84\xaa", "\xc4\xb0"} {
		wire := Encode(NewQuery(1, "x", TypeA, 0))
		wire = append(wire[:HeaderLen], byte(len(label)))
		wire = append(wire, label...)
		wire = append(wire, 0, 0, byte(TypeA), 0, byte(ClassIN))

		res, err := Parse(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Msg.QName(), label+"."; got != want {
			t.Errorf("Parse: qname %q, want the bytes unchanged (%q)", got, want)
		}
		if ValidName(res.Msg.QName()) {
			t.Errorf("ValidName(%q) = true: a non-ASCII label passed sanitisation", res.Msg.QName())
		}
		checkScanMatchesParse(t, wire)
	}
	// ASCII letters still fold.
	res, err := Parse(Encode(NewQuery(1, "x", TypeA, 0)))
	if err != nil || res.Msg.QName() != "x." {
		t.Fatalf("qname %v, %v", res, err)
	}
	wire := Encode(NewQuery(1, "x", TypeA, 0))
	wire[HeaderLen+1] = 'X'
	if res, _ := Parse(wire); res.Msg.QName() != "x." {
		t.Errorf("qname %q, want ASCII upper case folded", res.Msg.QName())
	}
}

// TestScanReusesNameBuffer: the name lands in the caller's buffer and
// a later Scan into the same buffer does not disturb a copied result.
func TestScanReusesNameBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	a, err := Scan(Encode(NewQuery(1, "doj.gov", TypeANY, 0)), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &a.QName[0] != &buf[:1][0] {
		t.Error("QName does not alias the caller's buffer")
	}
	if string(a.QName) != "doj.gov." {
		t.Errorf("qname %q", a.QName)
	}
	b, err := Scan(Encode(NewQuery(1, "nsf.gov", TypeANY, 0)), a.QName)
	if err != nil || string(b.QName) != "nsf.gov." {
		t.Errorf("second scan: %q, %v", b.QName, err)
	}
}
