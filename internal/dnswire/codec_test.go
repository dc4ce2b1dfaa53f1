package dnswire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0xBEEF, "doj.gov", TypeANY, 4096)
	wire := new(Encoder).Encode(q)
	res, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Error("complete message reported incomplete")
	}
	m := res.Msg
	if m.Header.ID != 0xBEEF {
		t.Errorf("id = %#x", m.Header.ID)
	}
	if m.Header.QR {
		t.Error("query flagged as response")
	}
	if m.QName() != "doj.gov." {
		t.Errorf("qname = %q", m.QName())
	}
	if m.QType() != TypeANY {
		t.Errorf("qtype = %v", m.QType())
	}
	if len(m.Additional) != 1 || m.Additional[0].Type != TypeOPT || m.Additional[0].Class != 4096 {
		t.Errorf("additional = %+v, want one OPT record advertising 4096", m.Additional)
	}
	if !m.Header.RD {
		t.Error("RD not set")
	}
}

// TestEDNSDefault: a query built without an EDNS size is classic DNS,
// with no OPT record.
func TestEDNSDefault(t *testing.T) {
	q := NewQuery(1, "example.com", TypeA, 0)
	if len(q.Additional) != 0 {
		t.Errorf("no-EDNS query carries %+v", q.Additional)
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func bigResponse() *Message {
	q := NewQuery(7, "nsf.gov", TypeANY, 4096)
	r := NewResponse(q)
	r.Header.AA = true
	key := make([]byte, 260)
	sig := make([]byte, 256)
	r.Answers = []RR{
		{Name: "nsf.gov.", Type: TypeA, Class: ClassIN, TTL: 300, Data: AData{mustAddr("192.0.2.10")}},
		{Name: "nsf.gov.", Type: TypeAAAA, Class: ClassIN, TTL: 300, Data: AAAAData{mustAddr("2001:db8::10")}},
		{Name: "nsf.gov.", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: NameData{"ns1.nsf.gov."}},
		{Name: "nsf.gov.", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: NameData{"ns2.nsf.gov."}},
		{Name: "nsf.gov.", Type: TypeSOA, Class: ClassIN, TTL: 3600, Data: SOAData{MName: "ns1.nsf.gov.", RName: "hostmaster.nsf.gov.", Serial: 2019060100, Refresh: 7200, Retry: 3600, Expire: 1209600, Min: 300}},
		{Name: "nsf.gov.", Type: TypeMX, Class: ClassIN, TTL: 3600, Data: MXData{Pref: 10, Host: "mail.nsf.gov."}},
		{Name: "nsf.gov.", Type: TypeTXT, Class: ClassIN, TTL: 300, Data: TXTData{[]string{"v=spf1 include:_spf.nsf.gov ~all"}}},
		{Name: "nsf.gov.", Type: TypeDNSKEY, Class: ClassIN, TTL: 3600, Data: DNSKEYData{Flags: DNSKEYFlagZSK, Protocol: 3, Algorithm: AlgRSASHA256, PublicKey: key}},
		{Name: "nsf.gov.", Type: TypeDNSKEY, Class: ClassIN, TTL: 3600, Data: DNSKEYData{Flags: DNSKEYFlagKSK, Protocol: 3, Algorithm: AlgRSASHA256, PublicKey: key}},
		{Name: "nsf.gov.", Type: TypeRRSIG, Class: ClassIN, TTL: 3600, Data: RRSIGData{TypeCovered: TypeDNSKEY, Algorithm: AlgRSASHA256, Labels: 2, OriginalTTL: 3600, Expiration: 1567296000, Inception: 1559347200, KeyTag: 12345, SignerName: "nsf.gov.", Signature: sig}},
		// Next name a.nsf.gov., one window 0 bitmap of A NS SOA RRSIG NSEC DNSKEY.
		{Name: "nsf.gov.", Type: TypeNSEC, Class: ClassIN, TTL: 300, Data: RawData{append(appendName(nil, "a.nsf.gov."), 0, 7, 0x62, 0, 0, 0, 0, 0x03, 0x80)}},
		// Priority 1, weight 5, port 443, target www.nsf.gov.
		{Name: "nsf.gov.", Type: TypeSRV, Class: ClassIN, TTL: 300, Data: RawData{appendName([]byte{0, 1, 0, 5, 0x01, 0xbb}, "www.nsf.gov.")}},
		// Priority 1, weight 1, then the URI.
		{Name: "nsf.gov.", Type: TypeURI, Class: ClassIN, TTL: 300, Data: RawData{[]byte("\x00\x01\x00\x01https://www.nsf.gov/")}},
		{Name: "nsf.gov.", Type: TypeCAA, Class: ClassIN, TTL: 300, Data: CAAData{Flags: 0, Tag: "issue", Value: "letsencrypt.org"}},
		// Key tag 99, RSA/SHA-256, digest type 2, a zero SHA-256 digest.
		{Name: "nsf.gov.", Type: TypeDS, Class: ClassIN, TTL: 3600, Data: RawData{append([]byte{0, 99, AlgRSASHA256, 2}, make([]byte, 32)...)}},
		{Name: "nsf.gov.", Type: TypePTR, Class: ClassIN, TTL: 300, Data: NameData{"host.nsf.gov."}},
	}
	return r
}

func TestFullResponseRoundTrip(t *testing.T) {
	r := bigResponse()
	wire := new(Encoder).Encode(r)
	res, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("expected complete parse")
	}
	m := res.Msg
	if len(m.Answers) != len(r.Answers) {
		t.Fatalf("answers = %d, want %d", len(m.Answers), len(r.Answers))
	}
	for i, rr := range m.Answers {
		if rr.Type != r.Answers[i].Type {
			t.Errorf("answer %d type = %v, want %v", i, rr.Type, r.Answers[i].Type)
		}
		if rr.Name != "nsf.gov." {
			t.Errorf("answer %d name = %q", i, rr.Name)
		}
	}
	// Spot-check a few decoded rdata values.
	if a := m.Answers[0].Data.(AData); a.Addr.String() != "192.0.2.10" {
		t.Errorf("A = %v", a.Addr)
	}
	if ns := m.Answers[2].Data.(NameData); ns.Target != "ns1.nsf.gov." {
		t.Errorf("NS = %q", ns.Target)
	}
	soa := m.Answers[4].Data.(SOAData)
	if soa.Serial != 2019060100 || soa.MName != "ns1.nsf.gov." {
		t.Errorf("SOA = %+v", soa)
	}
	dk := m.Answers[7].Data.(DNSKEYData)
	if len(dk.PublicKey) != 260 || dk.Flags != DNSKEYFlagZSK {
		t.Errorf("DNSKEY = flags %d, keylen %d", dk.Flags, len(dk.PublicKey))
	}
	if ksk := m.Answers[8].Data.(DNSKEYData); ksk.Flags != DNSKEYFlagKSK {
		t.Errorf("KSK flags = %d", ksk.Flags)
	}
	sig := m.Answers[9].Data.(RRSIGData)
	if sig.TypeCovered != TypeDNSKEY || len(sig.Signature) != 256 || sig.SignerName != "nsf.gov." {
		t.Errorf("RRSIG = %+v", sig)
	}
	// NSEC, SRV, URI and DS come back as the rdata they were sent as.
	for _, i := range []int{10, 11, 12, 14} {
		if got, want := m.Answers[i].Data.(RawData), r.Answers[i].Data.(RawData); !bytes.Equal(got.Bytes, want.Bytes) {
			t.Errorf("%v rdata = %x, want %x", m.Answers[i].Type, got.Bytes, want.Bytes)
		}
	}
	caa := m.Answers[13].Data.(CAAData)
	if caa.Tag != "issue" || caa.Value != "letsencrypt.org" {
		t.Errorf("CAA = %+v", caa)
	}
}

func TestTruncatedParsePartial(t *testing.T) {
	r := bigResponse()
	wire := new(Encoder).Encode(r)
	if len(wire) < 200 {
		t.Fatalf("test response too small: %d bytes", len(wire))
	}
	// Cut at the 128-byte IXP snaplen (minus the 42 bytes of L2-L4
	// headers the IXP frame would carry, DNS sees ~86 bytes; use 86).
	res, err := Parse(wire[:86])
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("truncated message reported complete")
	}
	if res.Msg.QName() != "nsf.gov." {
		t.Errorf("truncated qname = %q", res.Msg.QName())
	}
	if res.Msg.Header.ANCount != uint16(len(r.Answers)) {
		t.Errorf("header ANCount lost: %d", res.Msg.Header.ANCount)
	}
	// The paper observes ~2 RRs visible per truncated response.
	if res.DecodedAnswers == 0 {
		t.Error("expected at least one decodable answer in first 86 bytes")
	}
}

func TestParseHeaderOnlyFails(t *testing.T) {
	if _, err := Parse([]byte{0, 1, 2}); err == nil {
		t.Error("short message should fail")
	}
	// Header claims a question but there is none.
	q := NewQuery(1, "example.com", TypeA, 0)
	wire := new(Encoder).Encode(q)
	if _, err := Parse(wire[:HeaderLen+1]); err == nil {
		t.Error("unreadable first question should fail")
	}
}

func TestNameCompression(t *testing.T) {
	// Multiple records sharing a suffix must compress.
	m := &Message{
		Header:    Header{ID: 1, QR: true},
		Questions: []Question{{Name: "a.example.com.", Type: TypeA, Class: ClassIN}},
	}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers, RR{
			Name: "a.example.com.", Type: TypeA, Class: ClassIN, TTL: 60,
			Data: AData{mustAddr("192.0.2.1")},
		})
	}
	wire := new(Encoder).Encode(m)
	// Uncompressed: each answer name costs 15 bytes; compressed: 2.
	uncompressed := HeaderLen + (15 + 4) + 10*(15+10+4)
	if len(wire) >= uncompressed {
		t.Errorf("no compression: %d bytes >= %d", len(wire), uncompressed)
	}
	res, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Msg.Answers) != 10 {
		t.Fatalf("compressed parse incomplete: %+v", res)
	}
	for _, rr := range res.Msg.Answers {
		if rr.Name != "a.example.com." {
			t.Errorf("decompressed name = %q", rr.Name)
		}
	}
}

func TestPointerLoopRejected(t *testing.T) {
	// Craft a message whose name is a self-pointer.
	b := make([]byte, HeaderLen+4)
	b[5] = 1 // QDCount = 1
	b[HeaderLen] = 0xc0
	b[HeaderLen+1] = byte(HeaderLen) // points at itself
	if _, err := Parse(b); err == nil {
		t.Error("self-pointing name should fail")
	}
}

func TestEncodedNameLen(t *testing.T) {
	cases := []struct {
		name string
		want int
	}{
		{".", 1},
		{"", 1},
		{"gov", 5},
		{"gov.", 5},
		{"doj.gov.", 9},
		{"a.b.c.", 7},
	}
	for _, c := range cases {
		if got := EncodedNameLen(c.name); got != c.want {
			t.Errorf("EncodedNameLen(%q) = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestMessageSizes pins the size helpers to the encoder: QuestionSize to
// an EDNS-less query, QuerySize to NewQuery(…, 4096), and MinimalANYSize
// to that query plus one uncompressed HINFO record of 9 rdata bytes.
func TestMessageSizes(t *testing.T) {
	long := strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + ".example.org."
	for _, name := range []string{".", "gov.", "doj.gov.", "_sip._tcp.example.com.", "r00042.bulk-zone.net.", long} {
		if got, want := QuestionSize(name), len(new(Encoder).Encode(NewQuery(1, name, TypeA, 0))); got != want {
			t.Errorf("QuestionSize(%q) = %d, encoded %d", name, got, want)
		}
		for _, qt := range []Type{TypeA, TypeANY, TypeDNSKEY} {
			if got, want := QuerySize(name), len(new(Encoder).Encode(NewQuery(0xBEEF, name, qt, 4096))); got != want {
				t.Errorf("QuerySize(%q) = %d, encoded %v query %d", name, got, qt, want)
			}
		}
		hinfo := RR{Name: name, Type: Type(13), Class: ClassIN, Data: RawData{Bytes: make([]byte, 9)}}
		if got, want := MinimalANYSize(name), QuerySize(name)+hinfo.WireLen(); got != want {
			t.Errorf("MinimalANYSize(%q) = %d, want %d", name, got, want)
		}
	}
}

// TestAppendMatchesEncoder holds the direct appends to the Encoder:
// AppendQuery to NewQuery(…, 4096), AppendResponse to NewResponse of it
// with an rcode, and AppendAnswerA to that response with one A record
// owned by the question name, byte for byte, for canonical names and
// for the presentation forms (upper case, no trailing dot, empty and
// over-long labels) NewQuery canonicalizes; AnswerASize to the length
// for a canonical name.
func TestAppendMatchesEncoder(t *testing.T) {
	long := strings.Repeat("a", 70) + ".example.org."
	names := []string{".", "", "gov.", "Doj.GOV", "_sip._tcp.example.com.", "r00042.bulk-zone.net.", long, "a..b.", ".."}
	var enc Encoder
	scratch := make([]byte, 0, 8) // reused, grown by the appends
	for _, name := range names {
		for _, qt := range []Type{TypeA, TypeANY, TypeDNSKEY} {
			const id = 0xBEEF
			q := NewQuery(id, name, qt, 4096)
			scratch = AppendQuery(scratch[:0], id, name, qt)
			if want := enc.Encode(q); !bytes.Equal(scratch, want) {
				t.Errorf("AppendQuery(%q, %v) = %x, encoded %x", name, qt, scratch, want)
			}
			resp := NewResponse(q)
			resp.Header.RCode = RCodeRefused
			scratch = AppendResponse(scratch[:0], id, name, qt, RCodeRefused)
			if want := enc.Encode(resp); !bytes.Equal(scratch, want) {
				t.Errorf("AppendResponse(%q, %v) = %x, encoded %x", name, qt, scratch, want)
			}
			resp.Header.RCode = RCodeNoError
			addr := [4]byte{192, 0, 2, 7}
			resp.Answers = []RR{{Name: CanonicalName(name), Type: TypeA, Class: ClassIN, TTL: 300, Data: AData{Addr: netip.AddrFrom4(addr)}}}
			scratch = AppendAnswerA(AppendResponse(scratch[:0], id, name, qt, RCodeNoError), name, 300, addr)
			if want := enc.Encode(resp); !bytes.Equal(scratch, want) {
				t.Errorf("AppendAnswerA(%q, %v) = %x, encoded %x", name, qt, scratch, want)
			}
			if cn := CanonicalName(name); ValidName(cn) && AnswerASize(cn) != len(scratch) {
				t.Errorf("AnswerASize(%q) = %d, encoded %d", cn, AnswerASize(cn), len(scratch))
			}
		}
	}
}

func TestValidName(t *testing.T) {
	valid := []string{".", "gov.", "doj.gov.", "a-b.example.com.", "_sip._tcp.example.com.", "x123.io"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{"", "..", "a..b.", "exa mple.com.", "bad\x00name.", strings.Repeat("a", 64) + ".com.", strings.Repeat("abcdefgh.", 32)}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

// validNameSplit is the strings.Split form ValidName had before it
// became one pass, kept as the reference.
func validNameSplit(name string) bool {
	if name == "." || name == "" {
		return name == "."
	}
	trimmed := strings.TrimSuffix(name, ".")
	encoded := 1
	if inner := strings.TrimSuffix(trimmed, "."); inner != "" {
		for _, label := range strings.Split(inner, ".") {
			encoded += 1 + len(label)
		}
	}
	if encoded > 255 {
		return false
	}
	for _, label := range strings.Split(trimmed, ".") {
		if len(label) == 0 || len(label) > 63 {
			return false
		}
		for i := 0; i < len(label); i++ {
			c := label[i]
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
				c >= '0' && c <= '9', c == '-', c == '_':
			default:
				return false
			}
		}
	}
	return true
}

// TestValidNameMatchesSplitForm: the single pass, in its string and
// byte forms, decides every name the way the split form did — dots in
// odd places, labels around 63 bytes, names around 255.
func TestValidNameMatchesSplitForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := "ab-_Z9...\x00 \xe2"
	check := func(name string) {
		t.Helper()
		want := validNameSplit(name)
		if got := ValidName(name); got != want {
			t.Fatalf("ValidName(%q) = %v, split form %v", name, got, want)
		}
		if got := ValidNameBytes([]byte(name)); got != want {
			t.Fatalf("ValidNameBytes(%q) = %v, split form %v", name, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(b))
	}
	for labelLen := 61; labelLen <= 65; labelLen++ {
		for total := 250; total <= 258; total++ {
			var sb strings.Builder
			for sb.Len() < total {
				sb.WriteString(strings.Repeat("a", min(labelLen, total-sb.Len())))
				sb.WriteByte('.')
			}
			check(sb.String())
			check(strings.TrimSuffix(sb.String(), "."))
		}
	}
}

func TestCanonicalName(t *testing.T) {
	cases := [][2]string{
		{"DOJ.GOV", "doj.gov."},
		{"doj.gov.", "doj.gov."},
		{"", "."},
		{".", "."},
	}
	for _, c := range cases {
		if got := CanonicalName(c[0]); got != c[1] {
			t.Errorf("CanonicalName(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestTLD(t *testing.T) {
	cases := [][2]string{
		{"doj.gov.", "gov"},
		{"example.co.za.", "za"},
		{".", "."},
		{"com.", "com"},
	}
	for _, c := range cases {
		if got := TLD(c[0]); got != c[1] {
			t.Errorf("TLD(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeANY.String() != "ANY" || TypeRRSIG.String() != "RRSIG" {
		t.Error("type names wrong")
	}
	if Type(9999).String() != "TYPE9999" {
		t.Error("unknown type string wrong")
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	f := func(id uint16, qr, aa, tc, rd, ra, ad, cd bool, op, rc uint8) bool {
		h := Header{
			ID: id, QR: qr, AA: aa, TC: tc, RD: rd, RA: ra, AD: ad, CD: cd,
			OpCode: OpCode(op & 0xf), RCode: RCode(rc & 0xf),
		}
		m := &Message{Header: h, Questions: []Question{{Name: "x.test.", Type: TypeA, Class: ClassIN}}}
		res, err := Parse(new(Encoder).Encode(m))
		if err != nil {
			return false
		}
		g := res.Msg.Header
		return g.ID == h.ID && g.QR == h.QR && g.AA == h.AA && g.TC == h.TC &&
			g.RD == h.RD && g.RA == h.RA && g.AD == h.AD && g.CD == h.CD &&
			g.OpCode == h.OpCode && g.RCode == h.RCode
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomNameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	letters := "abcdefghijklmnopqrstuvwxyz0123456789-"
	randName := func() string {
		labels := 1 + rng.Intn(4)
		parts := make([]string, labels)
		for i := range parts {
			n := 1 + rng.Intn(12)
			b := make([]byte, n)
			for j := range b {
				b[j] = letters[rng.Intn(len(letters)-1)] // avoid leading '-' mostly irrelevant
			}
			parts[i] = string(b)
		}
		return strings.Join(parts, ".") + "."
	}
	for i := 0; i < 300; i++ {
		name := randName()
		q := NewQuery(uint16(i), name, TypeTXT, 0)
		res, err := Parse(new(Encoder).Encode(q))
		if err != nil {
			t.Fatalf("name %q: %v", name, err)
		}
		if res.Msg.QName() != name {
			t.Fatalf("round trip %q -> %q", name, res.Msg.QName())
		}
	}
}

func TestTXTDataWireLen(t *testing.T) {
	long := strings.Repeat("x", 600)
	d := TXTData{[]string{long}}
	enc := d.appendTo(nil)
	if len(enc) != d.WireLen() {
		t.Errorf("TXT WireLen %d != encoded %d", d.WireLen(), len(enc))
	}
	empty := TXTData{}
	if empty.WireLen() != 1 {
		t.Errorf("empty TXT WireLen = %d, want 1", empty.WireLen())
	}
}

func TestAllRDataWireLenMatchesEncoding(t *testing.T) {
	r := bigResponse()
	for i, rr := range r.Answers {
		enc := rr.Data.appendTo(nil)
		if len(enc) != rr.Data.WireLen() {
			t.Errorf("answer %d (%v): WireLen %d != encoded %d", i, rr.Type, rr.Data.WireLen(), len(enc))
		}
	}
}

// TestNSECBitmap: Parse accepts an NSEC type bitmap of well-formed
// window blocks (here windows 0 and 1: A and CAA) and stops at a
// record whose bitmap is not.
func TestNSECBitmap(t *testing.T) {
	nsec := func(bitmap ...byte) *ParseResult {
		t.Helper()
		m := &Message{
			Header:    Header{QR: true},
			Questions: []Question{{Name: "a.example.", Type: TypeNSEC, Class: ClassIN}},
			Answers: []RR{{Name: "a.example.", Type: TypeNSEC, Class: ClassIN, TTL: 60,
				Data: RawData{append(appendName(nil, "b.example."), bitmap...)}}},
		}
		res, err := Parse(new(Encoder).Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := nsec(0, 1, 0x40, 1, 1, 0x40); !res.Complete {
		t.Error("two-window bitmap: NSEC parse incomplete")
	}
	for _, bad := range [][]byte{{0}, {0, 0}, {0, 33}, {0, 2, 0x40}} {
		if res := nsec(bad...); res.Complete {
			t.Errorf("bitmap %x: NSEC parse complete", bad)
		}
	}
}

func TestRecommendedEDNSLimit(t *testing.T) {
	if RecommendedEDNSLimit != 4096 {
		t.Error("EDNS limit constant changed")
	}
}
