package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// AData is an IPv4 address record.
type AData struct{ Addr netip.Addr }

// WireLen implements RData.
func (AData) WireLen() int { return 4 }

func (d AData) appendTo(dst []byte) []byte {
	a := d.Addr.As4()
	return append(dst, a[:]...)
}

// AAAAData is an IPv6 address record.
type AAAAData struct{ Addr netip.Addr }

// WireLen implements RData.
func (AAAAData) WireLen() int { return 16 }

func (d AAAAData) appendTo(dst []byte) []byte {
	a := d.Addr.As16()
	return append(dst, a[:]...)
}

// NameData is the rdata of NS, CNAME and PTR records: a single domain name.
type NameData struct{ Target string }

// WireLen implements RData.
func (d NameData) WireLen() int { return EncodedNameLen(d.Target) }

func (d NameData) appendTo(dst []byte) []byte { return appendName(dst, d.Target) }

// SOAData is an SOA record.
type SOAData struct {
	MName, RName                        string
	Serial, Refresh, Retry, Expire, Min uint32
}

// WireLen implements RData.
func (d SOAData) WireLen() int {
	return EncodedNameLen(d.MName) + EncodedNameLen(d.RName) + 20
}

func (d SOAData) appendTo(dst []byte) []byte {
	dst = appendName(dst, d.MName)
	dst = appendName(dst, d.RName)
	dst = binary.BigEndian.AppendUint32(dst, d.Serial)
	dst = binary.BigEndian.AppendUint32(dst, d.Refresh)
	dst = binary.BigEndian.AppendUint32(dst, d.Retry)
	dst = binary.BigEndian.AppendUint32(dst, d.Expire)
	return binary.BigEndian.AppendUint32(dst, d.Min)
}

// MXData is an MX record.
type MXData struct {
	Pref uint16
	Host string
}

// WireLen implements RData.
func (d MXData) WireLen() int { return 2 + EncodedNameLen(d.Host) }

func (d MXData) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, d.Pref)
	return appendName(dst, d.Host)
}

// TXTData is a TXT (or SPF) record: one or more character-strings.
type TXTData struct{ Strings []string }

// WireLen implements RData.
func (d TXTData) WireLen() int {
	n := 0
	for _, s := range d.Strings {
		// Each character-string is a length octet plus up to 255 bytes;
		// longer strings are split into 255-byte chunks.
		l := len(s)
		for l > 255 {
			n += 256
			l -= 255
		}
		n += 1 + l
	}
	if len(d.Strings) == 0 {
		n = 1 // empty character-string
	}
	return n
}

func (d TXTData) appendTo(dst []byte) []byte {
	if len(d.Strings) == 0 {
		return append(dst, 0)
	}
	for _, s := range d.Strings {
		for len(s) > 255 {
			dst = append(dst, 255)
			dst = append(dst, s[:255]...)
			s = s[255:]
		}
		dst = append(dst, byte(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// SRVData is an SRV record.
type SRVData struct {
	Priority, Weight, Port uint16
	Target                 string
}

// WireLen implements RData.
func (d SRVData) WireLen() int { return 6 + EncodedNameLen(d.Target) }

func (d SRVData) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, d.Priority)
	dst = binary.BigEndian.AppendUint16(dst, d.Weight)
	dst = binary.BigEndian.AppendUint16(dst, d.Port)
	return appendName(dst, d.Target)
}

// URIData is a URI record (RFC 7553).
type URIData struct {
	Priority, Weight uint16
	Target           string
}

// WireLen implements RData.
func (d URIData) WireLen() int { return 4 + len(d.Target) }

func (d URIData) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, d.Priority)
	dst = binary.BigEndian.AppendUint16(dst, d.Weight)
	return append(dst, d.Target...)
}

// CAAData is a CAA record.
type CAAData struct {
	Flags uint8
	Tag   string
	Value string
}

// WireLen implements RData.
func (d CAAData) WireLen() int { return 2 + len(d.Tag) + len(d.Value) }

func (d CAAData) appendTo(dst []byte) []byte {
	dst = append(dst, d.Flags, byte(len(d.Tag)))
	dst = append(dst, d.Tag...)
	return append(dst, d.Value...)
}

// DNSKEY algorithm identifiers (RFC 8624 common subset).
const (
	AlgRSASHA256       uint8 = 8
	AlgECDSAP256SHA256 uint8 = 13
)

// DNSKEYData is a DNSKEY record. Key sizes drive the amplification
// analysis: an RSA-2048 ZSK public key is 260 bytes of key material, an
// ECDSA P-256 key 64 bytes.
type DNSKEYData struct {
	Flags     uint16 // 256 = ZSK, 257 = KSK
	Protocol  uint8  // always 3
	Algorithm uint8
	PublicKey []byte
}

// DNSKEY flag values.
const (
	DNSKEYFlagZSK uint16 = 256
	DNSKEYFlagKSK uint16 = 257
)

// WireLen implements RData.
func (d DNSKEYData) WireLen() int { return 4 + len(d.PublicKey) }

func (d DNSKEYData) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, d.Flags)
	dst = append(dst, d.Protocol, d.Algorithm)
	return append(dst, d.PublicKey...)
}

// IsZSK reports whether the key is a zone-signing key (SEP flag clear).
func (d DNSKEYData) IsZSK() bool { return d.Flags&1 == 0 }

// RRSIGData is an RRSIG record. Signature sizes: RSA-2048 produces a
// 256-byte signature, ECDSA P-256 a 64-byte one.
type RRSIGData struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	Signature   []byte
}

// WireLen implements RData.
func (d RRSIGData) WireLen() int {
	return 18 + EncodedNameLen(d.SignerName) + len(d.Signature)
}

func (d RRSIGData) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(d.TypeCovered))
	dst = append(dst, d.Algorithm, d.Labels)
	dst = binary.BigEndian.AppendUint32(dst, d.OriginalTTL)
	dst = binary.BigEndian.AppendUint32(dst, d.Expiration)
	dst = binary.BigEndian.AppendUint32(dst, d.Inception)
	dst = binary.BigEndian.AppendUint16(dst, d.KeyTag)
	dst = appendName(dst, d.SignerName)
	return append(dst, d.Signature...)
}

// DSData is a DS record.
type DSData struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

// WireLen implements RData.
func (d DSData) WireLen() int { return 4 + len(d.Digest) }

func (d DSData) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, d.KeyTag)
	dst = append(dst, d.Algorithm, d.DigestType)
	return append(dst, d.Digest...)
}

// NSECData is an NSEC record with a type bitmap.
type NSECData struct {
	NextName string
	Types    []Type
}

// WireLen implements RData.
func (d NSECData) WireLen() int {
	return EncodedNameLen(d.NextName) + len(encodeTypeBitmap(d.Types))
}

func (d NSECData) appendTo(dst []byte) []byte {
	dst = appendName(dst, d.NextName)
	return append(dst, encodeTypeBitmap(d.Types)...)
}

// encodeTypeBitmap builds the NSEC window-block type bitmap.
func encodeTypeBitmap(types []Type) []byte {
	if len(types) == 0 {
		return nil
	}
	sorted := append([]Type(nil), types...)
	slices.Sort(sorted)
	var out []byte
	window := -1
	var bitmap []byte
	flush := func() {
		if window >= 0 && len(bitmap) > 0 {
			out = append(out, byte(window), byte(len(bitmap)))
			out = append(out, bitmap...)
		}
	}
	for _, t := range sorted {
		w := int(t >> 8)
		if w != window {
			flush()
			window = w
			bitmap = nil
		}
		lo := int(t & 0xff)
		byteIdx := lo / 8
		for len(bitmap) <= byteIdx {
			bitmap = append(bitmap, 0)
		}
		bitmap[byteIdx] |= 0x80 >> (lo % 8)
	}
	flush()
	return out
}

// decodeTypeBitmap parses an NSEC window-block type bitmap back into a
// sorted type list.
func decodeTypeBitmap(b []byte) ([]Type, error) {
	var types []Type
	for i := 0; i < len(b); {
		if i+2 > len(b) {
			return nil, ErrTruncatedRData
		}
		window := int(b[i])
		blen := int(b[i+1])
		i += 2
		if blen == 0 || blen > 32 || i+blen > len(b) {
			return nil, ErrTruncatedRData
		}
		for j := 0; j < blen; j++ {
			for bit := 0; bit < 8; bit++ {
				if b[i+j]&(0x80>>bit) != 0 {
					types = append(types, Type(window<<8|j*8+bit))
				}
			}
		}
		i += blen
	}
	return types, nil
}

// OPTData is the EDNS0 OPT pseudo-record rdata (options only; the UDP
// payload size lives in the RR class field and the extended rcode/flags
// in the TTL field).
type OPTData struct {
	Options []EDNSOption
}

// EDNSOption is a single EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// WireLen implements RData.
func (d OPTData) WireLen() int {
	n := 0
	for _, o := range d.Options {
		n += 4 + len(o.Data)
	}
	return n
}

func (d OPTData) appendTo(dst []byte) []byte {
	for _, o := range d.Options {
		dst = binary.BigEndian.AppendUint16(dst, o.Code)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(o.Data)))
		dst = append(dst, o.Data...)
	}
	return dst
}

// RawData carries rdata of types without a decoded representation.
type RawData struct{ Bytes []byte }

// WireLen implements RData.
func (d RawData) WireLen() int { return len(d.Bytes) }

func (d RawData) appendTo(dst []byte) []byte { return append(dst, d.Bytes...) }

// EncodedNameLen returns the wire length of a domain name encoded without
// compression: one length octet per label, the label bytes, and the root
// terminator.
func EncodedNameLen(name string) int {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return 1
	}
	// Every label costs its bytes plus a length octet where the text
	// form has a dot; the last label's octet and the root make two.
	return len(name) + 2
}

// appendName appends the uncompressed wire encoding of name.
func appendName(dst []byte, name string) []byte {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(dst, 0)
	}
	for _, label := range strings.Split(name, ".") {
		if len(label) > 63 {
			label = label[:63]
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0)
}

// ValidName reports whether name is a well-formed domain name: non-empty
// labels of at most 63 bytes, total encoded length within 255, and only
// the LDH character set plus underscore (common in SRV owner names). The
// root name "." is valid. The detector uses this to sanitize traffic
// (§3.1: "well-formed values for ... DNS query types and names").
func ValidName(name string) bool { return validName(name) }

// ValidNameBytes is ValidName for a byte view of the name.
func ValidNameBytes(name []byte) bool { return validName(name) }

func validName[S string | []byte](name S) bool {
	n := len(name)
	if n == 0 {
		return false
	}
	if name[n-1] == '.' {
		if n == 1 {
			return true
		}
		n--
	}
	if n+2 > 255 { // EncodedNameLen
		return false
	}
	label := 0
	for i := 0; i < n; i++ {
		switch c := name[i]; {
		case c == '.':
			if label == 0 {
				return false
			}
			label = 0
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '-', c == '_':
			if label++; label > 63 {
				return false
			}
		default:
			return false
		}
	}
	return label > 0
}

// CanonicalName lowercases and ensures a trailing dot, the canonical form
// used as map keys throughout the pipeline.
func CanonicalName(name string) string {
	if isCanonical(name) {
		return name
	}
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	if name == "" {
		return "."
	}
	return name + "."
}

// isCanonical reports whether CanonicalName(name) == name, so the hot
// path can skip the lowering/trimming allocation for names that are
// already canonical (the overwhelmingly common case inside the
// pipeline, where names come from interning tables).
func isCanonical(name string) bool {
	if len(name) == 0 || name[len(name)-1] != '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= 'A' && c <= 'Z' {
			return false
		}
	}
	return true
}

// TLD returns the rightmost label of a canonical name, or "." for the
// root. "doj.gov." -> "gov".
func TLD(name string) string {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return "."
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func (d AData) String() string    { return d.Addr.String() }
func (d AAAAData) String() string { return d.Addr.String() }
func (d NameData) String() string { return d.Target }
func (d TXTData) String() string  { return fmt.Sprintf("%q", d.Strings) }
