package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
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

// RawData carries rdata Parse decodes into no fields: unknown types, and
// SRV, URI, DS and NSEC, whose embedded names (SRV target, NSEC next
// name) Parse writes back uncompressed.
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

// appendName appends the uncompressed wire encoding of name. Unlike a
// question name's, an empty label is written, as its zero length octet.
func appendName(dst []byte, name string) []byte {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(dst, 0)
	}
	for more := true; more; {
		var label string
		label, name, more = strings.Cut(name, ".")
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
