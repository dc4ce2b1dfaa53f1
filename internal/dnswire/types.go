// Package dnswire implements a DNS message codec: header, question and
// resource-record encoding with name compression for the record types
// the simulated zones answer with (including the DNSSEC records DNSKEY
// and RRSIG and the EDNS0 OPT pseudo-record), plus wire-size estimation
// used by the OpenINTEL-style response size model.
//
// The IXP pipeline sees frames cut at 128 bytes, which always preserves
// the DNS header and (for realistic names) the first question, but
// rarely the full answer section. Scan reads what the capture point
// needs from such a prefix: the header, the first question and the NS
// records in view. Parse, a tolerant decoder that reports how far it got
// instead of failing outright, is the reference Scan is held to; it
// accepts every record type by the rules Scan checks and keeps the
// rdata of SRV, URI, DS, NSEC and unknown types as RawData. The package
// owns message lengths too (QuestionSize, QuerySize, MinimalANYSize).
package dnswire

import "fmt"

// Type is a DNS RR type (or QTYPE).
type Type uint16

// Record and query types used by the simulation and the detector.
const (
	TypeNone   Type = 0
	TypeA      Type = 1
	TypeNS     Type = 2
	TypeCNAME  Type = 5
	TypeSOA    Type = 6
	TypePTR    Type = 12
	TypeMX     Type = 15
	TypeTXT    Type = 16
	TypeAAAA   Type = 28
	TypeSRV    Type = 33
	TypeDS     Type = 43
	TypeRRSIG  Type = 46
	TypeNSEC   Type = 47
	TypeDNSKEY Type = 48
	TypeOPT    Type = 41
	TypeSPF    Type = 99
	TypeCAA    Type = 257
	TypeURI    Type = 256
	TypeANY    Type = 255
	TypeAXFR   Type = 252
)

var typeNames = map[Type]string{
	TypeA: "A", TypeNS: "NS", TypeCNAME: "CNAME", TypeSOA: "SOA",
	TypePTR: "PTR", TypeMX: "MX", TypeTXT: "TXT", TypeAAAA: "AAAA",
	TypeSRV: "SRV", TypeDS: "DS", TypeRRSIG: "RRSIG", TypeNSEC: "NSEC",
	TypeDNSKEY: "DNSKEY", TypeOPT: "OPT", TypeSPF: "SPF", TypeCAA: "CAA",
	TypeURI: "URI", TypeANY: "ANY", TypeAXFR: "AXFR",
}

// String returns the mnemonic for t, or TYPE<n> for unknown types.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class.
type Class uint16

// Classes. Only IN matters here; OPT abuses the class field for the UDP
// payload size.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// RCode is a DNS response code.
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// OpCode is a DNS opcode.
type OpCode uint8

// Opcodes.
const (
	OpQuery  OpCode = 0
	OpNotify OpCode = 4
	OpUpdate OpCode = 5
)

// Header is the fixed 12-byte DNS header.
type Header struct {
	ID      uint16
	QR      bool // response flag
	OpCode  OpCode
	AA      bool // authoritative answer
	TC      bool // truncated
	RD      bool // recursion desired
	RA      bool // recursion available
	AD      bool // authenticated data (DNSSEC)
	CD      bool // checking disabled
	RCode   RCode
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// HeaderLen is the wire size of the DNS header.
const HeaderLen = 12

// Question is a DNS question entry.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is a decoded resource record. Data holds the type-specific rdata in
// decoded form; for types without a dedicated representation RawData
// carries the raw rdata bytes.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// WireLen is the RR's uncompressed wire length: owner name, the fixed
// 10 bytes of type, class, TTL and rdlength, and the rdata.
func (rr RR) WireLen() int {
	return rrLen(rr.Name, rr.Data.WireLen())
}

// rrLen is the uncompressed wire length of a record owned by name with
// rdlen bytes of rdata.
func rrLen(name string, rdlen int) int {
	return EncodedNameLen(name) + 10 + rdlen
}

// RData is implemented by all decoded rdata representations.
type RData interface {
	// WireLen returns the rdata length in bytes when encoded without
	// name compression (names in rdata are never compressed by our
	// encoder, matching modern server behaviour for DNSSEC types).
	WireLen() int
	// appendTo appends the encoded rdata.
	appendTo(dst []byte) []byte
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// QName returns the first question name, or "".
func (m *Message) QName() string {
	if len(m.Questions) == 0 {
		return ""
	}
	return m.Questions[0].Name
}

// QType returns the first question type, or TypeNone.
func (m *Message) QType() Type {
	if len(m.Questions) == 0 {
		return TypeNone
	}
	return m.Questions[0].Type
}

// RecommendedEDNSLimit is the EDNS payload size RFC 6891 recommends
// (4096 bytes); the paper uses it as the reference line in Fig. 8b.
const RecommendedEDNSLimit = 4096
