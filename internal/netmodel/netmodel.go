// Package netmodel implements the wire formats the IXP capture pipeline
// operates on: Ethernet II, IPv4 and UDP, with real header encoding,
// decoding and checksumming.
//
// The design follows the layered style of packet libraries such as
// gopacket: each layer type can decode itself from bytes and serialize
// itself in front of a payload. Unlike gopacket we only implement the
// layers the paper's detection method needs, and we keep everything
// allocation-light because the attack generator produces millions of
// sampled frames per campaign.
// It owns §3.1's frame lengths: DecodedPacket.Decode reads them off a
// frame, DecodeLengths is its length-only form for frames never built.
package netmodel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Errors returned by the decoders.
var (
	ErrTruncated  = errors.New("netmodel: packet truncated")
	ErrBadVersion = errors.New("netmodel: unsupported IP version")
	ErrBadLength  = errors.New("netmodel: inconsistent length field")
)

// EtherType values used by the simulation.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeIPv6 uint16 = 0x86DD
)

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// EthernetHeaderLen is the length of an Ethernet II header.
const EthernetHeaderLen = 14

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// MAC is a 6-byte hardware address.
type MAC [6]byte

// String renders the MAC in the canonical colon form.
// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// Decode parses an Ethernet header and returns the payload slice.
func (e *Ethernet) Decode(b []byte) ([]byte, error) {
	if len(b) < EthernetHeaderLen {
		return nil, ErrTruncated
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return b[14:], nil
}

// AppendTo appends the serialized header to dst and returns the extended
// slice.
func (e *Ethernet) AppendTo(dst []byte) []byte {
	dst = append(dst, e.Dst[:]...)
	dst = append(dst, e.Src[:]...)
	return binary.BigEndian.AppendUint16(dst, e.EtherType)
}

// IPv4 is an IPv4 header. Options are not modelled (IHL is always 5): the
// traffic the paper analyzes is plain DNS-over-UDP.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst netip.Addr
}

// IPv4 flag bits.
const (
	IPv4DontFragment = 0b010
	IPv4MoreFrags    = 0b001
)

// Decode parses an IPv4 header from b and returns the payload slice. The
// payload is clipped to TotalLen when b carries trailing bytes, and is
// whatever remains when the frame was truncated below TotalLen (the
// 128-byte IXP truncation case).
func (ip *IPv4) Decode(b []byte) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	vihl := b[0]
	if vihl>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(vihl&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return nil, ErrBadLength
	}
	if len(b) < ihl {
		return nil, ErrTruncated
	}
	ip.TOS = b[1]
	ip.TotalLen = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	frag := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(frag >> 13)
	ip.FragOff = frag & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	var src, dst [4]byte
	copy(src[:], b[12:16])
	copy(dst[:], b[16:20])
	ip.Src = netip.AddrFrom4(src)
	ip.Dst = netip.AddrFrom4(dst)
	if int(ip.TotalLen) < ihl {
		return nil, ErrBadLength
	}
	payload := b[ihl:]
	if want := int(ip.TotalLen) - ihl; len(payload) > want {
		payload = payload[:want]
	}
	return payload, nil
}

// AppendTo appends the serialized header to dst, computing the header
// checksum. TotalLen must already be set by the caller (EncodeUDPPacket
// does this).
func (ip *IPv4) AppendTo(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, 0x45, ip.TOS)
	dst = binary.BigEndian.AppendUint16(dst, ip.TotalLen)
	dst = binary.BigEndian.AppendUint16(dst, ip.ID)
	frag := uint16(ip.Flags)<<13 | ip.FragOff&0x1fff
	dst = binary.BigEndian.AppendUint16(dst, frag)
	dst = append(dst, ip.TTL, ip.Protocol, 0, 0) // checksum zeroed
	src4 := ip.Src.As4()
	dst4 := ip.Dst.As4()
	dst = append(dst, src4[:]...)
	dst = append(dst, dst4[:]...)
	sum := checksum(dst[start : start+IPv4HeaderLen])
	binary.BigEndian.PutUint16(dst[start+10:start+12], sum)
	ip.Checksum = sum
	return dst
}

// UDP is a UDP header. Length covers header plus payload, which is what
// lets the detector recover the true DNS response size from a frame that
// was truncated at 128 bytes (§3.1 of the paper).
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Decode parses a UDP header from b and returns the available payload.
// The payload may be shorter than Length-8 when the frame was truncated.
func (u *UDP) Decode(b []byte) ([]byte, error) {
	if len(b) < UDPHeaderLen {
		return nil, ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	if u.Length < UDPHeaderLen {
		return nil, ErrBadLength
	}
	payload := b[8:]
	if want := int(u.Length) - UDPHeaderLen; len(payload) > want {
		payload = payload[:want]
	}
	return payload, nil
}

// AppendTo appends the serialized header to dst. Length must be set.
// The checksum is left zero (legal for IPv4 UDP) unless already set.
func (u *UDP) AppendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, u.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, u.DstPort)
	dst = binary.BigEndian.AppendUint16(dst, u.Length)
	return binary.BigEndian.AppendUint16(dst, u.Checksum)
}

// checksum computes the RFC 1071 Internet checksum of b.
func checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// EncodeUDPPacket builds a complete Ethernet/IPv4/UDP frame around
// payload. udpLen is the value written into the UDP length field; when it
// exceeds len(payload)+8 the frame describes a datagram larger than what
// is materialized — exactly the situation after IXP truncation, where the
// generator only materializes the bytes a 128-byte snaplen would keep.
func EncodeUDPPacket(eth Ethernet, ip IPv4, udp UDP, payload []byte) []byte {
	if udp.Length == 0 {
		udp.Length = uint16(UDPHeaderLen + len(payload))
	}
	ip.Protocol = ProtoUDP
	ip.TotalLen = uint16(IPv4HeaderLen) + udp.Length
	eth.EtherType = EtherTypeIPv4

	buf := make([]byte, 0, EthernetHeaderLen+IPv4HeaderLen+UDPHeaderLen+len(payload))
	buf = eth.AppendTo(buf)
	buf = ip.AppendTo(buf)
	buf = udp.AppendTo(buf)
	buf = append(buf, payload...)
	return buf
}

// Truncate clips a frame to snaplen bytes, the IXP capture behaviour.
// The result aliases frame: callers that retain it past a reuse of the
// underlying buffer must copy it (sflow.Sampler does at its take/ingest
// boundary).
func Truncate(frame []byte, snaplen int) []byte {
	if len(frame) <= snaplen {
		return frame
	}
	return frame[:snaplen]
}

// DecodedPacket is the result of decoding a (possibly truncated) frame.
type DecodedPacket struct {
	Eth        Ethernet
	IP         IPv4
	UDP        UDP
	Payload    []byte // available UDP payload bytes (may be truncated)
	FullUDPLen int    // datagram size per the UDP length field
	Truncated  bool   // payload shorter than the UDP length field promises
}

// DecodeFrame parses an Ethernet/IPv4/UDP frame into a fresh
// DecodedPacket; see Decode for what it accepts.
func DecodeFrame(frame []byte) (*DecodedPacket, error) {
	var p DecodedPacket
	if err := p.Decode(frame); err != nil {
		return nil, err
	}
	return &p, nil
}

// Decode parses an Ethernet/IPv4/UDP frame into p, which the caller may
// keep on its stack. It tolerates truncation below the IP TotalLen
// (reporting Truncated) but rejects frames too short to carry the three
// headers, non-IPv4 frames, and non-UDP packets. After an error p holds
// a partial decode.
func (p *DecodedPacket) Decode(frame []byte) error {
	rest, err := p.Eth.Decode(frame)
	if err != nil {
		return err
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		return ErrBadVersion
	}
	rest, err = p.IP.Decode(rest)
	if err != nil {
		return err
	}
	if p.IP.Protocol != ProtoUDP {
		return fmt.Errorf("netmodel: not UDP (proto %d)", p.IP.Protocol)
	}
	if p.IP.FragOff != 0 {
		// Non-first fragments carry no UDP header; the capture pipeline
		// skips them (this also avoids double counting fragmented
		// answers, §3.1).
		return ErrTruncated
	}
	p.Payload, err = p.UDP.Decode(rest)
	if err != nil {
		return err
	}
	p.FullUDPLen = int(p.UDP.Length)
	p.Truncated = len(p.Payload) < p.FullUDPLen-UDPHeaderLen
	return nil
}

// DecodeLengths is Decode reduced to lengths, for a producer that
// accounts frames without building them: the frame is what
// EncodeUDPPacket builds around payloadLen payload bytes with a UDP
// length field of 8+msgSize (wrapping as the field does; a field that
// wraps to 0 takes the encoder's default), truncated to snaplen bytes.
// It returns len(Payload) and DNSPayloadSize() of that frame's decode,
// and ok false exactly where Decode fails.
func DecodeLengths(payloadLen, msgSize, snaplen int) (avail, size int, ok bool) {
	udpLen := uint16(UDPHeaderLen + msgSize)
	if udpLen == 0 {
		udpLen = uint16(UDPHeaderLen + payloadLen)
	}
	totalLen := uint16(IPv4HeaderLen) + udpLen
	if totalLen < IPv4HeaderLen {
		return 0, 0, false // IPv4.Decode: ErrBadLength
	}
	// The UDP header and payload bytes IPv4.Decode hands on: what the
	// truncation left, clipped to TotalLen.
	ipPayload := min(UDPHeaderLen+payloadLen, snaplen-EthernetHeaderLen-IPv4HeaderLen, int(totalLen)-IPv4HeaderLen)
	if ipPayload < UDPHeaderLen || udpLen < UDPHeaderLen {
		return 0, 0, false // UDP.Decode: ErrTruncated or ErrBadLength
	}
	size = int(udpLen) - UDPHeaderLen
	return min(ipPayload-UDPHeaderLen, size), size, true
}

// DNSPayloadSize returns the size in bytes of the DNS message carried by
// the datagram as recovered from the UDP length field, regardless of
// truncation.
func (p *DecodedPacket) DNSPayloadSize() int {
	if p.FullUDPLen < UDPHeaderLen {
		return 0
	}
	return p.FullUDPLen - UDPHeaderLen
}
