package netmodel

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func sampleFrame(payload []byte, udpLen uint16) []byte {
	eth := Ethernet{
		Dst: MAC{0x02, 0, 0, 0, 0, 1},
		Src: MAC{0x02, 0, 0, 0, 0, 2},
	}
	ip := IPv4{
		TTL: 64,
		ID:  0x1234,
		Src: netip.MustParseAddr("192.0.2.1"),
		Dst: netip.MustParseAddr("198.51.100.7"),
	}
	udp := UDP{SrcPort: 53, DstPort: 40000, Length: udpLen}
	return EncodeUDPPacket(eth, ip, udp, payload)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("hello dns world")
	frame := sampleFrame(payload, 0)
	p, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q, want %q", p.Payload, payload)
	}
	if p.Truncated {
		t.Error("untruncated frame reported truncated")
	}
	if p.IP.Src.String() != "192.0.2.1" || p.IP.Dst.String() != "198.51.100.7" {
		t.Errorf("addresses wrong: %v -> %v", p.IP.Src, p.IP.Dst)
	}
	if p.UDP.SrcPort != 53 || p.UDP.DstPort != 40000 {
		t.Errorf("ports wrong: %d -> %d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	if p.DNSPayloadSize() != len(payload) {
		t.Errorf("DNSPayloadSize = %d, want %d", p.DNSPayloadSize(), len(payload))
	}
}

func TestTruncationPreservesUDPLength(t *testing.T) {
	// A 3000-byte response truncated at 128 bytes: the UDP length field
	// must still report the full datagram size (paper §3.1).
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	frame := sampleFrame(payload, 0)
	trunc := Truncate(frame, 128)
	if len(trunc) != 128 {
		t.Fatalf("truncated length = %d", len(trunc))
	}
	p, err := DecodeFrame(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Truncated {
		t.Error("expected Truncated flag")
	}
	if p.DNSPayloadSize() != 3000 {
		t.Errorf("recovered size = %d, want 3000", p.DNSPayloadSize())
	}
	avail := 128 - EthernetHeaderLen - IPv4HeaderLen - UDPHeaderLen
	if len(p.Payload) != avail {
		t.Errorf("available payload = %d, want %d", len(p.Payload), avail)
	}
}

func TestSynthesizedUDPLength(t *testing.T) {
	// The generator can claim a large datagram while materializing only
	// a prefix — the decoder must honour the UDP length field.
	prefix := make([]byte, 90)
	frame := sampleFrame(prefix, UDPHeaderLen+4096)
	p, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.DNSPayloadSize() != 4096 {
		t.Errorf("size = %d, want 4096", p.DNSPayloadSize())
	}
	if !p.Truncated {
		t.Error("expected truncated")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeFrame(nil); err == nil {
		t.Error("nil frame should fail")
	}
	if _, err := DecodeFrame(make([]byte, 10)); err == nil {
		t.Error("short frame should fail")
	}
	// Non-IPv4 ethertype.
	frame := sampleFrame([]byte("x"), 0)
	frame[12], frame[13] = 0x86, 0xDD
	if _, err := DecodeFrame(frame); err == nil {
		t.Error("IPv6 ethertype should fail")
	}
	// Non-UDP protocol.
	frame = sampleFrame([]byte("x"), 0)
	frame[EthernetHeaderLen+9] = ProtoTCP
	if _, err := DecodeFrame(frame); err == nil {
		t.Error("TCP should be rejected")
	}
	// Bad IP version.
	frame = sampleFrame([]byte("x"), 0)
	frame[EthernetHeaderLen] = 0x60
	if _, err := DecodeFrame(frame); err == nil {
		t.Error("IPv6 version nibble should fail")
	}
}

func TestFragmentSkipped(t *testing.T) {
	frame := sampleFrame([]byte("payload"), 0)
	// Set a non-zero fragment offset.
	frame[EthernetHeaderLen+6] = 0x00
	frame[EthernetHeaderLen+7] = 0x10
	if _, err := DecodeFrame(frame); err == nil {
		t.Error("non-first fragment should be skipped")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: checksum of a buffer containing its
	// own checksum is 0.
	ip := IPv4{
		TTL: 64, Protocol: ProtoUDP, TotalLen: 40, ID: 7,
		Src: netip.MustParseAddr("10.0.0.1"),
		Dst: netip.MustParseAddr("10.0.0.2"),
	}
	hdr := ip.AppendTo(nil)
	if got := checksum(hdr); got != 0 {
		t.Errorf("checksum over header incl. checksum = %#x, want 0", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length buffers pad with a zero byte.
	a := checksum([]byte{0x01, 0x02, 0x03})
	b := checksum([]byte{0x01, 0x02, 0x03, 0x00})
	if a != b {
		t.Errorf("odd-length checksum mismatch: %#x vs %#x", a, b)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{7, 8, 9, 10, 11, 12}, EtherType: EtherTypeIPv4}
	buf := e.AppendTo(nil)
	var d Ethernet
	rest, err := d.Decode(append(buf, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if d != e {
		t.Errorf("decoded %+v, want %+v", d, e)
	}
	if len(rest) != 1 || rest[0] != 0xAA {
		t.Errorf("rest = %v", rest)
	}
}

func TestIPv4ClipsTrailingBytes(t *testing.T) {
	payload := []byte("abc")
	frame := sampleFrame(payload, 0)
	// Add trailing garbage (ethernet padding).
	frame = append(frame, 0xFF, 0xFF, 0xFF)
	p, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload with padding = %q, want %q", p.Payload, payload)
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(1200)
		payload := make([]byte, n)
		rng.Read(payload)
		var src, dst [4]byte
		r.Read(src[:])
		r.Read(dst[:])
		eth := Ethernet{}
		ip := IPv4{
			TTL: uint8(1 + r.Intn(255)), ID: uint16(r.Intn(65536)),
			Src: netip.AddrFrom4(src), Dst: netip.AddrFrom4(dst),
		}
		udp := UDP{SrcPort: uint16(r.Intn(65536)), DstPort: uint16(r.Intn(65536))}
		frame := EncodeUDPPacket(eth, ip, udp, payload)
		p, err := DecodeFrame(frame)
		if err != nil {
			return false
		}
		return bytes.Equal(p.Payload, payload) &&
			p.IP.Src == ip.Src && p.IP.Dst == ip.Dst &&
			p.UDP.SrcPort == udp.SrcPort && p.UDP.DstPort == udp.DstPort &&
			p.IP.TTL == ip.TTL && !p.Truncated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTruncateNoop(t *testing.T) {
	b := []byte{1, 2, 3}
	if got := Truncate(b, 10); len(got) != 3 {
		t.Error("Truncate should not extend")
	}
	if got := Truncate(b, 2); len(got) != 2 {
		t.Error("Truncate should clip")
	}
}
