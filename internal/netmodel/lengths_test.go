package netmodel_test

import (
	"net/netip"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
)

// TestDecodeLengthsMatchesProcess holds the length-only decode, with
// ixp.CheckDNS on the bytes it leaves, to what the capture point makes
// of the frame the traffic generator's wire path builds: a UDP length
// field of 8+msgSize in front of a payload prefix, truncated at the
// sampler's snaplen. msgSize runs over 0..65535, so the field takes
// every value once, wrapped ones included; the payloads are a query with
// an ill-formed name and prefixes of a response that end inside the
// header, inside the question, in the records, at the snaplen's last
// payload byte and past it. Each frame must get the same drop from both,
// and a kept one the same decoded payload length and recovered size.
func TestDecodeLengthsMatchesProcess(t *testing.T) {
	q := dnswire.NewQuery(0xBEEF, "example.com.", dnswire.TypeANY, 4096)
	resp := dnswire.NewResponse(q)
	for _, ns := range []string{"ns1.example.com.", "ns2.example.com.", "ns3.example.net."} {
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: "example.com.", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NameData{Target: ns},
		})
	}
	msg := dnswire.Encode(resp)
	snapPayload := sflow.DefaultSnaplen - netmodel.EthernetHeaderLen - netmodel.IPv4HeaderLen - netmodel.UDPHeaderLen
	if len(msg) <= snapPayload+8 {
		t.Fatalf("test message of %d bytes does not outrun the snaplen", len(msg))
	}
	bad := dnswire.Encode(dnswire.NewQuery(1, "bad!name.example.", dnswire.TypeA, 4096))
	payloads := [][]byte{bad}
	for _, n := range []int{0, 11, 20, 45, snapPayload, snapPayload + 8} {
		payloads = append(payloads, msg[:n])
	}

	ip := netmodel.IPv4{TTL: 64, Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("198.51.100.7")}
	cp := ixp.NewCapturePoint(nil, nil)
	var buf []byte
	drops := map[ixp.Drop]int{}
	for _, payload := range payloads {
		payloadLen := len(payload)
		for msgSize := 0; msgSize <= 65535; msgSize++ {
			udp := netmodel.UDP{SrcPort: 53, DstPort: 40000, Length: uint16(netmodel.UDPHeaderLen + msgSize)}
			frame := netmodel.Truncate(netmodel.EncodeUDPPacket(netmodel.Ethernet{}, ip, udp, payload), sflow.DefaultSnaplen)

			avail, size, ok := netmodel.DecodeLengths(payloadLen, msgSize, sflow.DefaultSnaplen)
			var pkt netmodel.DecodedPacket
			err := pkt.Decode(frame)
			if ok != (err == nil) || ok && (avail != len(pkt.Payload) || size != pkt.DNSPayloadSize()) {
				t.Fatalf("payload %d, msgSize %d: DecodeLengths = (%d, %d, %v), Decode = (%d, %d, %v)",
					payloadLen, msgSize, avail, size, ok, len(pkt.Payload), pkt.DNSPayloadSize(), err)
			}
			want := ixp.DropNonUDP
			if ok {
				var m dnswire.Scanned
				want = ixp.CheckDNS(&m, payload[:avail], buf)
				buf = m.QName
			}
			drops[want]++

			before := cp.Stats
			s, kept := cp.Process(sflow.Record{Frame: frame})
			got := ixp.Keep
			switch {
			case cp.Stats.NonUDP > before.NonUDP:
				got = ixp.DropNonUDP
			case cp.Stats.NonDNS > before.NonDNS:
				got = ixp.DropNonDNS
			case cp.Stats.Malformed > before.Malformed:
				got = ixp.DropMalformed
			}
			if got != want || kept != (want == ixp.Keep) || kept && s.MsgSize != int32(size) {
				t.Fatalf("payload %d, msgSize %d: model drop %d size %d, Process drop %d kept %v size %d",
					payloadLen, msgSize, want, size, got, kept, s.MsgSize)
			}
		}
	}
	for _, d := range []ixp.Drop{ixp.Keep, ixp.DropNonUDP, ixp.DropNonDNS, ixp.DropMalformed} {
		if drops[d] == 0 {
			t.Errorf("no frame met outcome %d: the table misses a case", d)
		}
	}
}
