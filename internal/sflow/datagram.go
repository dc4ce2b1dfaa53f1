// sFlow v5 datagram codec: the wire form a real collector would see.
//
// A datagram carries a header (agent address, sub-agent, sequence
// number, uptime) followed by samples; the only sample kind the capture
// pipeline produces is the flow sample (enterprise 0, format 1) whose
// single record is the raw packet header (format 1): sampling rate,
// original frame length, and the truncated header bytes — exactly the
// metadata Sampler.Record carries. Encode/Parse round-trip those
// fields, so a Sampler's output can be serialized and re-ingested
// byte-for-byte.
//
// The parser is tolerant the way collectors are: unknown sample and
// record types are skipped via their length fields (they do not
// survive re-encoding), and every length is validated against the
// remaining input so corrupt datagrams fail with ErrDatagram instead
// of panicking or over-allocating.
package sflow

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the only sFlow datagram version the codec speaks.
const Version = 5

// ErrDatagram is wrapped by every ParseDatagram failure.
var ErrDatagram = errors.New("sflow: malformed datagram")

// Wire constants of the sFlow v5 spec.
const (
	addrTypeIPv4 = 1

	sampleTypeFlow  = 1 // enterprise 0, format 1
	recordRawPacket = 1 // raw packet header flow record
	headerProtoEth  = 1 // header_protocol: ETHERNET-ISO8023
)

// maxSamples bounds the per-datagram sample count accepted by the
// parser; real agents stay near MTU-sized datagrams, far below it.
const maxSamples = 1 << 12

// FlowSample is one packet flow sample (enterprise 0, format 1) with a
// raw-packet-header record.
type FlowSample struct {
	// Seq is the sample sequence number of the data source.
	Seq uint32
	// SourceID identifies the sampling data source (type<<24 | index).
	SourceID uint32
	// Rate is the sampling denominator N (1 in N).
	Rate uint32
	// Pool is the total number of packets that could have been sampled.
	Pool uint32
	// Drops counts samples dropped due to lack of resources.
	Drops uint32
	// Input and Output are interface identifiers. The simulation maps
	// the ingress member ASN onto Input (0 = unknown), the convention
	// ecosystem.TaggedRecord uses for spoofed-packet attribution.
	Input, Output uint32
	// FrameLen is the original frame length before truncation.
	FrameLen uint32
	// Stripped counts bytes removed from the frame before the header
	// was captured (e.g. FCS).
	Stripped uint32
	// Header is the truncated frame (at most the capture snaplen).
	// ParseDatagram copies it out of the input buffer, so the sample
	// owns its bytes.
	Header []byte
}

// Datagram is one sFlow v5 datagram from an IPv4 agent.
type Datagram struct {
	// Agent is the IPv4 address of the sampling agent.
	Agent [4]byte
	// SubAgent distinguishes sampling processes within one agent.
	SubAgent uint32
	// Seq is the datagram sequence number of this (agent, sub-agent).
	Seq uint32
	// Uptime is the agent uptime in milliseconds.
	Uptime uint32
	// Samples are the flow samples in datagram order.
	Samples []FlowSample
}

// AppendDatagram appends the encoded datagram to dst and returns the
// extended slice.
func AppendDatagram(dst []byte, d *Datagram) []byte {
	be := binary.BigEndian
	dst = be.AppendUint32(dst, Version)
	dst = be.AppendUint32(dst, addrTypeIPv4)
	dst = append(dst, d.Agent[:]...)
	dst = be.AppendUint32(dst, d.SubAgent)
	dst = be.AppendUint32(dst, d.Seq)
	dst = be.AppendUint32(dst, d.Uptime)
	dst = be.AppendUint32(dst, uint32(len(d.Samples)))
	for i := range d.Samples {
		dst = appendFlowSample(dst, &d.Samples[i])
	}
	return dst
}

// EncodeDatagram encodes the datagram into a fresh buffer.
func EncodeDatagram(d *Datagram) []byte {
	size := 28
	for i := range d.Samples {
		size += 8 + flowSampleLen(&d.Samples[i])
	}
	return AppendDatagram(make([]byte, 0, size), d)
}

// flowSampleLen is the encoded length of the sample body (after the
// type/length words).
func flowSampleLen(s *FlowSample) int {
	return 32 + 8 + 16 + pad4(len(s.Header))
}

func pad4(n int) int { return (n + 3) &^ 3 }

func appendFlowSample(dst []byte, s *FlowSample) []byte {
	be := binary.BigEndian
	dst = be.AppendUint32(dst, sampleTypeFlow)
	dst = be.AppendUint32(dst, uint32(flowSampleLen(s)))
	dst = be.AppendUint32(dst, s.Seq)
	dst = be.AppendUint32(dst, s.SourceID)
	dst = be.AppendUint32(dst, s.Rate)
	dst = be.AppendUint32(dst, s.Pool)
	dst = be.AppendUint32(dst, s.Drops)
	dst = be.AppendUint32(dst, s.Input)
	dst = be.AppendUint32(dst, s.Output)
	dst = be.AppendUint32(dst, 1) // one flow record
	// Raw packet header record.
	dst = be.AppendUint32(dst, recordRawPacket)
	dst = be.AppendUint32(dst, uint32(16+pad4(len(s.Header))))
	dst = be.AppendUint32(dst, headerProtoEth)
	dst = be.AppendUint32(dst, s.FrameLen)
	dst = be.AppendUint32(dst, s.Stripped)
	dst = be.AppendUint32(dst, uint32(len(s.Header)))
	dst = append(dst, s.Header...)
	for i := len(s.Header); i%4 != 0; i++ {
		dst = append(dst, 0)
	}
	return dst
}

// dgCursor walks a datagram buffer with saturating error handling: the
// first out-of-bounds read poisons the cursor and every later read
// returns zeros, so parse code checks err once per structure.
type dgCursor struct {
	b   []byte
	off int
	err error
}

func (c *dgCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrDatagram, fmt.Sprintf(format, args...))
	}
}

func (c *dgCursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.fail("truncated at offset %d", c.off)
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

// take returns the next n raw bytes (aliasing the buffer).
func (c *dgCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.fail("truncated at offset %d (want %d bytes)", c.off, n)
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

// ParseDatagram decodes one sFlow v5 datagram. Flow samples with a raw
// Ethernet packet header record are returned; other sample and record
// types are skipped. Header bytes are copied out of b: the datagram
// owns its bytes, so callers may reuse the read buffer (the ingestion
// contract that keeps previously parsed samples intact).
func ParseDatagram(b []byte) (*Datagram, error) {
	d := new(Datagram)
	if err := parseDatagram(d, b, true); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseDatagramInto decodes b into d with ParseDatagram's validation
// and errors, but reuses d's sample storage and copies nothing: every
// Header is a view into b, valid while b is. Once d.Samples has grown
// to a datagram's sample count, the decode allocates nothing. After an
// error d holds whatever was decoded before it.
func ParseDatagramInto(d *Datagram, b []byte) error {
	d.Samples = d.Samples[:0]
	return parseDatagram(d, b, false)
}

// parseDatagram is the one decode: own says whether header bytes are
// copied out of b or left as views into it.
func parseDatagram(d *Datagram, b []byte, own bool) error {
	c := &dgCursor{b: b}
	if v := c.u32(); c.err == nil && v != Version {
		return fmt.Errorf("%w: version %d", ErrDatagram, v)
	}
	if at := c.u32(); c.err == nil && at != addrTypeIPv4 {
		// IPv6 agents (type 2) are not produced by the simulation.
		return fmt.Errorf("%w: unsupported agent address type %d", ErrDatagram, at)
	}
	copy(d.Agent[:], c.take(4))
	d.SubAgent = c.u32()
	d.Seq = c.u32()
	d.Uptime = c.u32()
	n := c.u32()
	if c.err != nil {
		return c.err
	}
	if n > maxSamples {
		return fmt.Errorf("%w: %d samples", ErrDatagram, n)
	}
	for i := uint32(0); i < n; i++ {
		typ := c.u32()
		ln := int(c.u32())
		body := c.take(ln)
		if c.err != nil {
			return c.err
		}
		if typ != sampleTypeFlow {
			continue // counter samples etc.: skip via the length field
		}
		d.Samples = append(d.Samples, FlowSample{})
		if err := parseFlowSample(&d.Samples[len(d.Samples)-1], body, own); err != nil {
			return err
		}
	}
	if c.off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrDatagram, len(b)-c.off)
	}
	return nil
}

func parseFlowSample(s *FlowSample, b []byte, own bool) error {
	c := &dgCursor{b: b}
	s.Seq = c.u32()
	s.SourceID = c.u32()
	s.Rate = c.u32()
	s.Pool = c.u32()
	s.Drops = c.u32()
	s.Input = c.u32()
	s.Output = c.u32()
	nrec := c.u32()
	if c.err != nil {
		return c.err
	}
	if nrec > maxSamples {
		return fmt.Errorf("%w: %d flow records", ErrDatagram, nrec)
	}
	got := false
	for i := uint32(0); i < nrec; i++ {
		fmtID := c.u32()
		ln := int(c.u32())
		body := c.take(ln)
		if c.err != nil {
			return c.err
		}
		if fmtID != recordRawPacket || got {
			continue // extended data records: skip
		}
		rc := &dgCursor{b: body}
		proto := rc.u32()
		s.FrameLen = rc.u32()
		s.Stripped = rc.u32()
		hlen := int(rc.u32())
		hdr := rc.take(hlen)
		if rc.err != nil {
			return rc.err
		}
		if rem := len(rc.b) - rc.off; rem != pad4(hlen)-hlen {
			return fmt.Errorf("%w: raw header record padding %d", ErrDatagram, rem)
		}
		if proto != headerProtoEth {
			continue // non-Ethernet header: not ours
		}
		if own {
			s.Header = append([]byte(nil), hdr...)
		} else {
			s.Header = hdr[:hlen:hlen]
		}
		got = true
	}
	if !got {
		return fmt.Errorf("%w: flow sample without raw Ethernet header record", ErrDatagram)
	}
	if c.off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes in flow sample", ErrDatagram, len(b)-c.off)
	}
	return nil
}
