// Package ixp models the IXP capture point: it decodes sampled frames,
// keeps only well-formed DNS-over-UDP packets (the sanitization step of
// §3.1), and annotates each record with the origin AS and the peering-hop
// AS using the routing substrate — the metadata the paper derives from
// RIPE RIS data and IXP member information.
// It owns what sanitization keeps (CheckDNS, Drop, SampleBatch.Count),
// for Process and for the traffic generator; netmodel owns frame
// lengths, dnswire message lengths.
package ixp

import (
	"net/netip"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// DNSSample is one sanitized, annotated DNS packet sample. This is the
// unit the detection pipeline consumes.
type DNSSample struct {
	Time simclock.Time

	// Addresses and ports from the IP/UDP headers.
	Src, Dst         [4]byte
	SrcPort, DstPort uint16
	IPTTL            uint8
	IPID             uint16

	// IsResponse is the DNS QR flag. The "client" of a transaction is
	// the source of queries and the destination of responses.
	IsResponse bool
	// Name is the interned ID of the canonical first question name in
	// the capture point's names.Table. The detection hot path operates
	// on IDs only; QName carries the string for report boundaries.
	Name uint32
	// QName is the canonical first question name. It aliases the
	// interning table's storage, so assigning it never allocates.
	QName string
	// NameGen is the table generation (names.Table.Gen) Name was handed
	// out in. A consumer that releases names checks it: a sample
	// processed before a release carries an ID of the old numbering and
	// re-interns QName, which still reads the name.
	NameGen uint32
	// QType is the first question type.
	QType dnswire.Type
	// TXID is the DNS transaction ID.
	TXID uint16
	// MsgSize is the DNS message size recovered from the UDP length
	// field — valid even for truncated captures.
	MsgSize int
	// ANCount is the answer count announced in the header.
	ANCount uint16
	// VisibleNS counts NS records decodable from the truncated capture
	// (used for the NXNS check, §4.2).
	VisibleNS int
	// RCode of the message.
	RCode dnswire.RCode

	// OriginAS is the AS originating the source address (99% coverage
	// in the paper; 0 when unmapped).
	OriginAS uint32
	// PeerAS is the IXP member whose port carried the packet (96%
	// coverage; 0 when unmapped).
	PeerAS uint32
}

// ClientAddr returns the client side of the transaction: the source of a
// query or the destination of a response.
func (s *DNSSample) ClientAddr() [4]byte {
	if s.IsResponse {
		return s.Dst
	}
	return s.Src
}

// CapturePoint turns raw sampled frames into annotated DNS samples.
type CapturePoint struct {
	Topo *topology.Topology

	// Table is the capture point's name-interning space: every sample
	// it emits carries a Name ID of this table, and every batch it
	// accounts must carry this table. Consumers sharing the capture
	// point (aggregator, collector, window) must use the same table.
	Table *names.Table

	// Stats accumulates sanitization counters.
	Stats CaptureStats

	// qname is the buffer Process scans each question name into.
	qname []byte
	// asCache memoizes origin | peer<<32 per source address: client
	// populations repeat heavily, so routing resolution drops from two
	// longest-prefix walks per packet to one map probe. Entries are
	// never evicted, but insertion stops at asCacheMax entries:
	// synthetic campaigns stay far below it, while replayed or live
	// traffic with high-cardinality spoofed sources (scans, carpet
	// bombing) degrades to direct routing lookups instead of growing
	// without bound.
	asCache map[uint32]uint64

	// _ rounds the struct up to whole 64-byte cache lines (128 bytes).
	// Process writes Stats on every sample: at 112 bytes, a size class
	// that does not divide into whole lines, the live window's capture
	// point cost serve-coarse 12 % more CPU per sample than at 128.
	_ [3]uint64
}

// asCacheMax bounds the AS cache at 2^20 entries: far above any
// synthetic client population, far below an address-sweep's reach.
const asCacheMax = 1 << 20

// originPeer resolves the origin AS and peer-hop member AS of a source
// address through the per-address cache.
func (c *CapturePoint) originPeer(addr [4]byte) (origin, peer uint32) {
	key := uint32(addr[0])<<24 | uint32(addr[1])<<16 | uint32(addr[2])<<8 | uint32(addr[3])
	if v, ok := c.asCache[key]; ok {
		return uint32(v), uint32(v >> 32)
	}
	origin = c.Topo.OriginAS(netip.AddrFrom4(addr))
	peer = c.Topo.MemberFor(origin)
	if c.asCache == nil {
		c.asCache = make(map[uint32]uint64)
	}
	if len(c.asCache) < asCacheMax {
		c.asCache[key] = uint64(origin) | uint64(peer)<<32
	}
	return origin, peer
}

// CaptureStats counts the sanitization pipeline outcomes.
type CaptureStats struct {
	Frames       int // sampled frames seen
	NonUDP       int // dropped: not IPv4/UDP or fragment continuation
	NonDNS       int // dropped: UDP but not port 53 / unparseable DNS
	Malformed    int // dropped: DNS but ill-formed names/types (§3.1's 3%)
	Accepted     int
	OriginMapped int
	PeerMapped   int
}

// Add accumulates another capture point's counters, combining the stats
// of per-worker capture points after a parallel pass.
func (s *CaptureStats) Add(other CaptureStats) {
	s.Frames += other.Frames
	s.NonUDP += other.NonUDP
	s.NonDNS += other.NonDNS
	s.Malformed += other.Malformed
	s.Accepted += other.Accepted
	s.OriginMapped += other.OriginMapped
	s.PeerMapped += other.PeerMapped
}

// NewCapturePoint builds a capture point over the routing substrate,
// interning names into tab (a fresh table when nil).
func NewCapturePoint(topo *topology.Topology, tab *names.Table) *CapturePoint {
	if tab == nil {
		tab = names.NewTable()
	}
	return &CapturePoint{Topo: topo, Table: tab}
}

// Drop is a sanitization outcome: Keep, or the CaptureStats counter a
// dropped frame goes to.
type Drop uint8

// Sanitization outcomes.
const (
	Keep          Drop = iota
	DropNonUDP         // the frame does not decode (netmodel.DecodedPacket.Decode)
	DropNonDNS         // no port 53, or the header or first question is unreadable
	DropMalformed      // the first question's name or type is ill-formed
)

// CheckDNS is §3.1's test of a port-53 UDP payload: it scans the
// message into m, flattening the first question name into buf[:0], and
// says whether the capture point keeps it. m is the caller's, so the
// per-sample path copies the scan once, not through two results.
func CheckDNS(m *dnswire.Scanned, payload, buf []byte) Drop {
	var err error
	switch *m, err = dnswire.Scan(payload, buf); {
	case err != nil:
		return DropNonDNS
	case !dnswire.ValidNameBytes(m.QName) || m.QType == dnswire.TypeNone:
		return DropMalformed
	}
	return Keep
}

// Process sanitizes one sampled record. ok is false when the record is
// not a well-formed DNS-over-UDP packet. The message is scanned, not
// parsed: the frame decodes into a stack packet and the question name
// into the capture point's reused buffer, so a sample whose name the
// table already holds costs no allocation. The returned sample refers
// to neither the frame nor that buffer.
func (c *CapturePoint) Process(rec sflow.Record) (DNSSample, bool) {
	c.Stats.Frames++
	var pkt netmodel.DecodedPacket
	if err := pkt.Decode(rec.Frame); err != nil {
		c.Stats.NonUDP++
		return DNSSample{}, false
	}
	if pkt.UDP.SrcPort != 53 && pkt.UDP.DstPort != 53 {
		c.Stats.NonDNS++
		return DNSSample{}, false
	}
	var m dnswire.Scanned
	drop := CheckDNS(&m, pkt.Payload, c.qname)
	if m.QName != nil {
		c.qname = m.QName // keep the buffer if the scan grew it
	}
	switch drop {
	case DropNonDNS:
		c.Stats.NonDNS++
		return DNSSample{}, false
	case DropMalformed:
		c.Stats.Malformed++
		return DNSSample{}, false
	}
	// A valid scanned name is canonical already: lowercase, dot-ended.
	id := c.Table.InternBytes(m.QName)
	s := DNSSample{
		Time:       rec.Time,
		Src:        pkt.IP.Src.As4(),
		Dst:        pkt.IP.Dst.As4(),
		SrcPort:    pkt.UDP.SrcPort,
		DstPort:    pkt.UDP.DstPort,
		IPTTL:      pkt.IP.TTL,
		IPID:       pkt.IP.ID,
		IsResponse: m.Header.QR,
		Name:       id,
		QName:      c.Table.Name(id),
		NameGen:    c.Table.Gen(),
		QType:      m.QType,
		TXID:       m.Header.ID,
		MsgSize:    pkt.DNSPayloadSize(),
		ANCount:    m.Header.ANCount,
		VisibleNS:  m.NS,
		RCode:      m.Header.RCode,
	}
	if c.Topo != nil {
		s.OriginAS, s.PeerAS = c.originPeer(s.Src)
		if s.OriginAS != 0 {
			c.Stats.OriginMapped++
		}
		if s.PeerAS != 0 {
			c.Stats.PeerMapped++
		}
	}
	c.Stats.Accepted++
	return s, true
}
