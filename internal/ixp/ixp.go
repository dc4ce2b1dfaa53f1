// Package ixp models the IXP capture point: it decodes sampled frames,
// keeps only well-formed DNS-over-UDP packets as rows (the sanitization
// step of §3.1), and measures the rows' origin and peering-hop AS
// coverage — the metadata the paper derives from RIPE RIS data and IXP
// member information. It owns what sanitization keeps (Sanitize,
// CheckDNS, Drop) and the tally of it (FrameCounts), for live capture,
// replay ingest and the traffic generator; netmodel owns frame
// lengths, dnswire message lengths.
package ixp

import (
	"net/netip"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
	"dnsamp/internal/topology"
)

// DNSSample is one sanitized sample as the live window consumes it:
// the row plus the window's view of its name.
type DNSSample struct {
	BatchRecord
	// QName is the canonical first question name. It aliases the
	// interning table's storage, so assigning it never allocates.
	QName string
	// NameGen is the table generation (names.Table.Gen) Name was handed
	// out in. A consumer that releases names checks it: a sample
	// sanitized before a release carries an ID of the old numbering and
	// re-interns QName, which still reads the name.
	NameGen uint32
	// PeerAS is the IXP member whose port carried the packet (0 when
	// unknown). Sanitize leaves it 0, and the window does not read it.
	PeerAS uint32
}

// CapturePoint turns raw sampled frames into sanitized DNS samples
// (Sanitize, Process) and accounts whole batches (RemapBatch).
type CapturePoint struct {
	Topo *topology.Topology

	// Table is the capture point's name-interning space: every sample
	// it emits carries a Name ID of this table, and every batch it
	// accounts must carry this table. Consumers sharing the capture
	// point (aggregator, collector, window) must use the same table.
	Table *names.Table

	// Stats accumulates sanitization counters.
	Stats CaptureStats

	// qname is the buffer Sanitize scans each question name into.
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

// FrameCounts tallies sanitization outcomes, for a batch (SampleBatch)
// and a capture point (CaptureStats); Count moves it frame by frame.
type FrameCounts struct {
	Frames    int `json:"frames"`    // sampled frames seen
	NonUDP    int `json:"nonUDP"`    // dropped: not IPv4/UDP or fragment continuation
	NonDNS    int `json:"nonDNS"`    // dropped: UDP but not port 53 / unparseable DNS
	Malformed int `json:"malformed"` // dropped: DNS but ill-formed names/types (§3.1's 3%)
}

// Count accounts one sampled frame's outcome and reports whether the
// frame is kept.
func (f *FrameCounts) Count(d Drop) bool {
	f.Frames++
	switch d {
	case DropNonUDP:
		f.NonUDP++
	case DropNonDNS:
		f.NonDNS++
	case DropMalformed:
		f.Malformed++
	}
	return d == Keep
}

// Add accumulates another tally.
func (f *FrameCounts) Add(o FrameCounts) {
	f.Frames += o.Frames
	f.NonUDP += o.NonUDP
	f.NonDNS += o.NonDNS
	f.Malformed += o.Malformed
}

// CaptureStats counts the frames, the samples kept and their routing
// coverage.
type CaptureStats struct {
	FrameCounts
	Accepted     int
	OriginMapped int
	PeerMapped   int
}

// Add accumulates another capture point's counters, combining the stats
// of per-worker capture points after a parallel pass.
func (s *CaptureStats) Add(other CaptureStats) {
	s.FrameCounts.Add(other.FrameCounts)
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

// Drop is a sanitization outcome: Keep, or the FrameCounts counter a
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

// Sanitize is §3.1's step for one sampled record: the outcome, which
// the caller counts, and for a kept record its sample in s (Ingress
// and PeerAS 0; a drop leaves s alone). The message is scanned, not
// parsed, into the capture point's reused name buffer, so a sample
// whose name the table holds costs no allocation; s refers to neither
// the frame nor that buffer.
func (c *CapturePoint) Sanitize(rec sflow.Record, s *DNSSample) Drop {
	var pkt netmodel.DecodedPacket
	if err := pkt.Decode(rec.Frame); err != nil {
		return DropNonUDP
	}
	if pkt.UDP.SrcPort != 53 && pkt.UDP.DstPort != 53 {
		return DropNonDNS
	}
	var m dnswire.Scanned
	drop := CheckDNS(&m, pkt.Payload, c.qname)
	if m.QName != nil {
		c.qname = m.QName // keep the buffer if the scan grew it
	}
	if drop != Keep {
		return drop
	}
	// A valid scanned name is canonical already: lowercase, dot-ended.
	id := c.Table.InternBytes(m.QName)
	*s = DNSSample{
		BatchRecord: BatchRecord{
			Time:      rec.Time,
			Src:       pkt.IP.Src.As4(),
			Dst:       pkt.IP.Dst.As4(),
			SrcPort:   pkt.UDP.SrcPort,
			DstPort:   pkt.UDP.DstPort,
			IPTTL:     pkt.IP.TTL,
			IPID:      pkt.IP.ID,
			Resp:      m.Header.QR,
			Name:      id,
			QType:     m.QType,
			TXID:      m.Header.ID,
			MsgSize:   int32(pkt.DNSPayloadSize()),
			ANCount:   m.Header.ANCount,
			VisibleNS: uint16(m.NS),
		},
		QName:   c.Table.Name(id),
		NameGen: c.Table.Gen(),
	}
	return Keep
}

// Process sanitizes one sampled record into the capture point's Stats.
// ok is false when the record is not a well-formed DNS-over-UDP packet.
func (c *CapturePoint) Process(rec sflow.Record) (s DNSSample, ok bool) {
	if ok = c.Stats.Count(c.Sanitize(rec, &s)); ok {
		c.Stats.Accepted++
	}
	return s, ok
}
