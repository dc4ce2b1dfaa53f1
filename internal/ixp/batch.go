package ixp

import (
	"fmt"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// SampleBatch is one day of sampled DNS traffic in columnar
// (struct-of-arrays) form: one slice per field, indexed 0..N-1, with
// query names as IDs into Table. A batch is only ever consumed in that
// table: the capture point that accounts it and the aggregator or
// collector that observes it carry the same *names.Table (RemapBatch
// refuses a batch that does not). The traffic generator emits batches
// instead of per-packet frame records, so the steady-state synthesis
// and consumption loops allocate nothing per packet.
//
// Every record in a batch is already well-formed DNS-over-UDP: the
// generator sanitizes at emission time — frame lengths through
// netmodel.DecodeLengths, the payload prefix through CheckDNS — and
// accounts every frame with Count, so a batch holds, row for row, what
// its frame-level twin yields through CapturePoint.Sanitize and Append.
type SampleBatch struct {
	// Table is the interning space of the Name column: the source's
	// table (source.Source.Table), shared by every batch of a run.
	Table *names.Table

	// N is the record count; every column has length N.
	N int

	Time      []simclock.Time
	Src, Dst  [][4]byte
	SrcPort   []uint16
	DstPort   []uint16
	IPTTL     []uint8
	IPID      []uint16
	Resp      []bool
	Name      []uint32
	QType     []dnswire.Type
	TXID      []uint16
	MsgSize   []int32
	ANCount   []uint16
	VisibleNS []uint16
	Ingress   []uint32

	// FrameCounts tallies the frames behind the rows, the dropped ones
	// too (N = Frames - NonUDP - NonDNS - Malformed).
	FrameCounts
}

// Client is row i's client (BatchRecord.Client).
func (b *SampleBatch) Client(i int) [4]byte {
	if b.Resp[i] {
		return b.Dst[i]
	}
	return b.Src[i]
}

// Reset empties the batch for reuse in table, keeping every column's
// capacity: a producer that fills one batch day after day allocates
// its columns once.
func (b *SampleBatch) Reset(table *names.Table) {
	*b = SampleBatch{
		Table:     table,
		Time:      b.Time[:0],
		Src:       b.Src[:0],
		Dst:       b.Dst[:0],
		SrcPort:   b.SrcPort[:0],
		DstPort:   b.DstPort[:0],
		IPTTL:     b.IPTTL[:0],
		IPID:      b.IPID[:0],
		Resp:      b.Resp[:0],
		Name:      b.Name[:0],
		QType:     b.QType[:0],
		TXID:      b.TXID[:0],
		MsgSize:   b.MsgSize[:0],
		ANCount:   b.ANCount[:0],
		VisibleNS: b.VisibleNS[:0],
		Ingress:   b.Ingress[:0],
	}
}

// Grow preallocates all columns for n additional records. Columns that
// must move get at least a quarter more room than they had, so a batch
// refilled day after day moves a few times, not at every new largest
// day.
func (b *SampleBatch) Grow(n int) {
	if n <= 0 {
		return
	}
	want := b.N + n
	if cap(b.Time) >= want {
		return
	}
	want = max(want, cap(b.Time)+cap(b.Time)/4)
	grow := func() int { return want }
	b.Time = append(make([]simclock.Time, 0, grow()), b.Time...)
	b.Src = append(make([][4]byte, 0, grow()), b.Src...)
	b.Dst = append(make([][4]byte, 0, grow()), b.Dst...)
	b.SrcPort = append(make([]uint16, 0, grow()), b.SrcPort...)
	b.DstPort = append(make([]uint16, 0, grow()), b.DstPort...)
	b.IPTTL = append(make([]uint8, 0, grow()), b.IPTTL...)
	b.IPID = append(make([]uint16, 0, grow()), b.IPID...)
	b.Resp = append(make([]bool, 0, grow()), b.Resp...)
	b.Name = append(make([]uint32, 0, grow()), b.Name...)
	b.QType = append(make([]dnswire.Type, 0, grow()), b.QType...)
	b.TXID = append(make([]uint16, 0, grow()), b.TXID...)
	b.MsgSize = append(make([]int32, 0, grow()), b.MsgSize...)
	b.ANCount = append(make([]uint16, 0, grow()), b.ANCount...)
	b.VisibleNS = append(make([]uint16, 0, grow()), b.VisibleNS...)
	b.Ingress = append(make([]uint32, 0, grow()), b.Ingress...)
}

// BatchRecord is one sanitized sample: a batch's row.
type BatchRecord struct {
	Time      simclock.Time
	Src, Dst  [4]byte
	SrcPort   uint16
	DstPort   uint16
	IPTTL     uint8
	IPID      uint16
	Resp      bool   // the DNS QR flag
	Name      uint32 // first question name, an ID in the batch's Table
	QType     dnswire.Type
	TXID      uint16
	MsgSize   int32 // from the UDP length field: valid for truncated captures
	ANCount   uint16
	VisibleNS uint16 // NS records decodable from the truncated capture (§4.2's NXNS check)
	// Ingress is the member ASN whose port carried the packet, for
	// spoofed packets that cannot be attributed by source address
	// (0 = derive from the source address).
	Ingress uint32
}

// Client returns the client side of the transaction: the querier of a
// query, the destination of a response.
func (r *BatchRecord) Client() [4]byte {
	if r.Resp {
		return r.Dst
	}
	return r.Src
}

// Append adds one record to the batch.
func (b *SampleBatch) Append(r BatchRecord) {
	b.Time = append(b.Time, r.Time)
	b.Src = append(b.Src, r.Src)
	b.Dst = append(b.Dst, r.Dst)
	b.SrcPort = append(b.SrcPort, r.SrcPort)
	b.DstPort = append(b.DstPort, r.DstPort)
	b.IPTTL = append(b.IPTTL, r.IPTTL)
	b.IPID = append(b.IPID, r.IPID)
	b.Resp = append(b.Resp, r.Resp)
	b.Name = append(b.Name, r.Name)
	b.QType = append(b.QType, r.QType)
	b.TXID = append(b.TXID, r.TXID)
	b.MsgSize = append(b.MsgSize, r.MsgSize)
	b.ANCount = append(b.ANCount, r.ANCount)
	b.VisibleNS = append(b.VisibleNS, r.VisibleNS)
	b.Ingress = append(b.Ingress, r.Ingress)
	b.N++
}

// RemapBatch accounts a columnar batch for batch-native consumers
// (core.Aggregator.ObserveBatch, core.Collector.ObserveBatch): it adds
// the batch's tally and, over a routing substrate, its rows' routing
// coverage (origin/peer mapping, through the per-address AS cache; no
// other code counts it), and returns the batch. It translates
// nothing: a run has one name table, so a batch in any other table than
// the capture point's is a wiring bug inside the program and panics.
func (c *CapturePoint) RemapBatch(b *SampleBatch) *SampleBatch {
	if b == nil {
		return nil
	}
	if b.Table != c.Table {
		panic(fmt.Sprintf("ixp: batch in a foreign name table (%d names) handed to a capture point over a %d-name table", b.Table.Len(), c.Table.Len()))
	}
	c.Stats.FrameCounts.Add(b.FrameCounts)
	c.Stats.Accepted += b.N
	if c.Topo != nil {
		for _, src := range b.Src[:b.N] {
			origin, peer := c.originPeer(src)
			if origin != 0 {
				c.Stats.OriginMapped++
			}
			if peer != 0 {
				c.Stats.PeerMapped++
			}
		}
	}
	return b
}
