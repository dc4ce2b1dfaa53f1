package ixp

import (
	"fmt"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// SampleBatch is one day of sampled DNS traffic: its rows, with query
// names as IDs into Table. A batch is only ever consumed in that
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
	// Table is the interning space of the rows' Name IDs: the source's
	// table (source.Source.Table), shared by every batch of a run.
	Table *names.Table

	// N is the record count, len(Rows).
	N int

	Rows []BatchRecord

	// FrameCounts tallies the frames behind the rows, the dropped ones
	// too (N = Frames - NonUDP - NonDNS - Malformed).
	FrameCounts
}

// Reset empties the batch for reuse in table, keeping the rows'
// capacity: a producer that fills one batch day after day allocates
// its rows once.
func (b *SampleBatch) Reset(table *names.Table) {
	*b = SampleBatch{Table: table, Rows: b.Rows[:0]}
}

// Grow preallocates room for n additional records: exactly n on the
// first growth, and when the rows must move, at least a quarter more
// room than they had, so a batch refilled day after day moves a few
// times, not at every new largest day.
func (b *SampleBatch) Grow(n int) {
	want := b.N + n
	if n <= 0 || cap(b.Rows) >= want {
		return
	}
	want = max(want, cap(b.Rows)+cap(b.Rows)/4)
	b.Rows = append(make([]BatchRecord, 0, want), b.Rows...)
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
	b.Rows = append(b.Rows, r)
	b.N++
}

// RemapBatch accounts a batch for batch-native consumers
// (core.Aggregator.ObserveBatch, core.Collector.ObserveBatch): it adds
// the batch's tally and returns the batch. It translates nothing: a run
// has one name table, so a batch in any other table than the capture
// point's is a wiring bug inside the program and panics.
func (c *CapturePoint) RemapBatch(b *SampleBatch) *SampleBatch {
	if b == nil {
		return nil
	}
	if b.Table != c.Table {
		panic(fmt.Sprintf("ixp: batch in a foreign name table (%d names) handed to a capture point over a %d-name table", b.Table.Len(), c.Table.Len()))
	}
	c.Stats.FrameCounts.Add(b.FrameCounts)
	c.Stats.Accepted += b.N
	return b
}
