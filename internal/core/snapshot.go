// Aggregator checkpointing: a full binary dump of the streaming pass-1
// state — global counters, the dense per-name stats column, the tracked
// universe, and the client-day arena with every profile's tracked-name
// counts, written as a list of ascending IDs after the profile — so a
// live consumer (the service's window)
// can persist its detection state and resume after a crash with
// byte-identical behaviour. The interning table is serialized by the
// caller (it is shared with the capture point), so the snapshot here is
// pure ID-space state.
package core

import (
	"fmt"

	"dnsamp/internal/binenc"
	"dnsamp/internal/simclock"
)

// WriteSnapshot serializes the aggregator's complete state (except the
// Table, which the caller owns and serializes alongside) to e. The
// rebuilt-on-load indexes and the Detect scratch columns are derived
// state and not written. The tracked rows are grouped by slot, IDs
// ascending, by counting passes (pairTable.bySlot), so the bytes do not
// depend on the order the rows were observed in.
func (ag *Aggregator) WriteSnapshot(e *binenc.Encoder) {
	e.Bool(ag.trackAll)
	e.U32(uint32(len(ag.tracked)))
	for _, t := range ag.tracked {
		e.Bool(t)
	}

	e.I64(int64(ag.Samples))
	e.I64(int64(ag.Requests))
	e.I64(int64(ag.TotalBytes))
	e.I64(int64(ag.ANYPackets))
	e.I64(int64(ag.ANYBytes))

	e.U32(uint32(len(ag.names)))
	for i := range ag.names {
		ns := &ag.names[i]
		e.I64(int64(ns.MaxSize))
		e.I64(int64(ns.ANYPackets))
		e.I64(int64(ns.Packets))
	}

	order, start := ag.pairs.bySlot(ag.n, ag.Table.Len())
	e.U32(uint32(ag.n))
	for s := range uint32(ag.n) {
		k := ag.keyAt(s)
		e.Raw(k.Client[:])
		e.I64(int64(k.Day))
		ca := ag.at(s)
		e.I64(int64(ca.Total))
		e.I64(int64(ca.Bytes))
		e.I64(int64(ca.ANYPackets))
		e.I64(int64(ca.ANYBytes))
		e.I64(int64(ca.First))
		e.I64(int64(ca.Last))
		rows := order[start[s]:start[s+1]]
		e.U32(uint32(len(rows)))
		for _, r := range rows {
			e.U32(ag.pairs.rows[r].id)
			e.I64(int64(ag.pairs.rows[r].n))
		}
	}
}

// ReadSnapshot restores the state WriteSnapshot wrote into ag, which
// must be freshly constructed over the table the snapshot's name IDs
// live in. The client index is rebuilt deterministically from the
// restored arena, so a restored aggregator continues exactly where the
// snapshotted one stopped. Malformed input yields an error from the
// decoder's sentinel space, never a panic.
func (ag *Aggregator) ReadSnapshot(d *binenc.Decoder) error {
	ag.trackAll = d.Bool()
	ag.tracked = binenc.Slice(d, d.Count(1), d.Bool)

	ag.Samples = int(d.I64())
	ag.Requests = int(d.I64())
	ag.TotalBytes = int(d.I64())
	ag.ANYPackets = int(d.I64())
	ag.ANYBytes = int(d.I64())

	// A NameStats entry costs 24 bytes; a client-day slot at least 64
	// (4+8 key, 6×8 fields, 4 tracked count).
	ag.names = binenc.Slice(d, d.Count(24), func() NameStats {
		return NameStats{MaxSize: int(d.I64()), ANYPackets: int(d.I64()), Packets: int(d.I64())}
	})
	if len(ag.names) > 0 && ag.Table.Len() < len(ag.names) {
		return fmt.Errorf("core: snapshot has %d name entries but the table holds %d names", len(ag.names), ag.Table.Len())
	}

	// The arena grows chunk by chunk as entries decode, so a count the
	// bytes cannot back fails before it allocates much.
	nClients := d.Count(64)
	for i := 0; i < nClients && d.Err() == nil; i++ {
		var k ClientDay
		copy(k.Client[:], d.Raw(4))
		k.Day = int(d.I64())
		slot := ag.push(k)
		ca := ag.at(slot)
		ca.Total = int(d.I64())
		ca.Bytes = int(d.I64())
		ca.ANYPackets = int(d.I64())
		ca.ANYBytes = int(d.I64())
		ca.First = simclock.Time(d.I64())
		ca.Last = simclock.Time(d.I64())
		// A tracked entry costs 12 bytes (u32 ID + i64 count). The list
		// must be what WriteSnapshot writes — strictly increasing IDs of
		// names in the table — so each entry is one new row.
		nt := d.Count(12)
		prev := uint32(0)
		for j := 0; j < nt && d.Err() == nil; j++ {
			id, n := d.U32(), int(d.I64())
			switch {
			case int(id) >= ag.Table.Len():
				d.Fail("tracked name ID %d outside the %d-name table", id, ag.Table.Len())
			case j > 0 && id <= prev:
				d.Fail("tracked name IDs not strictly increasing (%d after %d)", id, prev)
			default:
				ag.pairs.add(slot, id, n)
			}
			prev = id
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	ag.rebuildIndex(indexSizeFor(ag.n))
	return nil
}
