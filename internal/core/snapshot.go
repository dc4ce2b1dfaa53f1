// Aggregator checkpointing: a full binary dump of the streaming pass-1
// state — global counters, the dense per-name stats column, the tracked
// universe, and the client-day arena including every profile's
// tracked-name list — so a live consumer (the service's window)
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
// rebuilt-on-load client index and the Detect scratch columns are
// derived state and not written.
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
		e.U32(uint32(len(ca.Tracked)))
		for _, tc := range ca.Tracked {
			e.U32(tc.ID)
			e.I64(int64(tc.N))
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
	if n := d.Count(1); n > 0 {
		ag.tracked = make([]bool, n)
		for i := range ag.tracked {
			ag.tracked[i] = d.Bool()
		}
	}

	ag.Samples = int(d.I64())
	ag.Requests = int(d.I64())
	ag.TotalBytes = int(d.I64())
	ag.ANYPackets = int(d.I64())
	ag.ANYBytes = int(d.I64())

	// A NameStats entry costs 24 bytes; a client-day slot at least 64
	// (4+8 key, 6×8 fields, 4 tracked count).
	nNames := d.Count(24)
	ag.names = make([]NameStats, nNames)
	for i := range ag.names {
		ns := &ag.names[i]
		ns.MaxSize = int(d.I64())
		ns.ANYPackets = int(d.I64())
		ns.Packets = int(d.I64())
	}
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
		ca := ag.at(ag.push(k))
		ca.Total = int(d.I64())
		ca.Bytes = int(d.I64())
		ca.ANYPackets = int(d.I64())
		ca.ANYBytes = int(d.I64())
		ca.First = simclock.Time(d.I64())
		ca.Last = simclock.Time(d.I64())
		// A tracked entry costs 12 bytes (u32 ID + i64 count). The list
		// must be what addTracked keeps — strictly increasing IDs of
		// names in the table — since its binary search relies on it.
		nt := d.Count(12)
		if nt > 0 {
			ca.Tracked = make([]NameCount, nt)
			for j := 0; j < nt && d.Err() == nil; j++ {
				tc := &ca.Tracked[j]
				tc.ID = d.U32()
				tc.N = int(d.I64())
				switch {
				case int(tc.ID) >= ag.Table.Len():
					d.Fail("tracked name ID %d outside the %d-name table", tc.ID, ag.Table.Len())
				case j > 0 && tc.ID <= ca.Tracked[j-1].ID:
					d.Fail("tracked name IDs not strictly increasing (%d after %d)", tc.ID, ca.Tracked[j-1].ID)
				}
			}
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	ag.rebuildIndex(indexSizeFor(ag.n))
	return nil
}
