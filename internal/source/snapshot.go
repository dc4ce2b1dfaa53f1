// Persisted batch snapshots: a versioned, little-endian, columnar dump
// of a Replay — interning table, per-day ixp.SampleBatch columns with
// their sanitization counters, and the honeypot sensor flows — so a
// source.Record snapshot can be written by one process and served from
// disk by another, byte-identically.
//
// Layout (all integers little-endian):
//
//	magic "dnsampSS" | u32 version
//	table:   u32 count, then per name u32 len + bytes (ID order)
//	days:    u32 count, then per day:
//	  i64 day | u8 hasBatch
//	  batch:  i64 frames/nonUDP/nonDNS/malformed | u32 N | columns,
//	          each written wholesale in declaration order
//	  sensors: u32 count, then per flow its fields (addresses as
//	          len-prefixed netip bytes, names len-prefixed)
//
// Everything serialized is already deterministic (table in ID order,
// days chronological, columns positional), so write → read → write
// reproduces the exact file bytes — the property the cross-process
// golden test pins.
package source

import (
	"errors"
	"fmt"
	"io"

	"dnsamp/internal/binenc"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

var snapMagic = [8]byte{'d', 'n', 's', 'a', 'm', 'p', 'S', 'S'}

const snapVersion = 1

// ErrSnapshot is wrapped by every OpenSnapshot failure: truncation,
// corruption, or a version this build does not speak.
var ErrSnapshot = errors.New("source: invalid snapshot")

// WriteSnapshot serializes the replay — table, day batches, sensor
// flows — to w. Every day's batch is in the replay's interning table
// (AddDay admits no other), so the name IDs written resolve in it.
func (r *Replay) WriteSnapshot(w io.Writer) error {
	e := binenc.NewEncoder(w)
	e.Raw(snapMagic[:])
	e.U32(snapVersion)

	e.U32(uint32(r.tab.Len()))
	for id := range r.tab.Len() {
		e.Str(r.tab.Name(uint32(id)))
	}

	e.U32(uint32(len(r.days)))
	for _, day := range r.days {
		rd := r.byDay[day]
		e.I64(int64(day))
		if b := rd.batch; b == nil {
			e.U8(0)
		} else {
			e.U8(1)
			e.I64(int64(b.Frames))
			e.I64(int64(b.NonUDP))
			e.I64(int64(b.NonDNS))
			e.I64(int64(b.Malformed))
			e.U32(uint32(b.N))
			for i := 0; i < b.N; i++ {
				e.I64(int64(b.Time[i]))
			}
			for i := 0; i < b.N; i++ {
				e.Raw(b.Src[i][:])
			}
			for i := 0; i < b.N; i++ {
				e.Raw(b.Dst[i][:])
			}
			for i := 0; i < b.N; i++ {
				e.U16(b.SrcPort[i])
			}
			for i := 0; i < b.N; i++ {
				e.U16(b.DstPort[i])
			}
			for i := 0; i < b.N; i++ {
				e.U8(b.IPTTL[i])
			}
			for i := 0; i < b.N; i++ {
				e.U16(b.IPID[i])
			}
			for i := 0; i < b.N; i++ {
				e.Bool(b.Resp[i])
			}
			for i := 0; i < b.N; i++ {
				e.U32(b.Name[i])
			}
			for i := 0; i < b.N; i++ {
				e.U16(uint16(b.QType[i]))
			}
			for i := 0; i < b.N; i++ {
				e.U16(b.TXID[i])
			}
			for i := 0; i < b.N; i++ {
				e.U32(uint32(b.MsgSize[i]))
			}
			for i := 0; i < b.N; i++ {
				e.U16(b.ANCount[i])
			}
			for i := 0; i < b.N; i++ {
				e.U16(b.VisibleNS[i])
			}
			for i := 0; i < b.N; i++ {
				e.U32(b.Ingress[i])
			}
		}
		e.U32(uint32(len(rd.sensors)))
		for _, sf := range rd.sensors {
			e.I64(int64(sf.Sensor))
			e.Addr(sf.Victim)
			e.I64(int64(sf.Start))
			e.I64(int64(sf.Duration))
			e.I64(int64(sf.Count))
			e.Str(sf.QName)
			e.U16(uint16(sf.QType))
			e.U16(sf.TXID)
			e.I64(int64(sf.EventID))
		}
	}
	return e.Flush()
}

// allocCap bounds the up-front capacity of a snapshot column or table:
// a claimed element count only guides preallocation up to this limit,
// and larger claims grow by append as elements actually arrive off the
// stream — so a corrupt count costs at most the bytes the input really
// contains, never the memory it promises.
const allocCap = 1 << 16

// cappedCap is the initial capacity for a slice expecting n elements.
func cappedCap(n int) int {
	if n > allocCap {
		return allocCap
	}
	return n
}

// OpenSnapshot reads a snapshot produced by WriteSnapshot and rebuilds
// the Replay: a fresh interning table with the recorded ID order, and
// per-day batches the replay owns. The input is decoded as a stream —
// a multi-gigabyte snapshot is never buffered wholesale — and malformed
// input (truncation, a bad magic, inconsistent counts) yields an
// ErrSnapshot-wrapped error, never a panic.
func OpenSnapshot(rd io.Reader) (*Replay, error) {
	d := binenc.NewStreamDecoder(rd, ErrSnapshot)
	var magic [8]byte
	d.RawInto(magic[:])
	if d.Err() == nil && magic != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshot)
	}
	if v := d.U32(); d.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("%w: version %d (this build speaks %d)", ErrSnapshot, v, snapVersion)
	}

	nNames := d.Count(4) // a name costs at least its u32 length prefix
	tab := names.NewTable()
	tab.Reserve(cappedCap(nNames))
	for i := 0; i < nNames && d.Err() == nil; i++ {
		s := d.Str()
		if d.Err() != nil {
			break
		}
		if id := tab.Intern(s); int(id) != i {
			return nil, fmt.Errorf("%w: duplicate table name at ID %d", ErrSnapshot, i)
		}
	}

	r := NewReplay(tab)
	nDays := d.Count(13)
	for i := 0; i < nDays && d.Err() == nil; i++ {
		day := simclock.Time(d.I64())
		var b *ixp.SampleBatch
		if d.U8() == 1 {
			b = &ixp.SampleBatch{Table: tab}
			b.Frames = int(d.I64())
			b.NonUDP = int(d.I64())
			b.NonDNS = int(d.I64())
			b.Malformed = int(d.I64())
			// A record costs 44 bytes across all columns (8 time, 4+4
			// addresses, 2+2 ports, 1 TTL, 2 IPID, 1 resp, 4 name,
			// 2 qtype, 2 txid, 4 size, 2 ancount, 2 visibleNS,
			// 4 ingress).
			n := d.Count(44)
			if d.Err() != nil {
				break
			}
			b.N = n
			b.Time = make([]simclock.Time, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.Time = append(b.Time, simclock.Time(d.I64()))
			}
			b.Src = make([][4]byte, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				var a [4]byte
				d.RawInto(a[:])
				b.Src = append(b.Src, a)
			}
			b.Dst = make([][4]byte, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				var a [4]byte
				d.RawInto(a[:])
				b.Dst = append(b.Dst, a)
			}
			b.SrcPort = make([]uint16, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.SrcPort = append(b.SrcPort, d.U16())
			}
			b.DstPort = make([]uint16, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.DstPort = append(b.DstPort, d.U16())
			}
			b.IPTTL = make([]uint8, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.IPTTL = append(b.IPTTL, d.U8())
			}
			b.IPID = make([]uint16, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.IPID = append(b.IPID, d.U16())
			}
			b.Resp = make([]bool, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.Resp = append(b.Resp, d.Bool())
			}
			b.Name = make([]uint32, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				id := d.U32()
				if d.Err() == nil && int(id) >= tab.Len() {
					return nil, fmt.Errorf("%w: name ID %d outside the %d-entry table", ErrSnapshot, id, tab.Len())
				}
				b.Name = append(b.Name, id)
			}
			b.QType = make([]dnswire.Type, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.QType = append(b.QType, dnswire.Type(d.U16()))
			}
			b.TXID = make([]uint16, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.TXID = append(b.TXID, d.U16())
			}
			b.MsgSize = make([]int32, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.MsgSize = append(b.MsgSize, int32(d.U32()))
			}
			b.ANCount = make([]uint16, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.ANCount = append(b.ANCount, d.U16())
			}
			b.VisibleNS = make([]uint16, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.VisibleNS = append(b.VisibleNS, d.U16())
			}
			b.Ingress = make([]uint32, 0, cappedCap(n))
			for j := 0; j < n && d.Err() == nil; j++ {
				b.Ingress = append(b.Ingress, d.U32())
			}
		}
		// A sensor flow costs at least 49 bytes (8 sensor, 1 addr tag,
		// 8+8 start/duration, 8 count, 4 qname prefix, 2+2 qtype/txid,
		// 8 event ID).
		nSens := d.Count(49)
		var sensors []ecosystem.SensorFlow
		if nSens > 0 {
			sensors = make([]ecosystem.SensorFlow, 0, cappedCap(nSens))
		}
		for j := 0; j < nSens && d.Err() == nil; j++ {
			var sf ecosystem.SensorFlow
			sf.Sensor = int(d.I64())
			sf.Victim = d.Addr()
			sf.Start = simclock.Time(d.I64())
			sf.Duration = simclock.Duration(d.I64())
			sf.Count = int(d.I64())
			sf.QName = d.Str()
			sf.QType = dnswire.Type(d.U16())
			sf.TXID = d.U16()
			sf.EventID = int(d.I64())
			sensors = append(sensors, sf)
		}
		if d.Err() != nil {
			break
		}
		if _, dup := r.byDay[day.StartOfDay()]; dup {
			return nil, fmt.Errorf("%w: duplicate day %s", ErrSnapshot, day.Date())
		}
		r.AddDay(day, b, sensors)
		// Snapshot batches are rebuilt in the replay's own table, so a
		// later AddFrames may keep accumulating into them.
		r.byDay[day.StartOfDay()].owned = b != nil
	}
	d.ExpectEOF()
	if d.Err() != nil {
		return nil, d.Err()
	}
	return r, nil
}
