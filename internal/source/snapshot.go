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

	r.tab.Encode(e)

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

// OpenSnapshot reads a snapshot produced by WriteSnapshot and rebuilds
// the Replay: a fresh interning table with the recorded ID order, and
// per-day batches the replay owns. The input is decoded from the reader
// — a multi-gigabyte snapshot is never buffered wholesale — and every
// claimed count is allocated by binenc's rule, so a corrupt count costs
// at most the bytes the input really contains. Malformed input
// (truncation, a bad magic, inconsistent counts) yields an
// ErrSnapshot-wrapped error, never a panic.
func OpenSnapshot(rd io.Reader) (*Replay, error) {
	d := binenc.NewReaderDecoder(rd, ErrSnapshot)
	if m := d.Raw(8); m != nil && [8]byte(m) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshot)
	}
	if v := d.U32(); d.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("%w: version %d (this build speaks %d)", ErrSnapshot, v, snapVersion)
	}

	tab := names.NewTable()
	tab.Decode(d)
	if d.Err() == nil {
		ecosystem.AdoptNamespace(tab)
	}

	addr4 := func() (a [4]byte) {
		copy(a[:], d.Raw(4))
		return a
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
			b.N = n
			b.Time = binenc.Slice(d, n, func() simclock.Time { return simclock.Time(d.I64()) })
			b.Src = binenc.Slice(d, n, addr4)
			b.Dst = binenc.Slice(d, n, addr4)
			b.SrcPort = binenc.Slice(d, n, d.U16)
			b.DstPort = binenc.Slice(d, n, d.U16)
			b.IPTTL = binenc.Slice(d, n, d.U8)
			b.IPID = binenc.Slice(d, n, d.U16)
			b.Resp = binenc.Slice(d, n, d.Bool)
			b.Name = binenc.Slice(d, n, func() uint32 {
				id := d.U32()
				if int(id) >= tab.Len() {
					d.Fail("name ID %d outside the %d-entry table", id, tab.Len())
				}
				return id
			})
			b.QType = binenc.Slice(d, n, func() dnswire.Type { return dnswire.Type(d.U16()) })
			b.TXID = binenc.Slice(d, n, d.U16)
			b.MsgSize = binenc.Slice(d, n, func() int32 { return int32(d.U32()) })
			b.ANCount = binenc.Slice(d, n, d.U16)
			b.VisibleNS = binenc.Slice(d, n, d.U16)
			b.Ingress = binenc.Slice(d, n, d.U32)
		}
		// A sensor flow costs at least 49 bytes (8 sensor, 1 addr tag,
		// 8+8 start/duration, 8 count, 4 qname prefix, 2+2 qtype/txid,
		// 8 event ID).
		sensors := binenc.Slice(d, d.Count(49), func() ecosystem.SensorFlow {
			return ecosystem.SensorFlow{
				Sensor:   int(d.I64()),
				Victim:   d.Addr(),
				Start:    simclock.Time(d.I64()),
				Duration: simclock.Duration(d.I64()),
				Count:    int(d.I64()),
				QName:    d.Str(),
				QType:    dnswire.Type(d.U16()),
				TXID:     d.U16(),
				EventID:  int(d.I64()),
			}
		})
		if d.Err() != nil {
			break
		}
		if _, dup := r.byDay[day.StartOfDay()]; dup {
			return nil, fmt.Errorf("%w: duplicate day %s", ErrSnapshot, day.Date())
		}
		r.AddDay(day, b, sensors)
		// Snapshot batches are rebuilt in the replay's own table, so a
		// later ingestion may keep accumulating into them.
		r.byDay[day.StartOfDay()].owned = b != nil
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}
