// Persisted batch snapshots: a versioned, little-endian, column-major
// dump of a Replay — interning table, per-day ixp.SampleBatch rows with
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
//	  batch:  i64 frames/nonUDP/nonDNS/malformed | u32 N | the rows
//	          column-major: one column per ixp.BatchRecord field, in
//	          declaration order (rowFields), each written wholesale
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
			for _, f := range rowFields {
				for i := range b.Rows {
					f.put(e, &b.Rows[i])
				}
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
			// The first column's values grow the rows by Slice's rule.
			// get is a func value, so the row it fills escapes: one a
			// day, not one a row.
			var first row
			b.Rows = binenc.Slice(d, d.Count(rowBytes), func() row {
				rowFields[0].get(d, &first)
				return first
			})
			for _, f := range rowFields[1:] {
				for j := range b.Rows {
					f.get(d, &b.Rows[j])
				}
			}
			for j := range b.Rows {
				if id := b.Rows[j].Name; int(id) >= tab.Len() {
					d.Fail("name ID %d outside the %d-entry table", id, tab.Len())
					break
				}
			}
			b.N = len(b.Rows)
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

// rowFields is a batch row's snapshot layout: one column codec per
// ixp.BatchRecord field, in declaration order. A snapshot writes a
// day's rows column by column, each column wholesale.
var rowFields = [...]struct {
	put func(*enc, *row)
	get func(*dec, *row)
}{
	{func(e *enc, r *row) { e.I64(int64(r.Time)) }, func(d *dec, r *row) { r.Time = simclock.Time(d.I64()) }},
	{func(e *enc, r *row) { e.Raw(r.Src[:]) }, func(d *dec, r *row) { copy(r.Src[:], d.Raw(4)) }},
	{func(e *enc, r *row) { e.Raw(r.Dst[:]) }, func(d *dec, r *row) { copy(r.Dst[:], d.Raw(4)) }},
	{func(e *enc, r *row) { e.U16(r.SrcPort) }, func(d *dec, r *row) { r.SrcPort = d.U16() }},
	{func(e *enc, r *row) { e.U16(r.DstPort) }, func(d *dec, r *row) { r.DstPort = d.U16() }},
	{func(e *enc, r *row) { e.U8(r.IPTTL) }, func(d *dec, r *row) { r.IPTTL = d.U8() }},
	{func(e *enc, r *row) { e.U16(r.IPID) }, func(d *dec, r *row) { r.IPID = d.U16() }},
	{func(e *enc, r *row) { e.Bool(r.Resp) }, func(d *dec, r *row) { r.Resp = d.Bool() }},
	{func(e *enc, r *row) { e.U32(r.Name) }, func(d *dec, r *row) { r.Name = d.U32() }},
	{func(e *enc, r *row) { e.U16(uint16(r.QType)) }, func(d *dec, r *row) { r.QType = dnswire.Type(d.U16()) }},
	{func(e *enc, r *row) { e.U16(r.TXID) }, func(d *dec, r *row) { r.TXID = d.U16() }},
	{func(e *enc, r *row) { e.U32(uint32(r.MsgSize)) }, func(d *dec, r *row) { r.MsgSize = int32(d.U32()) }},
	{func(e *enc, r *row) { e.U16(r.ANCount) }, func(d *dec, r *row) { r.ANCount = d.U16() }},
	{func(e *enc, r *row) { e.U16(r.VisibleNS) }, func(d *dec, r *row) { r.VisibleNS = d.U16() }},
	{func(e *enc, r *row) { e.U32(r.Ingress) }, func(d *dec, r *row) { r.Ingress = d.U32() }},
}

// The shorthand of rowFields' entries.
type (
	enc = binenc.Encoder
	dec = binenc.Decoder
	row = ixp.BatchRecord
)

// rowBytes is what rowFields write per row: 8 time, 4+4 addresses,
// 2+2 ports, 1 TTL, 2 IPID, 1 resp, 4 name, 2 qtype, 2 txid, 4 size,
// 2 ancount, 2 visibleNS, 4 ingress.
const rowBytes = 44
