// Package binenc is the shared little-endian binary codec behind the
// repo's persisted artifacts: the columnar batch snapshots
// (internal/source) and the service checkpoints (internal/server,
// internal/core) serialize through the same Encoder/Decoder pair, so
// every on-disk format inherits the same properties — deterministic
// byte layout, error latching on the first failed write, and
// saturating bounds checks on read (corrupt counts fail cleanly
// instead of allocating unbounded memory or panicking).
package binenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
)

// Encoder writes fixed-layout little-endian values, latching the first
// write error. Construct with NewEncoder; call Flush once after the
// last value.
type Encoder struct {
	w   *bufio.Writer
	err error
	tmp [8]byte
}

// NewEncoder wraps w in a buffered little-endian value writer.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 1<<16)}
}

// Flush drains the buffer and returns the latched error, if any.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Raw writes b verbatim.
func (e *Encoder) Raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) {
	if e.err == nil {
		e.err = e.w.WriteByte(v)
	}
}

// Bool writes a bool as one byte (1 true, 0 false).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (e *Encoder) U16(v uint16) {
	binary.LittleEndian.PutUint16(e.tmp[:2], v)
	e.Raw(e.tmp[:2])
}

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	binary.LittleEndian.PutUint32(e.tmp[:4], v)
	e.Raw(e.tmp[:4])
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], v)
	e.Raw(e.tmp[:8])
}

// I64 writes a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 writes a float64 as its IEEE 754 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str writes a u32 length prefix followed by the string bytes.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// Addr writes a netip.Addr as a length-prefixed byte form (0 for the
// zero Addr, 4 for IPv4, 16 for IPv6).
func (e *Encoder) Addr(a netip.Addr) {
	switch {
	case !a.IsValid():
		e.U8(0)
	case a.Is4():
		b := a.As4()
		e.U8(4)
		e.Raw(b[:])
	default:
		b := a.As16()
		e.U8(16)
		e.Raw(b[:])
	}
}

// Decoder reads the Encoder's layout back out of one in-memory buffer
// with saturating bounds checks: the first short read poisons the
// decoder, and every later read returns zero values. Errors wrap the
// sentinel the decoder was constructed with (so each file format keeps
// its own errors.Is identity).
type Decoder struct {
	b        []byte
	off      int
	err      error
	sentinel error
}

// NewDecoder returns a decoder over b whose errors wrap sentinel.
func NewDecoder(b []byte, sentinel error) *Decoder {
	return &Decoder{b: b, sentinel: sentinel}
}

// Err returns the latched decode error, nil while healthy.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Fail latches a decode error (wrapping the sentinel) unless one is
// already set.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", d.sentinel, fmt.Sprintf(format, args...), d.off)
	}
}

// Raw returns the next n bytes (a view into the buffer), nil on
// exhaustion.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) || d.off+n < 0 {
		d.Fail("truncated (want %d bytes)", n)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if v := d.Raw(1); v != nil {
		return v[0]
	}
	return 0
}

// Bool reads one byte as a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if v := d.Raw(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if v := d.Raw(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a u32-length-prefixed string.
func (d *Decoder) Str() string { return string(d.StrBytes()) }

// StrBytes reads a u32-length-prefixed string as a view into the
// buffer, nil on exhaustion: Str without the copy.
func (d *Decoder) StrBytes() []byte {
	n := int(d.U32())
	if d.err == nil && n > len(d.b)-d.off {
		d.Fail("%d-byte string exceeds input", n)
		return nil
	}
	return d.Raw(n)
}

// Count reads a u32 element count and validates it against the bytes
// remaining at minBytes per element, so corrupt counts fail instead of
// allocating unbounded memory.
func (d *Decoder) Count(minBytes int) int {
	return d.CountAt(int(d.U32()), minBytes)
}

// CountAt validates an already-read element count the same way.
func (d *Decoder) CountAt(n, minBytes int) int {
	if d.err != nil {
		return 0
	}
	if n < 0 || n > (len(d.b)-d.off)/minBytes {
		d.Fail("count %d exceeds remaining input", n)
		return 0
	}
	return n
}
