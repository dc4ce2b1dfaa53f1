// Package binenc is the shared little-endian binary codec behind the
// repo's persisted artifacts: the column-major batch snapshots
// (internal/source) and the service checkpoints (internal/server,
// internal/core) write through one Encoder and read through one
// Decoder, so every on-disk format inherits the same properties —
// deterministic byte layout, an error latched on the first failed write
// or read, and one rule for how a count read off the input becomes an
// allocation (Cap, Slice, Map): a corrupt count fails cleanly, having
// cost at most a constant factor of the bytes really present, never the
// memory it claims, and never a panic.
//
// A Decoder reads either a whole input held in memory (NewDecoder: a
// checkpoint, read whole and checksummed first) or an io.Reader through
// a window it refills (NewReaderDecoder: a snapshot, which need not fit
// in memory twice). The two differ only in what a count can be checked
// against. A whole input knows how many bytes remain, so Count rejects
// a count the rest cannot back and a claimed count is allocated
// exactly. A reader does not, so Count checks only plausibility, a
// claimed count gets at most 4 KiB up front, and the slice doubles as
// its elements arrive: an absurd count runs the reader into its end and
// fails.
package binenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
	"reflect"
	"slices"
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

// Decoder reads the Encoder's layout back with saturating bounds
// checks: the first short read poisons the decoder, and every later
// read returns zero values. Errors wrap the sentinel the decoder was
// constructed with (so each file format keeps its own errors.Is
// identity).
type Decoder struct {
	b        []byte    // the window: the whole input, or a reader's buffered bytes
	off      int       // next unread byte of b
	base     int       // input offset of b[0]
	r        io.Reader // nil when b is the whole input
	err      error
	sentinel error
}

const (
	// A reader's window starts at minWindow and doubles, up to
	// maxWindow, each time a refill finds it full, so a short input
	// costs a short buffer and a long one is read in 64 KiB pieces.
	minWindow = 4 << 10
	maxWindow = 64 << 10
	// growBytes is the most a reader-backed decoder allocates for a
	// claimed count before the elements arrive.
	growBytes = 4 << 10
)

// NewDecoder returns a decoder over the whole input b whose errors wrap
// sentinel.
func NewDecoder(b []byte, sentinel error) *Decoder {
	return &Decoder{b: b, sentinel: sentinel}
}

// NewReaderDecoder returns a decoder that reads r through a refilled
// window, whose errors wrap sentinel.
func NewReaderDecoder(r io.Reader, sentinel error) *Decoder {
	return &Decoder{r: r, sentinel: sentinel}
}

// Err returns the latched decode error, nil while healthy.
func (d *Decoder) Err() error { return d.err }

// Fail latches a decode error (wrapping the sentinel) unless one is
// already set.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", d.sentinel, fmt.Sprintf(format, args...), d.base+d.off)
	}
}

// Raw returns the next n bytes, nil once the decoder has failed or the
// input holds fewer. It is a view: into the input on a whole input,
// into the window on a reader, where it is valid only until the next
// read.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if uint(n) > uint(len(d.b)-d.off) && (n < 0 || !d.refill(n)) {
		d.Fail("truncated (want %d bytes)", n)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// refill moves a reader's unread bytes to the front of the window and
// reads until at least n are buffered; it reports false on a whole
// input and at the reader's end. A value longer than the window grows
// it only as the value's bytes arrive.
func (d *Decoder) refill(n int) bool {
	if d.r == nil {
		return false
	}
	buf := d.b[:0]
	if len(d.b) == cap(d.b) && cap(d.b) < maxWindow {
		buf = make([]byte, 0, max(2*cap(d.b), minWindow))
	}
	d.base += d.off
	d.b, d.off = append(buf, d.b[d.off:]...), 0
	for len(d.b) < n {
		if len(d.b) == cap(d.b) {
			d.b = slices.Grow(d.b, min(len(d.b), n-len(d.b)))
		}
		m, err := d.r.Read(d.b[len(d.b):cap(d.b)])
		d.b = d.b[:len(d.b)+m]
		if err != nil && len(d.b) < n {
			if err != io.EOF {
				d.Fail("reading: %v", err)
			}
			return false
		}
	}
	return true
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

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if v := d.Raw(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

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

// StrBytes reads a u32-length-prefixed string as a view (see Raw), nil
// on exhaustion: Str without the copy. A length the input cannot back
// fails having read only the bytes present.
func (d *Decoder) StrBytes() []byte { return d.Raw(int(d.U32())) }

// Addr reads the Encoder's length-prefixed netip.Addr form.
func (d *Decoder) Addr() netip.Addr {
	switch n := d.U8(); n {
	case 0:
	case 4:
		if v := d.Raw(4); v != nil {
			return netip.AddrFrom4([4]byte(v))
		}
	case 16:
		if v := d.Raw(16); v != nil {
			return netip.AddrFrom16([16]byte(v))
		}
	default:
		d.Fail("address length %d", n)
	}
	return netip.Addr{}
}

// Count reads a u32 element count of elements that cost at least
// minBytes each. On a whole input a count the remaining bytes cannot
// back fails; a reader's remaining length is unknown, so there only a
// count whose bytes could not exist (over 2 GiB) fails, and the
// elements must be read by Slice's rule.
func (d *Decoder) Count(minBytes int) int {
	n := int(d.U32())
	limit := math.MaxInt32 / minBytes
	if d.r == nil {
		limit = (len(d.b) - d.off) / minBytes
	}
	if d.err != nil {
		return 0
	}
	if n > limit {
		d.Fail("count %d exceeds the input", n)
		return 0
	}
	return n
}

// Finish latches an error unless the input is exhausted — the
// trailing-garbage check of formats with no terminator — and returns
// the latched error.
func (d *Decoder) Finish() error {
	if d.err == nil && (d.off < len(d.b) || d.refill(1)) {
		d.Fail("trailing bytes")
	}
	return d.err
}

// Cap is the capacity to allocate for n claimed elements of size bytes
// each: n on a whole input, whose Count has checked n against the bytes
// left; on a reader at most growBytes' worth, the rest to be grown as
// elements arrive; 0 once the decoder has failed.
func (d *Decoder) Cap(n, size int) int {
	switch {
	case d.err != nil:
		return 0
	case d.r == nil:
		return n
	default:
		return min(n, max(1, growBytes/size))
	}
}

// Slice reads n claimed elements with elem into a slice allocated by
// Cap's rule, doubling it as elements arrive. It returns nil for n = 0
// and once the decoder has failed.
func Slice[T any](d *Decoder, n int, elem func() T) []T {
	if n <= 0 {
		return nil
	}
	s := make([]T, 0, d.Cap(n, int(reflect.TypeFor[T]().Size())))
	for range n {
		if len(s) == cap(s) {
			s = slices.Grow(s, min(n-len(s), max(len(s), 1)))
		}
		v := elem()
		if d.err != nil {
			return nil
		}
		s = append(s, v)
	}
	return s
}

// Map makes a map for n claimed entries, its size hint taken by Cap's
// rule.
func Map[K comparable, V any](d *Decoder, n int) map[K]V {
	return make(map[K]V, d.Cap(n, int(reflect.TypeFor[K]().Size()+reflect.TypeFor[V]().Size())))
}
