package binenc

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
)

// StreamDecoder is the Decoder's incremental twin: it reads the same
// little-endian layout directly from an io.Reader instead of requiring
// the whole artifact in memory first. Semantics match Decoder — the
// first short read latches an error wrapping the construction sentinel,
// every later read returns zero values — but bounds checks necessarily
// differ: a stream has no known remaining length, so corrupt counts are
// caught by *incremental* consumption (callers grow result slices as
// elements actually arrive; an absurd count runs the stream into EOF
// and latches a truncation error, with memory bounded by the bytes
// genuinely read).
type StreamDecoder struct {
	r        *bufio.Reader
	off      int
	err      error
	sentinel error
	tmp      [16]byte
}

// NewStreamDecoder returns a streaming decoder over r whose errors wrap
// sentinel.
func NewStreamDecoder(r io.Reader, sentinel error) *StreamDecoder {
	return &StreamDecoder{r: bufio.NewReaderSize(r, 1<<16), sentinel: sentinel}
}

// Err returns the latched decode error, nil while healthy.
func (d *StreamDecoder) Err() error { return d.err }

// Fail latches a decode error (wrapping the sentinel) unless one is
// already set.
func (d *StreamDecoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", d.sentinel, fmt.Sprintf(format, args...), d.off)
	}
}

// read fills dst from the stream, latching a truncation error on any
// short read.
func (d *StreamDecoder) read(dst []byte) bool {
	if d.err != nil {
		return false
	}
	n, err := io.ReadFull(d.r, dst)
	d.off += n
	if err != nil {
		d.Fail("truncated (want %d bytes): %v", len(dst), err)
		return false
	}
	return true
}

// RawInto fills dst from the stream without allocating.
func (d *StreamDecoder) RawInto(dst []byte) { d.read(dst) }

// U8 reads one byte.
func (d *StreamDecoder) U8() uint8 {
	if d.read(d.tmp[:1]) {
		return d.tmp[0]
	}
	return 0
}

// Bool reads one byte as a bool.
func (d *StreamDecoder) Bool() bool { return d.U8() != 0 }

// U16 reads a little-endian uint16.
func (d *StreamDecoder) U16() uint16 {
	if d.read(d.tmp[:2]) {
		return uint16(d.tmp[0]) | uint16(d.tmp[1])<<8
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *StreamDecoder) U32() uint32 {
	if d.read(d.tmp[:4]) {
		return uint32(d.tmp[0]) | uint32(d.tmp[1])<<8 | uint32(d.tmp[2])<<16 | uint32(d.tmp[3])<<24
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *StreamDecoder) U64() uint64 {
	if d.read(d.tmp[:8]) {
		lo := uint32(d.tmp[0]) | uint32(d.tmp[1])<<8 | uint32(d.tmp[2])<<16 | uint32(d.tmp[3])<<24
		hi := uint32(d.tmp[4]) | uint32(d.tmp[5])<<8 | uint32(d.tmp[6])<<16 | uint32(d.tmp[7])<<24
		return uint64(lo) | uint64(hi)<<32
	}
	return 0
}

// I64 reads a little-endian int64.
func (d *StreamDecoder) I64() int64 { return int64(d.U64()) }

// strChunk bounds a single allocation while draining a length-prefixed
// string: a corrupt length claims gigabytes, so the string is read in
// capped chunks and the claim fails at EOF having allocated only what
// the stream actually contained.
const strChunk = 1 << 16

// Str reads a u32-length-prefixed string. Memory use is bounded by the
// stream's real content, not the claimed length.
func (d *StreamDecoder) Str() string {
	n := int(d.U32())
	if d.err != nil {
		return ""
	}
	if n <= strChunk {
		b := make([]byte, n)
		if !d.read(b) {
			return ""
		}
		return string(b)
	}
	var out []byte
	for n > 0 && d.err == nil {
		c := n
		if c > strChunk {
			c = strChunk
		}
		chunk := make([]byte, c)
		if !d.read(chunk) {
			return ""
		}
		out = append(out, chunk...)
		n -= c
	}
	return string(out)
}

// Count reads a u32 element count. A stream cannot pre-validate the
// count against remaining input the way Decoder.Count does; minBytes is
// kept for call-site symmetry and only guards arithmetic sanity.
// Callers must consume elements incrementally (append under an Err
// guard) so an absurd count terminates at EOF with bounded memory.
func (d *StreamDecoder) Count(minBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || minBytes > 0 && n > (1<<31)/minBytes {
		d.Fail("count %d implausible", n)
		return 0
	}
	return n
}

// Addr reads the length-prefixed netip.Addr form.
func (d *StreamDecoder) Addr() netip.Addr {
	switch n := d.U8(); n {
	case 0:
		return netip.Addr{}
	case 4:
		var b [4]byte
		if d.read(b[:]) {
			return netip.AddrFrom4(b)
		}
		return netip.Addr{}
	case 16:
		var b [16]byte
		if d.read(b[:]) {
			return netip.AddrFrom16(b)
		}
		return netip.Addr{}
	default:
		d.Fail("address length %d", n)
		return netip.Addr{}
	}
}

// ExpectEOF latches an error unless the stream is exhausted — the
// trailing-garbage check of file formats with no explicit terminator.
func (d *StreamDecoder) ExpectEOF() {
	if d.err != nil {
		return
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		d.Fail("trailing bytes after snapshot end")
	}
}
