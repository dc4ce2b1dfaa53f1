package binenc

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
)

var errStream = errors.New("stream test sentinel")

// TestStreamRoundTrip decodes every encoder primitive back off a
// stream, checks the values, and that nothing is left over.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Raw([]byte{0xde, 0xad})
	e.U8(7)
	e.Bool(true)
	e.U16(0xbeef)
	e.U32(0xcafebabe)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.Str("amplifier")
	e.Addr(netip.MustParseAddr("192.0.2.9"))
	e.Addr(netip.MustParseAddr("2001:db8::1"))
	e.Addr(netip.Addr{})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	d := NewStreamDecoder(bytes.NewReader(buf.Bytes()), errStream)
	var raw [2]byte
	if d.RawInto(raw[:]); raw != [2]byte{0xde, 0xad} {
		t.Errorf("RawInto = %x", raw)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if got := d.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xcafebabe {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Str(); got != "amplifier" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Addr(); got != netip.MustParseAddr("192.0.2.9") {
		t.Errorf("Addr v4 = %v", got)
	}
	if got := d.Addr(); got != netip.MustParseAddr("2001:db8::1") {
		t.Errorf("Addr v6 = %v", got)
	}
	if got := d.Addr(); got.IsValid() {
		t.Errorf("Addr zero = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("healthy decode errored: %v", d.Err())
	}
	d.ExpectEOF()
	if d.Err() != nil {
		t.Errorf("ExpectEOF at end errored: %v", d.Err())
	}
}

// TestStreamTruncation checks that a short read latches a sentinel-
// wrapped error and every later read returns zero values.
func TestStreamTruncation(t *testing.T) {
	d := NewStreamDecoder(strings.NewReader("\x01\x02"), errStream)
	if got := d.U32(); got != 0 {
		t.Errorf("truncated U32 = %d, want 0", got)
	}
	if !errors.Is(d.Err(), errStream) {
		t.Fatalf("err = %v, want wrap of sentinel", d.Err())
	}
	if got := d.U64(); got != 0 || d.Str() != "" {
		t.Error("reads after latched error returned non-zero values")
	}
}

// TestStreamStrBoundedAllocation feeds a string whose length prefix
// claims far more than the stream holds: the decode must fail at EOF
// with memory bounded by the real content, not the claim.
func TestStreamStrBoundedAllocation(t *testing.T) {
	// Claim 0x7fffffff bytes, deliver 5.
	in := append([]byte{0xff, 0xff, 0xff, 0x7f}, "hello"...)
	d := NewStreamDecoder(bytes.NewReader(in), errStream)
	if got := d.Str(); got != "" {
		t.Errorf("Str on truncated claim = %q, want empty", got)
	}
	if !errors.Is(d.Err(), errStream) {
		t.Fatalf("err = %v, want wrap of sentinel", d.Err())
	}
}

// TestStreamCountPlausibility checks the arithmetic guard on element
// counts.
func TestStreamCountPlausibility(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U32(0xffffffff)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(bytes.NewReader(buf.Bytes()), errStream)
	if got := d.Count(44); got != 0 {
		t.Errorf("implausible Count = %d, want 0", got)
	}
	if !errors.Is(d.Err(), errStream) {
		t.Fatalf("err = %v, want wrap of sentinel", d.Err())
	}
}

// TestStreamExpectEOFTrailing checks the trailing-garbage gate.
func TestStreamExpectEOFTrailing(t *testing.T) {
	d := NewStreamDecoder(strings.NewReader("\x05extra"), errStream)
	if got := d.U8(); got != 5 {
		t.Fatalf("U8 = %d", got)
	}
	d.ExpectEOF()
	if !errors.Is(d.Err(), errStream) {
		t.Fatalf("trailing bytes not flagged: %v", d.Err())
	}
}
