package binenc

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

var errStream = errors.New("stream test sentinel")

// decoders returns every way to decode b: whole, through a reader, and
// through a reader that returns one byte a read.
func decoders(b []byte) map[string]*Decoder {
	return map[string]*Decoder{
		"whole":    NewDecoder(b, errTest),
		"reader":   NewReaderDecoder(bytes.NewReader(b), errTest),
		"one-byte": NewReaderDecoder(iotest.OneByteReader(bytes.NewReader(b)), errTest),
	}
}

// TestStreamRoundTrip decodes every encoder primitive back off a
// reader, including a string longer than the window, and checks that
// nothing is left over.
func TestStreamRoundTrip(t *testing.T) {
	raw := encodeAll(t)
	for name, d := range decoders(raw) {
		if d.r != nil {
			t.Run(name, func(t *testing.T) { checkAll(t, d) })
		}
	}
}

// TestStreamTruncation checks that a short read latches a sentinel-
// wrapped error and every later read returns zero values.
func TestStreamTruncation(t *testing.T) {
	d := NewReaderDecoder(strings.NewReader("\x01\x02"), errStream)
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
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := NewReaderDecoder(bytes.NewReader(in), errStream)
	got := d.Str()
	runtime.ReadMemStats(&m1)
	if got != "" {
		t.Errorf("Str on truncated claim = %q, want empty", got)
	}
	if !errors.Is(d.Err(), errStream) {
		t.Fatalf("err = %v, want wrap of sentinel", d.Err())
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 2*minWindow {
		t.Errorf("a 9-byte input allocated %d bytes", grew)
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
	d := NewReaderDecoder(bytes.NewReader(buf.Bytes()), errStream)
	if got := d.Count(44); got != 0 {
		t.Errorf("implausible Count = %d, want 0", got)
	}
	if !errors.Is(d.Err(), errStream) {
		t.Fatalf("err = %v, want wrap of sentinel", d.Err())
	}
}

// TestStreamExpectEOFTrailing checks the trailing-garbage gate, on
// every decoder.
func TestStreamExpectEOFTrailing(t *testing.T) {
	for name, d := range decoders([]byte("\x05extra")) {
		if got := d.U8(); got != 5 {
			t.Fatalf("%s: U8 = %d", name, got)
		}
		if err := d.Finish(); !errors.Is(err, errTest) {
			t.Fatalf("%s: trailing bytes not flagged: %v", name, err)
		}
	}
}

// TestReaderError: a read error other than the end of input is latched
// with the sentinel.
func TestReaderError(t *testing.T) {
	d := NewReaderDecoder(iotest.ErrReader(errors.New("disk on fire")), errStream)
	d.U8()
	if err := d.Err(); !errors.Is(err, errStream) || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v, want the sentinel and the read error", err)
	}
}
