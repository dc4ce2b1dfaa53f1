package binenc

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test: bad input")

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.F64(math.Pi)
	e.Str("hello")
	e.Str("")
	e.Raw([]byte{1, 2, 3})
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	d := NewDecoder(buf.Bytes(), errTest)
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if got := d.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

// TestDecoderPoisons: a truncated read latches an error wrapping the
// sentinel, and every later read returns zero values without panics.
func TestDecoderPoisons(t *testing.T) {
	d := NewDecoder([]byte{1, 2}, errTest)
	if got := d.U64(); got != 0 {
		t.Errorf("truncated U64 = %d", got)
	}
	if !errors.Is(d.Err(), errTest) {
		t.Fatalf("err = %v, want wrapping sentinel", d.Err())
	}
	if got := d.U32(); got != 0 {
		t.Errorf("post-poison U32 = %d", got)
	}
	if got := d.Str(); got != "" {
		t.Errorf("post-poison Str = %q", got)
	}
}

// TestCountRejectsOversize: a count that cannot fit the remaining
// input fails instead of driving a huge allocation.
func TestCountRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U32(1 << 30)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(buf.Bytes(), errTest)
	if got := d.Count(8); got != 0 {
		t.Errorf("oversize Count = %d", got)
	}
	if !errors.Is(d.Err(), errTest) {
		t.Fatalf("err = %v", d.Err())
	}
}
