package binenc

import (
	"bytes"
	"errors"
	"math"
	"net/netip"
	"strings"
	"testing"
)

var errTest = errors.New("test: bad input")

// longStr is longer than a reader's largest window, so decoding it
// grows the window as its bytes arrive.
var longStr = strings.Repeat("amplifier.", 10_000)

// encodeAll writes every Encoder primitive once, in checkAll's order.
func encodeAll(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Raw([]byte{0xde, 0xad})
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U16(0xbeef)
	e.U32(0xcafebabe)
	e.U64(1 << 60)
	e.I64(-42)
	e.F64(math.Pi)
	e.Str("amplifier")
	e.Str("")
	e.Str(longStr)
	e.Addr(netip.MustParseAddr("192.0.2.9"))
	e.Addr(netip.MustParseAddr("2001:db8::1"))
	e.Addr(netip.Addr{})
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// checkAll decodes encodeAll's values and checks that nothing is left.
func checkAll(t *testing.T, d *Decoder) {
	t.Helper()
	if got := d.Raw(2); !bytes.Equal(got, []byte{0xde, 0xad}) {
		t.Errorf("Raw = %x", got)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip")
	}
	if got := d.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xcafebabe {
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
	if got := d.Str(); got != "amplifier" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if got := d.Str(); got != longStr {
		t.Errorf("long Str: %d bytes, want %d", len(got), len(longStr))
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
	if err := d.Finish(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	checkAll(t, NewDecoder(encodeAll(t), errTest))
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

// TestCapRule pins how a claimed count becomes a capacity: exactly on
// a whole input, at most growBytes' worth on a reader, nothing once the
// decoder has failed.
func TestCapRule(t *testing.T) {
	whole := NewDecoder(nil, errTest)
	reader := NewReaderDecoder(strings.NewReader(""), errTest)
	for _, c := range []struct {
		d             *Decoder
		n, size, want int
	}{
		{whole, 1 << 20, 8, 1 << 20},
		{reader, 1 << 20, 8, growBytes / 8},
		{reader, 10, 8, 10},
		{reader, 1 << 20, growBytes * 2, 1},
	} {
		if got := c.d.Cap(c.n, c.size); got != c.want {
			t.Errorf("Cap(%d, %d) on a reader=%v = %d, want %d", c.n, c.size, c.d.r != nil, got, c.want)
		}
	}
	whole.Fail("poisoned")
	if got := whole.Cap(10, 8); got != 0 {
		t.Errorf("Cap after failure = %d, want 0", got)
	}
}

// TestSliceBothDecoders reads one column through a whole input and
// through readers (one byte a read, too): the same values come back,
// and a count the input cannot back yields nil and the sentinel.
func TestSliceBothDecoders(t *testing.T) {
	const n = 5000
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U32(n)
	for i := range n {
		e.U16(uint16(i * 7))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, d := range decoders(buf.Bytes()) {
		got := Slice(d, d.Count(2), d.U16)
		if err := d.Finish(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != n {
			t.Fatalf("%s: %d elements, want %d", name, len(got), n)
		}
		for i, v := range got {
			if v != uint16(i*7) {
				t.Fatalf("%s: element %d = %d", name, i, v)
			}
		}
	}
	for name, d := range decoders(buf.Bytes()[:2*n]) {
		// The count, read unchecked, claims one element more than follows.
		if got := Slice(d, int(d.U32()), d.U16); got != nil || !errors.Is(d.Err(), errTest) {
			t.Errorf("%s: cut column = %d elements, err %v; want nil and the sentinel", name, len(got), d.Err())
		}
	}
}
