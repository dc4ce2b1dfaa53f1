package names

import (
	"bytes"
	"errors"
	"testing"

	"dnsamp/internal/binenc"
)

var errTest = errors.New("test table")

// TestCodecRoundTrip: Decode rebuilds every ID Encode wrote, through
// both decoder kinds, after a Keep has renumbered the table; a repeated
// name, a cut and a count the input cannot back fail with the
// decoder's sentinel.
func TestCodecRoundTrip(t *testing.T) {
	tab := NewTable()
	for _, n := range []string{"doj.gov.", "", "nsf.gov.", "a.b.c.", "x."} {
		tab.Intern(n)
	}
	tab.Keep(func(id uint32) bool { return id != 2 })
	var buf bytes.Buffer
	e := binenc.NewEncoder(&buf)
	tab.Encode(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, kind := range []string{"bytes", "reader"} {
		d := binenc.NewDecoder(raw, errTest)
		if kind == "reader" {
			d = binenc.NewReaderDecoder(bytes.NewReader(raw), errTest)
		}
		got := NewTable()
		got.Decode(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got.Len() != tab.Len() {
			t.Fatalf("%s: %d names, want %d", kind, got.Len(), tab.Len())
		}
		for id := range tab.Len() {
			if got.Name(uint32(id)) != tab.Name(uint32(id)) {
				t.Fatalf("%s: ID %d is %q, want %q", kind, id, got.Name(uint32(id)), tab.Name(uint32(id)))
			}
		}
	}

	dup := append([]byte{}, raw...)
	dup[0]++ // one more name: the first again
	dup = append(dup, raw[4:4+4+len("doj.gov.")]...)
	for name, in := range map[string][]byte{"duplicate": dup, "cut": raw[:len(raw)-1], "count": {0xff, 0xff, 0xff, 0}} {
		d := binenc.NewDecoder(in, errTest)
		NewTable().Decode(d)
		if !errors.Is(d.Err(), errTest) {
			t.Errorf("%s: err = %v, want the decoder's sentinel", name, d.Err())
		}
	}
}
