package names

import "dnsamp/internal/binenc"

// Encode writes the table as checkpoints and batch snapshots persist
// it: a u32 count, then each name in ID order as a u32 length and its
// bytes.
func (t *Table) Encode(e *binenc.Encoder) {
	e.U32(uint32(t.Len()))
	for id := range t.Len() {
		e.Str(t.Name(uint32(id)))
	}
}

// Decode reads Encode's layout into t, which must be empty. Interning
// in order reproduces every ID, so IDs encoded beside the table stay
// valid — unless a name repeats, which would attach every later ID to
// the wrong string: that fails the decoder (Decoder.Fail, wrapping its
// sentinel), as does a truncated input.
func (t *Table) Decode(d *binenc.Decoder) {
	n := d.Count(4) // a name costs at least its u32 length prefix
	t.Reserve(d.Cap(n, 16))
	for i := 0; i < n && d.Err() == nil; i++ {
		b := d.StrBytes()
		if d.Err() != nil {
			break
		}
		if id := t.InternBytes(b); int(id) != i {
			d.Fail("duplicate table name at ID %d", i)
		}
	}
}
