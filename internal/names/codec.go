package names

import (
	"slices"
	"unsafe"

	"dnsamp/internal/binenc"
)

// Encode writes the table as checkpoints and batch snapshots persist
// it: a u32 count, then each name in ID order as a u32 length and its
// bytes.
func (t *Table) Encode(e *binenc.Encoder) {
	e.U32(uint32(t.Len()))
	for id := range t.Len() {
		e.Str(t.Name(uint32(id)))
	}
}

// Decode reads Encode's layout into t, which must be empty. The names
// take the IDs they were written under, in the slab and the end column
// as they arrive, and the index is built once at the end, so IDs
// encoded beside the table stay valid — unless a name repeats, which
// would attach every later ID to the wrong string: that fails the
// decoder (Decoder.Fail, wrapping its sentinel), as does a truncated
// input.
func (t *Table) Decode(d *binenc.Decoder) {
	n := d.Count(4) // a name costs at least its u32 length prefix
	t.ends = slices.Grow(t.ends, d.Cap(n, 4))
	for i := 0; i < n && d.Err() == nil; i++ {
		b := d.StrBytes()
		if d.Err() != nil {
			break
		}
		t.push(unsafe.String(unsafe.SliceData(b), len(b)))
	}
	if len(t.ends) == 0 {
		return // no index, as in a table nothing was interned into
	}
	if dup := t.rehash(indexSizeFor(len(t.ends))); dup >= 0 {
		d.Fail("duplicate table name at ID %d", dup)
	}
}
