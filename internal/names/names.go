// Package names implements deterministic string interning for DNS
// names: a Table maps canonical names to dense uint32 IDs so that the
// per-packet hot path (traffic synthesis, capture, aggregation) never
// hashes or allocates strings.
//
// A run has one name table. A batch, the capture point that accounts
// it, the aggregator or collector that observes it and every shard
// merged into it carry the same *Table, so an ID means the same name at
// every layer and nothing translates between ID spaces. In the batch
// study that table is the source's, and every name is interned before a
// parallel stage starts: the shards are single writers of their own
// state over one table they only read. The live window owns its table;
// its capture point, on the consumer goroutine, is the only writer.
//
// A Table's large arrays hold no pointers (layout: Table), so the
// garbage collector has nothing in them to mark however many names they
// hold, and a first sight allocates no per-name object.
//
// A table may also hold one procedural range (AppendRange): names that
// are a pure function of their index, such as a generator's bulk
// namespace. They sit in the slab like any other name, but the index
// leaves them out: a lookup that misses the index asks the range's
// parser, so appending hundreds of thousands of them hashes none.
//
// The live window also forgets names: at each day close, Keep moves the
// names it still needs to a fresh slab under new dense IDs and returns
// the old-to-new map, and Gen tells an ID handed out before that from
// one handed out after.
package names

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"unsafe"
)

// seed keys the index hash. It is drawn once per process and decides
// only where an entry sits in the index: IDs are dense in first-sight
// order, so no ID, and nothing encoded from IDs or names (checkpoints,
// snapshots, reports), depends on it.
var seed = maphash.MakeSeed()

// minIndex is the smallest index size; sizes are powers of two.
const minIndex = 16

// Table maps canonical DNS names to dense IDs 0..Len()-1.
//
// Layout: slab holds every name's bytes back to back in ID order,
// ends[id] is the slab offset where name id ends (it starts where id-1
// ends), and index is an open-addressed, linear-probe hash table whose
// entries pack the high 32 bits of the name's hash above id+1 (0 marks
// an empty slot). The index holds every name but those of the range
// (AppendRange); it stays at or below 3/4 load of the names it holds
// and grows by re-inserting them in ID order, so its layout is a
// function of the seed, the index size and the names in ID order alone.
// These three arrays hold no pointers; the range is described by data
// (the Range value), never by a func, so reflect.DeepEqual compares two
// tables by what they hold.
//
// The slab is append-only: bytes once written are never overwritten.
// That is what makes Name sound — it returns a string viewing the slab
// directly. A grow copies the slab to a new array, and the old array
// stays alive for as long as any view points into it. Keep, which
// releases names, likewise builds a fresh slab and never compacts one in
// place: a view into the old slab keeps reading its name.
//
// The zero Table is an empty table ready for use. A Table is not safe
// for concurrent mutation; concurrent read-only use (Lookup, Name, Len,
// and Intern/InternBytes of names already present) is safe.
type Table struct {
	slab  []byte
	ends  []uint32
	index []uint64
	gen   uint32 // Keep calls so far

	// rng holds the names rngBase..rngBase+rngLen-1, which are in the
	// slab and the end column but not in the index; nil without a range.
	rng     Range
	rngBase uint32
	rngLen  int

	// _ rounds the struct up to two whole 64-byte cache lines (128
	// bytes), as ixp.CapturePoint is: a first sight writes the slab and
	// end headers. At 112 bytes, a size class that does not divide into
	// whole lines, serve-coarse read 2.9–11 % more CPU per sample than
	// the 80-byte table before the range in four paired series; at
	// 128, 2.4 %, and 3.4 % less than at 112 when the two sizes were
	// paired directly (7 of 10 pairs, inside the run-to-run spread).
	_ [2]uint64
}

// A Range is a procedural name range: n distinct canonical names, name
// i a pure function of i. A table holds at most one (AppendRange). The
// value must be plain data (no func fields), so that tables holding
// equal ranges compare equal under reflect.DeepEqual, and safe for
// concurrent use.
type Range interface {
	// Len returns n, the number of names in the range.
	Len() int
	// Size returns the total length in bytes of the range's names.
	Size() int
	// AppendName appends name i (0 ≤ i < n) to dst.
	AppendName(dst []byte, i int) []byte
	// ParseName returns the i with AppendName(nil, i) == name and
	// 0 ≤ i < n, and false for every other name. It must not retain
	// name, which may view a caller's buffer.
	ParseName(name string) (i int, ok bool)
}

// Dropped marks a released name in the map Keep returns.
const Dropped = math.MaxUint32

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// indexSizeFor returns the index size for n names: the smallest power
// of two (≥ minIndex) keeping load at or below 3/4.
func indexSizeFor(n int) int {
	size := minIndex
	for n*4 > size*3 {
		size <<= 1
	}
	return size
}

// AppendRange appends the names of r under the next r.Len() dense IDs
// and returns the first of them. The names are written into the slab,
// grown once, and left out of the index: no name is hashed or probed
// for. Lookup, Intern and InternBytes find them through r.ParseName
// when the index misses, so a name of the range keeps its ID whichever
// way it comes back. A name already in the table that parses into r
// would then have two IDs, and panics, as does a second range.
func (t *Table) AppendRange(r Range) (base uint32) {
	if t.rng != nil {
		panic("names: a table holds one range")
	}
	for id := range t.ends {
		if i, ok := r.ParseName(t.Name(uint32(id))); ok {
			panic(fmt.Sprintf("names: %q (ID %d) is name %d of the range", t.Name(uint32(id)), id, i))
		}
	}
	n, size := r.Len(), r.Size()
	if uint64(len(t.slab))+uint64(size) > math.MaxUint32 {
		panic("names: slab exceeds 4 GiB") // ends are uint32 offsets
	}
	base = uint32(len(t.ends))
	t.slab = slices.Grow(t.slab, size)
	t.ends = slices.Grow(t.ends, n)
	for i := range n {
		t.slab = r.AppendName(t.slab, i)
		t.ends = append(t.ends, uint32(len(t.slab)))
	}
	t.rng, t.rngBase, t.rngLen = r, base, n
	return base
}

// AdoptRange makes names already in the table its range: the names
// base..base+r.Len()-1 leave the index, and the table is the one
// AppendRange would have built had they come as r. It reports false,
// changing nothing, unless the table holds no range and those IDs hold
// r's names in order (a table's names are distinct, so then no other
// name is one of r's).
func (t *Table) AdoptRange(base uint32, r Range) bool {
	n := r.Len()
	if t.rng != nil || int(base)+n > len(t.ends) {
		return false
	}
	for i := range n {
		if j, ok := r.ParseName(t.Name(base + uint32(i))); !ok || j != i {
			return false
		}
	}
	t.rng, t.rngBase, t.rngLen = r, base, n
	t.rehash(indexSizeFor(len(t.ends) - n))
	return true
}

// Len returns the number of interned names.
func (t *Table) Len() int { return len(t.ends) }

// Gen counts the Keep calls so far. An ID is valid only in the
// generation it was handed out in.
func (t *Table) Gen() uint32 { return t.gen }

// Keep releases every name keep rejects (keep is called once per ID, in
// ID order). The kept names move, in ID order, to a new slab, end column
// and index built at their size, taking the dense IDs 0..n-1, and Gen
// advances. The new index holds every kept name, a range's too: the
// table holds no range after a Keep. remap[old] is a name's new ID, or
// Dropped. A released name interned again is a first sight under the
// next dense ID. Views Name returned earlier keep reading their names:
// the old slab is left as it is, for the garbage collector to reclaim
// once no view points into it.
func (t *Table) Keep(keep func(id uint32) bool) (remap []uint32) {
	remap = make([]uint32, len(t.ends))
	n, size := 0, 0
	for id := range remap {
		if !keep(uint32(id)) {
			remap[id] = Dropped
			continue
		}
		remap[id] = uint32(n)
		n++
		size += len(t.bytes(uint32(id)))
	}
	slab, ends := make([]byte, 0, size), make([]uint32, 0, n)
	for id, to := range remap {
		if to != Dropped {
			slab = append(slab, t.bytes(uint32(id))...)
			ends = append(ends, uint32(len(slab)))
		}
	}
	t.slab, t.ends = slab, ends
	t.rng, t.rngBase, t.rngLen = nil, 0, 0
	t.rehash(indexSizeFor(n))
	t.gen++
	return remap
}

// Intern returns the ID of name, assigning the next dense ID on first
// sight. The caller must pass canonical names (dnswire.CanonicalName);
// the table does not normalize.
func (t *Table) Intern(name string) uint32 {
	return t.intern(name)
}

// InternBytes is Intern for a byte view of the name. A known name
// allocates nothing, and a first sight copies the bytes into the slab.
func (t *Table) InternBytes(b []byte) uint32 {
	return t.intern(unsafe.String(unsafe.SliceData(b), len(b)))
}

// Lookup returns the ID of name without interning.
func (t *Table) Lookup(name string) (uint32, bool) {
	_, id, ok := t.find(name, maphash.String(seed, name))
	return id, ok
}

// Name returns the interned string for id: a view of the slab, so
// assigning or keeping it allocates nothing (see Table on why the view
// stays valid).
func (t *Table) Name(id uint32) string {
	b := t.bytes(id)
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// bytes returns the slab bytes of name id.
func (t *Table) bytes(id uint32) []byte {
	var start uint32
	if id > 0 {
		start = t.ends[id-1]
	}
	return t.slab[start:t.ends[id]]
}

// find probes the index for key, whose hash is h, and then the range.
// It returns the key's ID when present, otherwise the empty index slot
// where it would be inserted.
func (t *Table) find(key string, h uint64) (slot int, id uint32, ok bool) {
	if len(t.index) > 0 {
		mask := len(t.index) - 1
		tag := h >> 32
		for i := int(h) & mask; ; i = (i + 1) & mask {
			e := t.index[i]
			if e == 0 {
				slot = i
				break
			}
			if e>>32 == tag {
				id := uint32(e) - 1
				if string(t.bytes(id)) == key {
					return i, id, true
				}
			}
		}
	}
	if t.rng != nil {
		if i, ok := t.rng.ParseName(key); ok {
			return slot, t.rngBase + uint32(i), true
		}
	}
	return slot, 0, false
}

// intern is Intern and InternBytes: the known name's ID, or a first
// sight appended to the slab under the next dense ID. key may view the
// caller's buffer: it is copied into the slab, never kept.
func (t *Table) intern(key string) uint32 {
	h := maphash.String(seed, key)
	slot, id, ok := t.find(key, h)
	if ok {
		return id
	}
	id = t.push(key)
	if hashed := len(t.ends) - t.rngLen; hashed*4 > len(t.index)*3 {
		t.rehash(indexSizeFor(hashed))
	} else {
		t.index[slot] = entry(h, id)
	}
	return id
}

// push appends name to the slab and the end column under the next ID,
// leaving the index to the caller.
func (t *Table) push(name string) uint32 {
	if uint64(len(t.slab))+uint64(len(name)) > math.MaxUint32 {
		panic("names: slab exceeds 4 GiB") // ends are uint32 offsets
	}
	t.slab = append(t.slab, name...)
	t.ends = append(t.ends, uint32(len(t.slab)))
	return uint32(len(t.ends) - 1)
}

// entry packs an index entry: the high 32 bits of the name's hash over
// id+1, so no entry is 0.
func entry(h uint64, id uint32) uint64 { return h&^math.MaxUint32 | (uint64(id) + 1) }

// rehash rebuilds the index at size, re-inserting every name but the
// range's in ID order. It returns the first ID whose name an earlier ID
// holds already, or -1: only Decode, which fills the slab before the
// index, can meet one.
func (t *Table) rehash(size int) (dup int) {
	t.index = make([]uint64, size)
	mask := size - 1
	dup = -1
	for id := range t.ends {
		if t.inRange(uint32(id)) {
			continue
		}
		name := t.bytes(uint32(id))
		h := maphash.Bytes(seed, name)
		i := int(h) & mask
		for e := t.index[i]; e != 0; e = t.index[i] {
			if e>>32 == h>>32 && dup < 0 && string(t.bytes(uint32(e)-1)) == string(name) {
				dup = id
			}
			i = (i + 1) & mask
		}
		t.index[i] = entry(h, uint32(id))
	}
	return dup
}

// inRange reports whether id is a name of the range.
func (t *Table) inRange(id uint32) bool {
	return id-t.rngBase < uint32(t.rngLen)
}
