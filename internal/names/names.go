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
// A Table holds no pointers (layout: Table), so the garbage collector
// has nothing in it to mark however many names it holds, and a first
// sight allocates no per-name object.
//
// The live window also forgets names: at each day close, Keep moves the
// names it still needs to a fresh slab under new dense IDs and returns
// the old-to-new map, and Gen tells an ID handed out before that from
// one handed out after.
package names

import (
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
// an empty slot). The index stays at or below 3/4 load and grows by
// re-inserting every name in ID order, so its layout is a function of
// the seed, the index size and the names in ID order alone.
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

// Reserve pre-sizes the table for about n names, avoiding index growth
// during bulk interning (e.g. freezing a generator's name universe).
func (t *Table) Reserve(n int) {
	if n <= len(t.ends) {
		return
	}
	t.ends = slices.Grow(t.ends, n-len(t.ends))
	if size := indexSizeFor(n); size > len(t.index) {
		t.rehash(size)
	}
}

// Len returns the number of interned names.
func (t *Table) Len() int { return len(t.ends) }

// Gen counts the Keep calls so far. An ID is valid only in the
// generation it was handed out in.
func (t *Table) Gen() uint32 { return t.gen }

// Keep releases every name keep rejects (keep is called once per ID, in
// ID order). The kept names move, in ID order, to a new slab, end column
// and index built at their size, taking the dense IDs 0..n-1, and Gen
// advances. remap[old] is a name's new ID, or Dropped. A released name
// interned again is a first sight under the next dense ID. Views Name
// returned earlier keep reading their names: the old slab is left as it
// is, for the garbage collector to reclaim once no view points into it.
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
	t.rehash(indexSizeFor(n))
	t.gen++
	return remap
}

// Intern returns the ID of name, assigning the next dense ID on first
// sight. The caller must pass canonical names (dnswire.CanonicalName);
// the table does not normalize.
func (t *Table) Intern(name string) uint32 {
	return intern(t, name, maphash.String(seed, name))
}

// InternBytes is Intern for a byte view of the name. A known name
// allocates nothing, and a first sight copies the bytes into the slab.
func (t *Table) InternBytes(b []byte) uint32 {
	return intern(t, b, maphash.Bytes(seed, b))
}

// Lookup returns the ID of name without interning.
func (t *Table) Lookup(name string) (uint32, bool) {
	_, id, ok := find(t, name, maphash.String(seed, name))
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

// find probes the index for key, whose hash is h. It returns the key's
// ID when present, otherwise the empty slot where it would be inserted.
func find[K string | []byte](t *Table, key K, h uint64) (slot int, id uint32, ok bool) {
	if len(t.index) == 0 {
		return 0, 0, false
	}
	mask := len(t.index) - 1
	tag := h >> 32
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return i, 0, false
		}
		if e>>32 == tag {
			id := uint32(e) - 1
			if string(t.bytes(id)) == string(key) {
				return i, id, true
			}
		}
	}
}

// intern is Intern and InternBytes: the known name's ID, or a first
// sight appended to the slab under the next dense ID.
func intern[K string | []byte](t *Table, key K, h uint64) uint32 {
	slot, id, ok := find(t, key, h)
	if ok {
		return id
	}
	if uint64(len(t.slab))+uint64(len(key)) > math.MaxUint32 {
		panic("names: slab exceeds 4 GiB") // ends are uint32 offsets
	}
	id = uint32(len(t.ends))
	t.slab = append(t.slab, key...)
	t.ends = append(t.ends, uint32(len(t.slab)))
	if len(t.ends)*4 > len(t.index)*3 {
		t.rehash(indexSizeFor(len(t.ends)))
	} else {
		t.index[slot] = entry(h, id)
	}
	return id
}

// entry packs an index entry: the high 32 bits of the name's hash over
// id+1, so no entry is 0.
func entry(h uint64, id uint32) uint64 { return h&^math.MaxUint32 | (uint64(id) + 1) }

// rehash rebuilds the index at size, re-inserting every name in ID
// order.
func (t *Table) rehash(size int) {
	t.index = make([]uint64, size)
	mask := size - 1
	for id := range t.ends {
		h := maphash.Bytes(seed, t.bytes(uint32(id)))
		i := int(h) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = entry(h, uint32(id))
	}
}
