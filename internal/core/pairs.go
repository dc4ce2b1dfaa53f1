package core

import (
	"cmp"
	"slices"
)

// pairRow is one tracked count: the packets of name id in the
// client-day profile at arena slot.
type pairRow struct {
	slot, id uint32
	n        int
}

// pairTable holds an aggregator's tracked-name counts as one row per
// observed (arena slot, name ID) pair, appended in first-observation
// order, with an open-addressed index of the same kind as clientIndex
// (ctrl holds row+1; 0 marks an empty bucket). The §4.2 share threshold
// needs one number per client-day — its packets over candidate names —
// so every reader is one sweep over the rows, and a profile carries no
// per-client list. Rows are never deleted one by one: reset truncates
// them with the arena.
type pairTable struct {
	rows []pairRow
	ctrl []uint32
	mask uint32
}

// pairHash mixes a (slot, ID) pair into the index keyspace, as hashKey
// does for a client-day.
func pairHash(slot, id uint32) uint32 {
	x := uint64(slot)<<32 | uint64(id)
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return uint32(x >> 32)
}

// add counts n packets of name id for the profile at slot: one probe,
// appending a row on first sight of the pair.
func (p *pairTable) add(slot, id uint32, n int) {
	if p.ctrl == nil {
		p.ctrl = make([]uint32, indexSizeFor(0))
		p.mask = uint32(len(p.ctrl) - 1)
	}
	i := pairHash(slot, id) & p.mask
	for c := p.ctrl[i]; c != 0; c = p.ctrl[i] {
		if r := &p.rows[c-1]; r.slot == slot && r.id == id {
			r.n += n
			return
		}
		i = (i + 1) & p.mask
	}
	p.rows = append(p.rows, pairRow{slot: slot, id: id, n: n})
	p.ctrl[i] = uint32(len(p.rows))
	if len(p.rows)*4 > len(p.ctrl)*3 {
		p.rebuild(len(p.ctrl) * 2)
	}
}

// rebuild re-keys the index over the rows at the given size (a power of
// two). The layout depends only on the size and the row order, so equal
// row sequences keep equal tables.
func (p *pairTable) rebuild(size int) {
	p.ctrl = make([]uint32, size)
	p.mask = uint32(size - 1)
	for r := range p.rows {
		i := pairHash(p.rows[r].slot, p.rows[r].id) & p.mask
		for p.ctrl[i] != 0 {
			i = (i + 1) & p.mask
		}
		p.ctrl[i] = uint32(r + 1)
	}
}

// reset drops every row and empties the index, keeping both storages.
func (p *pairTable) reset() {
	p.rows = p.rows[:0]
	clear(p.ctrl)
}

// canonicalize orders the rows by (slot, ID) and rebuilds the index at
// the size their count alone decides, so the table is a function of its
// pair set.
func (p *pairTable) canonicalize() {
	if len(p.rows) == 0 {
		return
	}
	p.sortRows()
	p.rebuild(indexSizeFor(len(p.rows)))
}

// sortRows orders the rows by (slot, ID); the index is not maintained.
func (p *pairTable) sortRows() {
	slices.SortFunc(p.rows, func(a, b pairRow) int {
		return cmp.Or(cmp.Compare(a.slot, b.slot), cmp.Compare(a.id, b.id))
	})
}

// bySlot returns the row indices in (slot, ID) order with each slot's
// run start: the rows of slot s are order[start[s]:start[s+1]]. Two
// stable counting passes, by ID over ids buckets and then by slot over
// slots buckets, make it O(rows + ids + slots), no comparison sort.
func (p *pairTable) bySlot(slots, ids int) (order, start []uint32) {
	byID := make([]uint32, len(p.rows))
	count := make([]uint32, ids+1)
	for _, r := range p.rows {
		count[r.id+1]++
	}
	for i := 1; i <= ids; i++ {
		count[i] += count[i-1]
	}
	for r, row := range p.rows {
		byID[count[row.id]] = uint32(r)
		count[row.id]++
	}
	order = make([]uint32, len(p.rows))
	start = make([]uint32, slots+1)
	for _, r := range p.rows {
		start[r.slot+1]++
	}
	for s := 1; s <= slots; s++ {
		start[s] += start[s-1]
	}
	next := slices.Clone(start[:slots])
	for _, r := range byID {
		s := p.rows[r].slot
		order[next[s]] = r
		next[s]++
	}
	return order, start
}
