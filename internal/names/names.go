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
package names

// Table maps canonical DNS names to dense IDs 0..Len()-1. The zero
// Table is not ready; use NewTable. A Table is not safe for concurrent
// mutation; concurrent read-only use (Lookup/Name) is safe.
type Table struct {
	ids  map[string]uint32
	strs []string
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{ids: make(map[string]uint32)}
}

// Reserve pre-sizes the table for about n names, avoiding rehashing
// during bulk interning (e.g. freezing a generator's name universe).
func (t *Table) Reserve(n int) {
	if n <= len(t.strs) {
		return
	}
	ids := make(map[string]uint32, n)
	for k, v := range t.ids {
		ids[k] = v
	}
	t.ids = ids
	strs := make([]string, len(t.strs), n)
	copy(strs, t.strs)
	t.strs = strs
}

// Len returns the number of interned names.
func (t *Table) Len() int { return len(t.strs) }

// Intern returns the ID of name, assigning the next dense ID on first
// sight. The caller must pass canonical names (dnswire.CanonicalName);
// the table does not normalize.
func (t *Table) Intern(name string) uint32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, name)
	t.ids[name] = id
	return id
}

// InternBytes is Intern for a byte view of the name. When the name is
// already interned no string is allocated (the map lookup uses the
// compiler's string(b) optimization).
func (t *Table) InternBytes(b []byte) uint32 {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	return t.Intern(string(b))
}

// Lookup returns the ID of name without interning.
func (t *Table) Lookup(name string) (uint32, bool) {
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the interned string for id. The returned string is the
// table's shared storage: assigning it allocates nothing.
func (t *Table) Name(id uint32) string { return t.strs[id] }

// Names returns the id-ordered name slice. Callers must not modify it.
func (t *Table) Names() []string { return t.strs }
