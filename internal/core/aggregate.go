// Package core implements the paper's primary contribution: passive DNS
// amplification-attack detection at an IXP (§4).
//
// The pipeline has three stages, mirroring Fig. 2:
//
//  1. Aggregation (this file): a streaming pass over sanitized DNS
//     samples building per-name statistics (for the selectors) and
//     per-(client IP, day) traffic profiles (for the thresholds).
//  2. Misused-name identification (selectors.go): three selectors — max
//     response size, ANY packet count, honeypot-correlated ground truth —
//     sized at their Jaccard consensus point and merged.
//  3. Attack detection (detect.go): the traffic-share and minimum-packet
//     thresholds, grouping packets into attack events.
//
// Aggregation is one fold over interned name IDs (internal/names): every
// packet, whichever entry point delivers it — Observe for the live
// window's samples, ObserveBatch and ObserveBatchSplit for the rows of
// the batch study's day batches — runs the same per-row step on one
// ixp.BatchRecord, which updates the global counters, the name's slot
// in a dense ID-indexed slice and one profile of the chunked client-day
// arena. The entry points differ only in how they
// find that profile: an open-addressed index (clientIndex), one hash
// probe instead of a map lookup and a pointer chase, behind a one-entry
// memo on the batch path. A packet of a tracked name also bumps one row
// of the aggregator's (arena slot, name ID) count table (pairTable), so
// a profile holds no pointer and no per-client list; every reader of
// those counts — Detect, Selector 3, the validation and the reports'
// candidate column — is one sweep over the rows. Candidate membership is
// a dense column, and strings appear only at report boundaries.
//
// The client-day arena is a list of fixed-size chunks, each chunkLen
// profiles and their keys; slot s lives at chunk s>>chunkShift, offset
// s&chunkMask. Growth appends one chunk and copies
// nothing, so a profile never moves and a pointer to it stays valid, and
// ResetClients keeps the chunks for the next day. A chunk holds no
// pointer, so the collector never scans the arena. The batch study's
// shards meet at one barrier, MergeShards: each shard's arena is sorted
// into (day, client) order in place, concurrently, and the shards are
// k-way merged into the canonical arena, each input chunk dropped as
// soon as it is consumed, so the aggregate is held about once.
package core

import (
	"fmt"
	"slices"
	"sync"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// ClientDay identifies one (client IP, day) pair — the paper's detection
// granularity.
type ClientDay struct {
	Client [4]byte
	Day    int // days since epoch
}

// hashKey folds the pair into the keyspace of the client index: the
// address in the high word, the epoch day in the low word, finished with
// a splitmix64-style mixer so sequential days and adjacent addresses
// spread across the table.
func (k ClientDay) hashKey() uint32 {
	x := uint64(k.Client[0])<<56 | uint64(k.Client[1])<<48 |
		uint64(k.Client[2])<<40 | uint64(k.Client[3])<<32 |
		uint64(uint32(k.Day))
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return uint32(x >> 32)
}

// less orders client-day keys by (day, client address) — the order
// Detect reports in and the canonical arena order.
func (k ClientDay) less(o ClientDay) int {
	if k.Day != o.Day {
		return k.Day - o.Day
	}
	return cmpAddr(k.Client, o.Client)
}

// ClientAgg is the per-(client, day) traffic profile: 48 bytes and no
// pointer (its tracked-name counts are rows of the aggregator's
// pairTable).
type ClientAgg struct {
	// Total is the number of sampled DNS packets attributed to the
	// client (source of queries, destination of responses).
	Total int
	// Bytes sums the DNS message sizes (UDP-length derived).
	Bytes int
	// ANYPackets / ANYBytes cover the type-ANY subset.
	ANYPackets int
	ANYBytes   int
	// First and Last bound the observed activity.
	First, Last simclock.Time
}

// NameStats is the global per-name aggregate feeding Selectors 1 and 2.
type NameStats struct {
	// MaxSize is the largest response size observed for the name (from
	// the UDP length field, §3.1).
	MaxSize int
	// ANYPackets counts packets (queries and responses) of type ANY.
	ANYPackets int
	// Packets counts all packets for the name.
	Packets int
}

// clientIndex is the dense client-day index: an open-addressed
// (linear-probe) hash table mapping epoch-keyed ClientDay pairs to slots
// of the aggregator's chunked client-day arena. ctrl holds slot+1 (0
// marks an empty bucket); keys live once, in the aggregator's arena-parallel
// key column, so a probe costs one control load plus one key compare.
// Entries are never deleted one by one (ResetClients empties the whole
// table), and the layout is a deterministic function of the table size
// and the insertion sequence (MergeShards rebuilds it from the sorted
// arena, making it independent of sharding too).
type clientIndex struct {
	ctrl []uint32 // slot+1; 0 = empty
	mask uint32
	n    int
}

// indexSizeFor returns the deterministic table size for n entries: the
// smallest power of two (≥ 16) keeping load at or below 3/4.
func indexSizeFor(n int) int {
	size := 16
	for n*4 > size*3 {
		size <<= 1
	}
	return size
}

// The client-day arena's chunk geometry: chunkLen profiles per chunk.
// A chunk is 32 KiB, under the 64 KiB a snapshot restore may allocate
// beyond what its bytes justify (the one chunk a single decoded entry
// opens), yet long enough that a pass-1 shard holds about a hundred.
const (
	chunkShift = 9
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// arenaChunk is one chunk of the client-day arena: chunkLen profiles
// and the key of each. It holds no pointer, so it is allocated outside
// the collector's scan list.
type arenaChunk struct {
	prof [chunkLen]ClientAgg
	keys [chunkLen]ClientDay
}

// Aggregator is the streaming pass-1 state. Per-name state is indexed
// by the interned name IDs of Table, the run's one name table: workers
// run private aggregators over that same table, reading it only, and
// fold them with MergeShards at the stage barrier. An Aggregator is a
// single-writer structure; it is not safe for concurrent method calls.
type Aggregator struct {
	// Table is the name-ID space of all per-name state. Samples and
	// batches observed, and aggregators merged in, must carry this
	// table (i.e. come from a capture point sharing it).
	Table *names.Table

	// trackAll tracks every observed name per client (the live
	// monitor's mode; affordable because it retains one day of state).
	trackAll bool
	// tracked is the per-client name universe (memory bound), as a
	// bitset over name IDs.
	tracked []bool

	// names holds per-name stats indexed by ID; entries beyond the
	// slice are implicitly zero.
	names []NameStats

	// chunks is the client-day arena: one ClientAgg per observed
	// (client, day) pair, with its key, appended in first-observation
	// order (MergeShards builds its arena in (day, client) order). n
	// counts the slots in use; chunks past them are kept for reuse. idx
	// maps keys to arena slots.
	chunks []*arenaChunk
	n      int
	idx    clientIndex

	// pairs counts the packets of each tracked name per profile, one row
	// per (arena slot, name ID) pair.
	pairs pairTable

	// Samples counts accepted DNS samples.
	Samples int
	// Requests counts query packets.
	Requests int
	// TotalBytes sums DNS message sizes across all samples.
	TotalBytes int
	// ANYPackets / ANYBytes cover the type-ANY subset globally.
	ANYPackets int
	ANYBytes   int

	// Detect scratch columns, reused across calls so the threshold scan
	// allocates nothing in steady state (see Detect).
	detMark []bool
	detCand []uint32
	detTot  []uint32
	detHits []uint32
}

// NewAggregator creates an aggregator over the given interning table (a
// fresh table when nil), tracking the given per-client name universe
// (typically the explicit zone list plus the root name; the candidate
// list is always a subset).
func NewAggregator(tab *names.Table, trackNames []string) *Aggregator {
	if tab == nil {
		tab = names.NewTable()
	}
	ag := &Aggregator{Table: tab}
	for _, n := range trackNames {
		ag.setTracked(tab.Intern(dnswire.CanonicalName(n)))
	}
	return ag
}

// SetTrackAll switches the aggregator to track every observed name per
// client (live-monitor mode).
func (ag *Aggregator) SetTrackAll(v bool) { ag.trackAll = v }

func (ag *Aggregator) setTracked(id uint32) {
	for len(ag.tracked) <= int(id) {
		ag.tracked = append(ag.tracked, false)
	}
	ag.tracked[id] = true
}

func (ag *Aggregator) isTracked(id uint32) bool {
	return ag.trackAll || (int(id) < len(ag.tracked) && ag.tracked[id])
}

// statsFor returns the per-name slot for id, growing the dense slice on
// first sight of a higher ID. A growth sizes the column for the whole
// table, and at least doubles it: over a frozen table (pass 1) the
// column is allocated once, and over a growing one (the live window)
// growth stays amortised.
func (ag *Aggregator) statsFor(id uint32) *NameStats {
	if int(id) >= len(ag.names) {
		if int(id) >= cap(ag.names) {
			grown := make([]NameStats, int(id)+1, max(int(id)+1, ag.Table.Len(), 2*cap(ag.names)))
			copy(grown, ag.names)
			ag.names = grown
		} else {
			ag.names = ag.names[:int(id)+1]
		}
	}
	return &ag.names[id]
}

// NameStatsOf returns the stats of a name (zero when never observed) —
// a report-boundary convenience.
func (ag *Aggregator) NameStatsOf(name string) NameStats {
	id, ok := ag.Table.Lookup(dnswire.CanonicalName(name))
	if !ok || int(id) >= len(ag.names) {
		return NameStats{}
	}
	return ag.names[id]
}

// at returns the profile in arena slot s.
func (ag *Aggregator) at(s uint32) *ClientAgg { return &ag.chunks[s>>chunkShift].prof[s&chunkMask] }

// keyAt returns the key of arena slot s.
func (ag *Aggregator) keyAt(s uint32) ClientDay { return ag.chunks[s>>chunkShift].keys[s&chunkMask] }

// push appends a zeroed profile for key to the arena and returns its
// slot. Crossing a chunk boundary reuses a chunk ResetClients kept or
// appends a new one; no profile ever moves.
func (ag *Aggregator) push(key ClientDay) uint32 {
	s := uint32(ag.n)
	if ag.n>>chunkShift == len(ag.chunks) {
		ag.chunks = append(ag.chunks, new(arenaChunk))
	}
	ag.chunks[s>>chunkShift].keys[s&chunkMask] = key
	ag.n++
	return s
}

// clientFor returns the arena slot of key, appending a zeroed profile on
// first sight (isNew true: the caller must initialize First/Last).
func (ag *Aggregator) clientFor(key ClientDay) (slot uint32, isNew bool) {
	ix := &ag.idx
	if ix.ctrl == nil {
		ix.ctrl = make([]uint32, indexSizeFor(0))
		ix.mask = uint32(len(ix.ctrl) - 1)
	}
	i := key.hashKey() & ix.mask
	for {
		c := ix.ctrl[i]
		if c == 0 {
			slot := ag.push(key)
			ix.ctrl[i] = slot + 1
			ix.n++
			if ix.n*4 > len(ix.ctrl)*3 {
				ag.growIndex()
			}
			return slot, true
		}
		if ag.keyAt(c-1) == key {
			return c - 1, false
		}
		i = (i + 1) & ix.mask
	}
}

// growIndex doubles the probe table and reinserts every arena key. The
// new layout depends only on the old one, so identical insertion
// sequences keep identical tables.
func (ag *Aggregator) growIndex() {
	ag.rebuildIndex(len(ag.idx.ctrl) * 2)
}

// rebuildIndex re-keys the probe table over the current arena at the
// given size (a power of two).
func (ag *Aggregator) rebuildIndex(size int) {
	ctrl := make([]uint32, size)
	mask := uint32(size - 1)
	for slot := range uint32(ag.n) {
		i := ag.keyAt(slot).hashKey() & mask
		for ctrl[i] != 0 {
			i = (i + 1) & mask
		}
		ctrl[i] = slot + 1
	}
	ag.idx = clientIndex{ctrl: ctrl, mask: mask, n: ag.n}
}

// ResetClients releases every (client, day) profile: the arena is
// emptied and the index is cleared in place. It is the live window's
// day-close primitive — once a day's detections are out nothing reads
// its profiles again, so none survive a close. The vacated slots are
// zeroed, as push expects of a slot it hands out, and the tracked rows
// go with their profiles; the chunks, the rows' storage and both
// indexes are kept, so a consumer whose days are of similar size
// allocates for none of them after the first and reaches a steady-state
// arena capacity (ArenaCap). Global and
// per-name statistics are cumulative and unaffected — the reset bounds
// detection state, not the selectors' view.
//
// Returns the number of profiles released.
func (ag *Aggregator) ResetClients() int {
	n := ag.n
	for c := 0; c<<chunkShift < n; c++ {
		used := min(n-c<<chunkShift, chunkLen)
		clear(ag.chunks[c].prof[:used])
		clear(ag.chunks[c].keys[:used])
	}
	ag.n = 0
	clear(ag.idx.ctrl)
	ag.idx.n = 0
	ag.pairs.reset()
	return n
}

// ReleaseNames forgets every name keep rejects, in the table and in the
// per-name column alike (names.Table.Keep), and returns Keep's
// old-to-new ID map for whatever else holds IDs (the live window's
// rankings). keep sees each ID with its statistics, zero for a name
// interned but never observed. Names of the explicit tracked universe
// are configuration and always kept. It is the live window's other
// day-close primitive, called after ResetClients: a held profile's
// tracked rows carry IDs, so calling it with any profile held panics.
func (ag *Aggregator) ReleaseNames(keep func(id uint32, ns *NameStats) bool) []uint32 {
	if ag.n > 0 {
		panic(fmt.Sprintf("core: ReleaseNames with %d client-day profiles held", ag.n))
	}
	var unseen NameStats
	remap := ag.Table.Keep(func(id uint32) bool {
		switch {
		case int(id) < len(ag.tracked) && ag.tracked[id]:
			return true
		case int(id) < len(ag.names):
			return keep(id, &ag.names[id])
		}
		unseen = NameStats{}
		return keep(id, &unseen)
	})
	// Kept IDs only move down, so both columns compact in place.
	n, t := 0, 0
	for old, id := range remap {
		if id == names.Dropped {
			continue
		}
		if old < len(ag.names) {
			ag.names[id] = ag.names[old]
			n = int(id) + 1
		}
		if old < len(ag.tracked) {
			ag.tracked[id] = ag.tracked[old]
			t = int(id) + 1
		}
	}
	clear(ag.names[n:])
	ag.names = ag.names[:n]
	clear(ag.tracked[t:])
	ag.tracked = ag.tracked[:t]
	return remap
}

// ArenaCap exposes the client-day arena's current capacity, its chunks
// times chunkLen — an observability hook: a consumer that resets at
// every day close reaches a steady-state capacity (its largest day's
// profiles rounded up to a whole chunk), which the reset tests assert
// and the service's /metrics endpoint exports.
func (ag *Aggregator) ArenaCap() int { return len(ag.chunks) * chunkLen }

// ClientOf returns the profile of one (client, day) pair, nil when the
// pair was never observed. The pointer is valid until ResetClients.
func (ag *Aggregator) ClientOf(key ClientDay) *ClientAgg {
	if s, ok := ag.slotOf(key); ok {
		return ag.at(s)
	}
	return nil
}

// slotOf returns the arena slot of one (client, day) pair through the
// index; ok is false when the pair was never observed.
func (ag *Aggregator) slotOf(key ClientDay) (slot uint32, ok bool) {
	ix := &ag.idx
	if ix.n == 0 {
		return 0, false
	}
	i := key.hashKey() & ix.mask
	for {
		c := ix.ctrl[i]
		if c == 0 {
			return 0, false
		}
		if ag.keyAt(c-1) == key {
			return c - 1, true
		}
		i = (i + 1) & ix.mask
	}
}

// NumClients returns the number of observed (client, day) pairs.
func (ag *Aggregator) NumClients() int { return ag.n }

// EachClient invokes fn for every observed (client, day) profile, in
// arena order (canonical (day, client) order after MergeShards). It is
// the iteration primitive for reports: a walk of the chunks, no map
// materialization.
func (ag *Aggregator) EachClient(fn func(key ClientDay, ca *ClientAgg)) {
	for s := range uint32(ag.n) {
		fn(ag.keyAt(s), ag.at(s))
	}
}

// observe is the aggregation step of §4 and the only place a packet is
// counted: it folds row r into the global counters, the name's
// statistics, the row's (client, day) profile in arena slot slot, which
// the entry point has already found (profile), and, for a tracked name,
// the slot's row of the pair table. Every entry point runs it per row,
// so live and batch aggregation cannot drift apart.
func (ag *Aggregator) observe(slot uint32, r *ixp.BatchRecord) {
	size := int(r.MsgSize)
	ag.Samples++
	ag.TotalBytes += size
	ns := ag.statsFor(r.Name)
	ns.Packets++
	if r.Resp {
		if size > ns.MaxSize {
			ns.MaxSize = size
		}
	} else {
		ag.Requests++
	}
	ca := ag.at(slot)
	ca.Total++
	ca.Bytes += size
	if r.QType == dnswire.TypeANY {
		ag.ANYPackets++
		ag.ANYBytes += size
		ns.ANYPackets++
		ca.ANYPackets++
		ca.ANYBytes += size
	}
	if r.Time.Before(ca.First) {
		ca.First = r.Time
	}
	if r.Time.After(ca.Last) {
		ca.Last = r.Time
	}
	if ag.isTracked(r.Name) {
		ag.pairs.add(slot, r.Name, 1)
	}
}

// profile returns the arena slot of key's profile through the client
// index, opening it at t on first sight.
func (ag *Aggregator) profile(key ClientDay, t simclock.Time) uint32 {
	slot, isNew := ag.clientFor(key)
	if isNew {
		ca := ag.at(slot)
		ca.First, ca.Last = t, t
	}
	return slot
}

// rowKey is the (client, day) pair a row is attributed to.
func rowKey(r *ixp.BatchRecord) ClientDay {
	return ClientDay{Client: r.Client(), Day: r.Time.Day()}
}

// Observe ingests one sanitized sample — server.Window's arrival-order
// entry point. The row's Name ID must be in the aggregator's table
// space; in steady state it allocates nothing.
func (ag *Aggregator) Observe(r *ixp.BatchRecord) {
	ag.observe(ag.profile(rowKey(r), r.Time), r)
}

// ObserveBatch ingests a whole batch row by row, in the state Observe
// on every row in order would leave. Attack flows emit bursts of rows
// for one (client, day), so a one-entry memo skips the index probe on
// consecutive repeats. The batch must carry the aggregator's table
// (ixp.CapturePoint.RemapBatch, which accounts the batch first, refuses
// any other). In steady state it allocates nothing.
func (ag *Aggregator) ObserveBatch(b *ixp.SampleBatch) {
	if b == nil {
		return
	}
	var lastKey ClientDay
	var slot uint32
	for i := range b.Rows {
		r := &b.Rows[i]
		if key := rowKey(r); i == 0 || key != lastKey {
			slot, lastKey = ag.profile(key, r.Time), key
		}
		ag.observe(slot, r)
	}
}

// ObserveBatchSplit splits one batch between two aggregators at the
// window boundary — rows inside w go to in, every other row to out —
// the pipeline's main/extended-window fan-out. A batch wholly on one
// side of the boundary (the common case; one time-bounds pass decides)
// takes that side's ObserveBatch; a straddling batch finds each row's
// profile through its aggregator's index.
func ObserveBatchSplit(in, out *Aggregator, b *ixp.SampleBatch, w simclock.Window) {
	if b == nil || b.N == 0 {
		return
	}
	minT, maxT := b.Rows[0].Time, b.Rows[0].Time
	for i := range b.Rows {
		t := b.Rows[i].Time
		if t.Before(minT) {
			minT = t
		}
		if t.After(maxT) {
			maxT = t
		}
	}
	switch {
	case !minT.Before(w.Start) && maxT.Before(w.End):
		in.ObserveBatch(b)
	case maxT.Before(w.Start) || !minT.Before(w.End):
		out.ObserveBatch(b)
	default:
		for i := range b.Rows {
			r := &b.Rows[i]
			ag := out
			if w.Contains(r.Time) {
				ag = in
			}
			ag.observe(ag.profile(rowKey(r), r.Time), r)
		}
	}
}

// MergeShards is the batch study's stage barrier: it folds shards, one
// or more single-writer aggregators of one pass over the same table, into
// one aggregator whose state is that of a single aggregator observing
// every sample, with its client-day arena in canonical (day, client)
// order — a function of the key set alone, so the result is
// byte-identical for any sharding of the same sample stream (and Detect
// emits in report order with a near-no-op final sort). A shard over any
// other table than the first's is a wiring bug and panics before
// anything is touched.
//
// Each shard's arena is first sorted in place, one goroutine per shard,
// its tracked rows re-keyed to the sorted slots; the sorted arenas are
// then k-way merged into the result's arena, a client-day that several
// shards hold folding into one profile (sums, maxima and time bounds are
// commutative), and each input chunk is dropped as soon as it is
// consumed. A consumed profile's rows move to its merged slot, where
// counts of one name held by several shards add up, and the merged rows
// end in (slot, ID) order, so they too are independent of the sharding.
// Per-name columns add up ID by ID into the first shard's column. The
// shards are empty afterwards and must not be used again.
func MergeShards(shards []*Aggregator) *Aggregator {
	tab := shards[0].Table
	for _, sh := range shards[1:] {
		if sh.Table != tab {
			panic(fmt.Sprintf("core: MergeShards of an aggregator over a foreign name table (%d names) with one over a %d-name table", sh.Table.Len(), tab.Len()))
		}
	}
	ag := &Aggregator{Table: tab, trackAll: shards[0].trackAll, tracked: shards[0].tracked, names: shards[0].names}
	shards[0].tracked, shards[0].names = nil, nil
	for _, sh := range shards[1:] {
		ag.trackAll = ag.trackAll || sh.trackAll
		for id, t := range sh.tracked {
			if t {
				ag.setTracked(uint32(id))
			}
		}
		for id := range sh.names {
			ons := &sh.names[id]
			if ons.Packets == 0 && ons.MaxSize == 0 && ons.ANYPackets == 0 {
				continue
			}
			ns := ag.statsFor(uint32(id))
			ns.Packets += ons.Packets
			ns.ANYPackets += ons.ANYPackets
			ns.MaxSize = max(ns.MaxSize, ons.MaxSize)
		}
		sh.tracked, sh.names = nil, nil
	}
	for _, sh := range shards {
		ag.Samples += sh.Samples
		ag.Requests += sh.Requests
		ag.TotalBytes += sh.TotalBytes
		ag.ANYPackets += sh.ANYPackets
		ag.ANYBytes += sh.ANYBytes
	}

	var wg sync.WaitGroup
	for _, sh := range shards {
		sh.idx = clientIndex{}
		sh.pairs.ctrl = nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.sortClients()
		}()
	}
	wg.Wait()

	pos := make([]int, len(shards))
	rowPos := make([]int, len(shards))
	for {
		best := -1
		var bestKey ClientDay
		for i, sh := range shards {
			if pos[i] < sh.n {
				if k := sh.keyAt(uint32(pos[i])); best < 0 || k.less(bestKey) < 0 {
					best, bestKey = i, k
				}
			}
		}
		if best < 0 {
			break
		}
		sh := shards[best]
		s := uint32(pos[best])
		if ag.n > 0 && ag.keyAt(uint32(ag.n-1)) == bestKey {
			ag.at(uint32(ag.n - 1)).fold(sh.at(s))
		} else {
			*ag.at(ag.push(bestKey)) = *sh.at(s)
		}
		rows := sh.pairs.rows
		for r := rowPos[best]; r < len(rows) && rows[r].slot == s; r++ {
			ag.pairs.add(uint32(ag.n-1), rows[r].id, rows[r].n)
			rowPos[best] = r + 1
		}
		pos[best]++
		if pos[best]&chunkMask == 0 || pos[best] == sh.n {
			sh.chunks[s>>chunkShift] = nil
		}
	}
	for _, sh := range shards {
		sh.chunks, sh.n, sh.pairs = nil, 0, pairTable{}
	}
	ag.rebuildIndex(indexSizeFor(ag.n))
	ag.pairs.canonicalize()
	return ag
}

// fold adds another profile of the same client-day into a.
func (a *ClientAgg) fold(o *ClientAgg) {
	a.Total += o.Total
	a.Bytes += o.Bytes
	a.ANYPackets += o.ANYPackets
	a.ANYBytes += o.ANYBytes
	if o.First.Before(a.First) {
		a.First = o.First
	}
	if o.Last.After(a.Last) {
		a.Last = o.Last
	}
}

// sortClients sorts the arena into (day, client) order in place: a
// 4-byte-per-profile permutation is sorted by key, then applied cycle by
// cycle, each profile and key moving once. The tracked rows are re-keyed
// to the sorted slots and ordered by (slot, ID); neither index is
// maintained.
func (ag *Aggregator) sortClients() {
	perm := make([]uint32, ag.n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	slices.SortFunc(perm, func(a, b uint32) int { return ag.keyAt(a).less(ag.keyAt(b)) })
	if rows := ag.pairs.rows; len(rows) > 0 {
		to := make([]uint32, ag.n)
		for i, s := range perm {
			to[s] = uint32(i)
		}
		for r := range rows {
			rows[r].slot = to[rows[r].slot]
		}
		ag.pairs.sortRows()
	}
	// perm[i] is the slot whose profile belongs at i; a placed slot is
	// marked perm[i] == i.
	for i := range uint32(len(perm)) {
		if perm[i] == i {
			continue
		}
		ca, key := *ag.at(i), ag.keyAt(i)
		j := i
		for perm[j] != i {
			k := perm[j]
			*ag.at(j), ag.chunks[j>>chunkShift].keys[j&chunkMask] = *ag.at(k), ag.keyAt(k)
			perm[j] = j
			j = k
		}
		*ag.at(j), ag.chunks[j>>chunkShift].keys[j&chunkMask] = ca, key
		perm[j] = j
	}
}
