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
// window's samples, ObserveBatch and ObserveBatchSplit for the batch
// study's columns — runs the same per-row step, which updates the global
// counters, the name's slot in a dense ID-indexed slice and one profile
// of a flat client-day arena. The entry points differ only in how they
// find that profile: an open-addressed index (clientIndex), one hash
// probe instead of a map lookup and a pointer chase, behind a one-entry
// memo on the batch path. Per-client tracked names are sorted ID lists,
// candidate membership is a dense column, and strings appear only at
// report boundaries.
package core

import (
	"cmp"
	"fmt"
	"slices"

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

// NameCount is one (interned name, packet count) entry.
type NameCount struct {
	ID uint32
	N  int
}

// ClientAgg is the per-(client, day) traffic profile.
type ClientAgg struct {
	// Total is the number of sampled DNS packets attributed to the
	// client (source of queries, destination of responses).
	Total int
	// Bytes sums the DNS message sizes (UDP-length derived).
	Bytes int
	// ANYPackets / ANYBytes cover the type-ANY subset.
	ANYPackets int
	ANYBytes   int
	// Tracked counts packets per tracked name (candidate universe),
	// sorted by name ID (strictly increasing). A slice, not a map: most
	// lists are short, and a resolver's list of a thousand names is
	// still a binary search.
	Tracked []NameCount
	// First and Last bound the observed activity.
	First, Last simclock.Time
}

// addTracked bumps the count of one tracked name, keeping the slice
// sorted by ID. The slot is found by binary search: in the pipeline's
// explicit-track mode lists are one or two entries long, but under the
// live window's trackAll mode a resolver client-day tracks every name
// it asked for — over a thousand on the benchmark recordings — and a
// linear scan made the list quadratic to build.
func (a *ClientAgg) addTracked(id uint32, n int) {
	i, found := slices.BinarySearchFunc(a.Tracked, id, func(c NameCount, id uint32) int {
		return cmp.Compare(c.ID, id)
	})
	if found {
		a.Tracked[i].N += n
		return
	}
	a.Tracked = slices.Insert(a.Tracked, i, NameCount{ID: id, N: n})
}

// TrackedCount returns the tracked packet count of one name ID.
func (a *ClientAgg) TrackedCount(id uint32) int {
	for _, c := range a.Tracked {
		if c.ID == id {
			return c.N
		}
	}
	return 0
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
// of the aggregator's flat client-day arena. ctrl holds slot+1 (0 marks
// an empty bucket); keys live once, in the aggregator's arena-parallel
// key column, so a probe costs one control load plus one key compare.
// Entries are never deleted one by one (ResetClients empties the whole
// table), and the layout is a deterministic function of the table size
// and the insertion sequence (CanonicalizeClients rebuilds it from the
// sorted arena, making it independent of sharding too).
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

// Aggregator is the streaming pass-1 state. Per-name state is indexed
// by the interned name IDs of Table, the run's one name table: workers
// run private aggregators over that same table, reading it only, and
// fold them with Merge + CanonicalizeClients at the stage barrier. An
// Aggregator is a single-writer structure; it is not safe for
// concurrent method calls.
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

	// arena is the flat client-day store: one ClientAgg per observed
	// (client, day) pair, appended in first-observation order and
	// re-sorted into (day, client) order by CanonicalizeClients.
	// arenaKeys is the arena-parallel key column; idx maps keys to
	// arena slots.
	arena     []ClientAgg
	arenaKeys []ClientDay
	idx       clientIndex

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
// first sight of a higher ID.
func (ag *Aggregator) statsFor(id uint32) *NameStats {
	if int(id) >= len(ag.names) {
		if int(id) >= cap(ag.names) {
			grown := make([]NameStats, int(id)+1, 1+cap(ag.names)*2+int(id))
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

// clientFor returns the arena profile of key, appending a zeroed slot on
// first sight (isNew true: the caller must initialize First/Last). The
// returned pointer is valid until the next arena growth.
func (ag *Aggregator) clientFor(key ClientDay) (ca *ClientAgg, isNew bool) {
	ix := &ag.idx
	if ix.ctrl == nil {
		ix.ctrl = make([]uint32, indexSizeFor(0))
		ix.mask = uint32(len(ix.ctrl) - 1)
	}
	i := key.hashKey() & ix.mask
	for {
		c := ix.ctrl[i]
		if c == 0 {
			slot := uint32(len(ag.arena))
			if len(ag.arena) == cap(ag.arena) {
				// Double explicitly: the runtime's large-slice growth
				// factor (~1.25x) would copy the arena about twice as
				// often, and this append is the hot path's only grower.
				grown := make([]ClientAgg, len(ag.arena), 2*cap(ag.arena)+16)
				copy(grown, ag.arena)
				ag.arena = grown
				gk := make([]ClientDay, len(ag.arenaKeys), 2*cap(ag.arenaKeys)+16)
				copy(gk, ag.arenaKeys)
				ag.arenaKeys = gk
			}
			ag.arena = append(ag.arena, ClientAgg{})
			ag.arenaKeys = append(ag.arenaKeys, key)
			ix.ctrl[i] = slot + 1
			ix.n++
			if ix.n*4 > len(ix.ctrl)*3 {
				ag.growIndex()
			}
			return &ag.arena[slot], true
		}
		if ag.arenaKeys[c-1] == key {
			return &ag.arena[c-1], false
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
// given size (a power of two). When the current table already has that
// size — CanonicalizeClients: insertions grew it to what its key count
// calls for — its storage is reused (cleared and refilled).
func (ag *Aggregator) rebuildIndex(size int) {
	ctrl := ag.idx.ctrl
	if len(ctrl) == size {
		clear(ctrl)
	} else {
		ctrl = make([]uint32, size)
	}
	mask := uint32(size - 1)
	for slot, key := range ag.arenaKeys {
		i := key.hashKey() & mask
		for ctrl[i] != 0 {
			i = (i + 1) & mask
		}
		ctrl[i] = uint32(slot) + 1
	}
	ag.idx.ctrl = ctrl
	ag.idx.mask = mask
}

// ResetClients releases every (client, day) profile: the arena and its
// key column are truncated and the index is cleared in place. It is the
// live window's day-close primitive — once a day's detections are out
// nothing reads its profiles again, so none survive a close. The
// vacated slots are zeroed so released profiles do not pin their Tracked
// slices through the retained array; arena and index storage are kept,
// so a consumer whose days are of similar size allocates for neither
// after the first and reaches a steady-state arena capacity (ArenaCap).
// Global and per-name statistics are cumulative and unaffected — the
// reset bounds detection state, not the selectors' view.
//
// Returns the number of profiles released.
func (ag *Aggregator) ResetClients() int {
	n := len(ag.arena)
	clear(ag.arena)
	ag.arena = ag.arena[:0]
	ag.arenaKeys = ag.arenaKeys[:0]
	clear(ag.idx.ctrl)
	ag.idx.n = 0
	return n
}

// ReleaseNames forgets every name keep rejects, in the table and in the
// per-name column alike (names.Table.Keep), and returns Keep's
// old-to-new ID map for whatever else holds IDs (the live window's
// rankings). keep sees each ID with its statistics, zero for a name
// interned but never observed. Names of the explicit tracked universe
// are configuration and always kept. It is the live window's other
// day-close primitive, called after ResetClients: a held profile's
// Tracked list carries IDs, so calling it with any profile held panics.
func (ag *Aggregator) ReleaseNames(keep func(id uint32, ns *NameStats) bool) []uint32 {
	if len(ag.arena) > 0 {
		panic(fmt.Sprintf("core: ReleaseNames with %d client-day profiles held", len(ag.arena)))
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

// ArenaCap exposes the client-day arena's current capacity — an
// observability hook: a consumer that resets at every day close reaches
// a steady-state capacity (that of its largest day), which the reset
// tests assert and the service's /metrics endpoint exports.
func (ag *Aggregator) ArenaCap() int { return cap(ag.arena) }

// ClientOf returns the profile of one (client, day) pair, nil when the
// pair was never observed. The pointer is valid until the aggregator
// observes more traffic.
func (ag *Aggregator) ClientOf(key ClientDay) *ClientAgg {
	ix := &ag.idx
	if ix.n == 0 {
		return nil
	}
	i := key.hashKey() & ix.mask
	for {
		c := ix.ctrl[i]
		if c == 0 {
			return nil
		}
		if ag.arenaKeys[c-1] == key {
			return &ag.arena[c-1]
		}
		i = (i + 1) & ix.mask
	}
}

// NumClients returns the number of observed (client, day) pairs.
func (ag *Aggregator) NumClients() int { return len(ag.arena) }

// EachClient invokes fn for every observed (client, day) profile, in
// arena order (canonical (day, client) order after CanonicalizeClients).
// It is the iteration primitive for reports: a contiguous slice walk, no
// map materialization.
func (ag *Aggregator) EachClient(fn func(key ClientDay, ca *ClientAgg)) {
	for i := range ag.arena {
		fn(ag.arenaKeys[i], &ag.arena[i])
	}
}

// observe is the aggregation step of §4 and the only place a packet is
// counted: it folds one packet — at t, of name id, size bytes, of type
// ANY or not, a response or a query — into the global counters, the
// name's statistics and ca, the packet's (client, day) profile, which
// the entry point has already found (profile). Every entry point runs
// it per row, so live and batch aggregation cannot drift apart.
func (ag *Aggregator) observe(ca *ClientAgg, t simclock.Time, id uint32, size int, isANY, isResp bool) {
	ag.Samples++
	ag.TotalBytes += size
	ns := ag.statsFor(id)
	ns.Packets++
	if isResp {
		if size > ns.MaxSize {
			ns.MaxSize = size
		}
	} else {
		ag.Requests++
	}
	ca.Total++
	ca.Bytes += size
	if isANY {
		ag.ANYPackets++
		ag.ANYBytes += size
		ns.ANYPackets++
		ca.ANYPackets++
		ca.ANYBytes += size
	}
	if t.Before(ca.First) {
		ca.First = t
	}
	if t.After(ca.Last) {
		ca.Last = t
	}
	if ag.isTracked(id) {
		ca.addTracked(id, 1)
	}
}

// profile returns key's profile through the client index, opening it at
// t on first sight. The pointer is valid until the next profile call.
func (ag *Aggregator) profile(key ClientDay, t simclock.Time) *ClientAgg {
	ca, isNew := ag.clientFor(key)
	if isNew {
		ca.First, ca.Last = t, t
	}
	return ca
}

// rowKey is the (client, day) pair a batch row is attributed to: the
// querier of a query, the destination of a response.
func rowKey(b *ixp.SampleBatch, i int) ClientDay {
	client := b.Src[i]
	if b.Resp[i] {
		client = b.Dst[i]
	}
	return ClientDay{Client: client, Day: b.Time[i].Day()}
}

// observeRow folds batch row i into ag, whose profile of the row is ca.
func (ag *Aggregator) observeRow(ca *ClientAgg, b *ixp.SampleBatch, i int) {
	ag.observe(ca, b.Time[i], b.Name[i], int(b.MsgSize[i]), b.QType[i] == dnswire.TypeANY, b.Resp[i])
}

// Observe ingests one sanitized sample — server.Window's arrival-order
// entry point. The sample's Name ID must be in the aggregator's table
// space; in steady state it allocates nothing.
func (ag *Aggregator) Observe(s *ixp.DNSSample) {
	ca := ag.profile(ClientDay{Client: s.ClientAddr(), Day: s.Time.Day()}, s.Time)
	ag.observe(ca, s.Time, s.Name, s.MsgSize, s.QType == dnswire.TypeANY, s.IsResponse)
}

// ObserveBatch ingests a whole columnar batch row by row, in the state
// Observe on every row in order would leave. Attack flows emit bursts of
// rows for one (client, day), so a one-entry memo skips the index probe
// on consecutive repeats; the memo is refreshed on every probe, which is
// also when the arena can grow. The batch must carry the aggregator's
// table (ixp.CapturePoint.RemapBatch, which accounts the batch first,
// refuses any other). In steady state it allocates nothing.
func (ag *Aggregator) ObserveBatch(b *ixp.SampleBatch) {
	if b == nil {
		return
	}
	var lastKey ClientDay
	var ca *ClientAgg
	for i := 0; i < b.N; i++ {
		if key := rowKey(b, i); ca == nil || key != lastKey {
			ca, lastKey = ag.profile(key, b.Time[i]), key
		}
		ag.observeRow(ca, b, i)
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
	minT, maxT := b.Time[0], b.Time[0]
	for _, t := range b.Time[1:b.N] {
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
		for i := 0; i < b.N; i++ {
			ag := out
			if w.Contains(b.Time[i]) {
				ag = in
			}
			ag.observeRow(ag.profile(rowKey(b, i), b.Time[i]), b, i)
		}
	}
}

// Merge folds another aggregator's state into ag: per-name stats add
// up ID by ID and the client-day arena folds slot-wise through ag's
// index. Both must be over the same name table — a shard over any other
// table is a wiring bug and panics. Aggregation is commutative (sums,
// maxima, and time bounds), so merging shards in any order — followed
// by CanonicalizeClients — yields the same state as a single aggregator
// observing every sample: the property the parallel pipeline relies on.
// The other aggregator must not be used afterwards.
func (ag *Aggregator) Merge(other *Aggregator) {
	if other == nil {
		return
	}
	if other.Table != ag.Table {
		panic(fmt.Sprintf("core: Merge of an aggregator over a foreign name table (%d names) into one over a %d-name table", other.Table.Len(), ag.Table.Len()))
	}

	ag.trackAll = ag.trackAll || other.trackAll
	for id, t := range other.tracked {
		if t {
			ag.setTracked(uint32(id))
		}
	}
	ag.Samples += other.Samples
	ag.Requests += other.Requests
	ag.TotalBytes += other.TotalBytes
	ag.ANYPackets += other.ANYPackets
	ag.ANYBytes += other.ANYBytes

	for id := range other.names {
		ons := &other.names[id]
		if ons.Packets == 0 && ons.MaxSize == 0 && ons.ANYPackets == 0 {
			continue
		}
		ns := ag.statsFor(uint32(id))
		ns.Packets += ons.Packets
		ns.ANYPackets += ons.ANYPackets
		if ons.MaxSize > ns.MaxSize {
			ns.MaxSize = ons.MaxSize
		}
	}

	for slot := range other.arena {
		oca := &other.arena[slot]
		ca, isNew := ag.clientFor(other.arenaKeys[slot])
		if isNew {
			ca.First, ca.Last = oca.First, oca.Last
		} else {
			if oca.First.Before(ca.First) {
				ca.First = oca.First
			}
			if oca.Last.After(ca.Last) {
				ca.Last = oca.Last
			}
		}
		ca.Total += oca.Total
		ca.Bytes += oca.Bytes
		ca.ANYPackets += oca.ANYPackets
		ca.ANYBytes += oca.ANYBytes
		for _, tc := range oca.Tracked {
			ca.addTracked(tc.ID, tc.N)
		}
	}
}

// CanonicalizeClients re-sorts the client-day arena into (day, client)
// order and rebuilds the index from the sorted keys. It is the stage
// barrier after Merge: every shard aggregated in the one shared table,
// so name IDs are already identical for any sharding, and once the
// arena order and index layout are functions of the key set alone the
// aggregator's state is byte-identical for any sharding of the same
// sample stream. The sorted arena is also what lets Detect emit
// detections in report order with a near-no-op final sort.
func (ag *Aggregator) CanonicalizeClients() {
	order := make([]uint32, len(ag.arena))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return ag.arenaKeys[a].less(ag.arenaKeys[b])
	})
	arena := make([]ClientAgg, len(ag.arena))
	keys := make([]ClientDay, len(ag.arena))
	for ni, oi := range order {
		arena[ni] = ag.arena[oi]
		keys[ni] = ag.arenaKeys[oi]
	}
	ag.arena = arena
	ag.arenaKeys = keys
	ag.rebuildIndex(indexSizeFor(len(keys)))
	ag.idx.n = len(keys)
}

// CandidateSet is the set of candidate (misused) name IDs in one
// aggregator's table space. It is a small ID set, not a table-sized
// bitset: candidate lists are tens of names while a long-lived table
// (the live window's) accretes hundreds of thousands, and membership
// checks only run per client-day, not per packet.
type CandidateSet struct {
	ids map[uint32]bool
}

// CandidateSet resolves a candidate name set into the aggregator's ID
// space. Names the aggregator never saw are ignored (they cannot have
// packet counts).
func (ag *Aggregator) CandidateSet(candidates map[string]bool) CandidateSet {
	cs := CandidateSet{ids: make(map[uint32]bool, len(candidates))}
	for n, ok := range candidates {
		if !ok {
			continue
		}
		if id, found := ag.Table.Lookup(dnswire.CanonicalName(n)); found {
			cs.ids[id] = true
		}
	}
	return cs
}

// Contains reports candidate membership of a name ID.
func (cs CandidateSet) Contains(id uint32) bool { return cs.ids[id] }

// ShareOf returns the misused-name traffic share of a client profile
// with respect to a candidate set.
func (a *ClientAgg) ShareOf(cs CandidateSet) (share float64, candPackets int) {
	for _, tc := range a.Tracked {
		if cs.Contains(tc.ID) {
			candPackets += tc.N
		}
	}
	if a.Total == 0 {
		return 0, 0
	}
	return float64(candPackets) / float64(a.Total), candPackets
}
