package core

import (
	"net/netip"
	"slices"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// Thresholds are the two detection thresholds of §4.2.
type Thresholds struct {
	// MinShare is the minimum misused-name traffic share per
	// (client, day) (paper: 0.90).
	MinShare float64
	// MinPackets is the minimum sampled packet count (paper: 10).
	MinPackets int
}

// DefaultThresholds returns the paper's configuration.
func DefaultThresholds() Thresholds { return Thresholds{MinShare: 0.90, MinPackets: 10} }

// Detection is one detected attack: a (victim IP, day) pair exceeding
// both thresholds.
type Detection struct {
	Victim [4]byte
	Day    int
	// Packets is the total sampled packet count of the pair.
	Packets int
	// CandidatePackets is the misused-name subset.
	CandidatePackets int
	// Share is CandidatePackets / Packets.
	Share       float64
	First, Last simclock.Time
}

// Detect applies the thresholds to pass-1 aggregates. The candidate set
// is resolved once into a dense mark column over the aggregator's ID
// space; the sweep is then columnar: one pass over the tracked rows sums
// each slot's candidate packets (cand[slot] += n where mark[id]), one
// walk of the chunked arena extracts its total, both into contiguous
// uint32 columns, and the minimum-packet threshold runs as a
// branch-light integer pass over those columns (the share division only
// happens for the rare candidate-bearing survivors). On an aggregator
// out of MergeShards the arena is already in (day, victim) order, so
// the final deterministic sort is a near-no-op; it is kept so other
// aggregators (the live window's) report in the same order. The scan
// reuses the aggregator's scratch columns and allocates only for
// emitted detections.
func Detect(ag *Aggregator, candidates map[string]bool, th Thresholds) []*Detection {
	n := ag.n
	if n == 0 || !ag.markCandidates(candidates) {
		return nil
	}

	// Column passes: per-slot candidate and total packet counts.
	if cap(ag.detTot) < n {
		ag.detTot = make([]uint32, n)
	} else {
		ag.detTot = ag.detTot[:n]
	}
	cand, tot := ag.candidateColumn(), ag.detTot
	for i := range uint32(n) {
		tot[i] = uint32(ag.at(i).Total)
	}

	// Threshold scan: integer compares over two contiguous columns.
	minP := th.MinPackets
	if minP < 0 {
		minP = 0
	}
	minPackets := uint32(minP)
	// The nil check is not redundant: slicing nil stays nil, and the
	// hits column must end non-nil after every sweep so aggregators
	// with different Detect histories (e.g. a re-Detect after a
	// hit-bearing run vs a single no-hit run) stay reflect.DeepEqual —
	// the determinism contract the pipeline's golden tests compare by.
	hits := ag.detHits
	if hits == nil {
		hits = []uint32{}
	}
	hits = hits[:0]
	for i, c := range cand[:n] {
		if c != 0 && tot[i] >= minPackets {
			hits = append(hits, uint32(i))
		}
	}
	ag.detHits = hits

	var out []*Detection
	for _, i := range hits {
		ca := ag.at(i)
		share := float64(cand[i]) / float64(ca.Total)
		if share < th.MinShare {
			continue
		}
		key := ag.keyAt(i)
		out = append(out, &Detection{
			Victim: key.Client, Day: key.Day,
			Packets: ca.Total, CandidatePackets: int(cand[i]), Share: share,
			First: ca.First, Last: ca.Last,
		})
	}
	slices.SortFunc(out, func(a, b *Detection) int {
		if a.Day != b.Day {
			return a.Day - b.Day
		}
		return cmpAddr(a.Victim, b.Victim)
	})
	return out
}

// markCandidates resolves candidates into the dense mark column over
// the table (the aggregator's scratch), reporting whether any resolved.
// Names the aggregator never saw are ignored: they cannot have packet
// counts.
func (ag *Aggregator) markCandidates(candidates map[string]bool) bool {
	tl := ag.Table.Len()
	if cap(ag.detMark) < tl {
		ag.detMark = make([]bool, tl)
	} else {
		ag.detMark = ag.detMark[:tl]
		clear(ag.detMark)
	}
	resolved := false
	for name, ok := range candidates {
		if !ok {
			continue
		}
		if id, found := ag.Table.Lookup(dnswire.CanonicalName(name)); found {
			ag.detMark[id] = true
			resolved = true
		}
	}
	return resolved
}

// candidateColumn sums, per arena slot, the packets of the names
// markCandidates marked — one sweep over the tracked rows — into the
// aggregator's scratch column and returns it.
func (ag *Aggregator) candidateColumn() []uint32 {
	if cap(ag.detCand) < ag.n {
		ag.detCand = make([]uint32, ag.n)
	} else {
		ag.detCand = ag.detCand[:ag.n]
		clear(ag.detCand)
	}
	cand, mark := ag.detCand, ag.detMark
	for _, r := range ag.pairs.rows {
		if mark[r.id] {
			cand[r.slot] += uint32(r.n)
		}
	}
	return cand
}

// CandidatePackets returns a new column holding, per client-day in
// EachClient order, its packets of candidate names: the numerator of
// the §4.2 traffic share, whose denominator is the profile's Total.
func (ag *Aggregator) CandidatePackets(candidates map[string]bool) []uint32 {
	out := make([]uint32, ag.n)
	if ag.n > 0 && ag.markCandidates(candidates) {
		copy(out, ag.candidateColumn())
	}
	return out
}

func cmpAddr(a, b [4]byte) int {
	for i := range a {
		if a[i] != b[i] {
			return int(a[i]) - int(b[i])
		}
	}
	return 0
}

// AttackRecord carries the per-attack details collected in pass 2 for
// the analyses of §5–§7.
type AttackRecord struct {
	Victim [4]byte
	Day    int

	First, Last simclock.Time

	Packets   int
	Requests  int
	Responses int

	// Names counts packets per misused name. It is materialized from
	// the collector's candidate-indexed counters when Records() is
	// called (the report boundary).
	Names map[string]int
	// nameCounts is the hot-path form: packets per candidate index (the
	// collector's sorted candidate list).
	nameCounts []int

	// ANYPackets counts type-ANY packets.
	ANYPackets int

	// TXIDs counts DNS transaction IDs (queries and responses).
	TXIDs map[uint16]int

	// Amplifiers counts response packets per amplifier address.
	Amplifiers map[[4]byte]int

	// Sizes holds observed response sizes (bytes, from UDP length).
	Sizes []int

	// ReqIngress counts request packets per ingress member AS.
	ReqIngress map[uint32]int
	// ReqTTLs counts request packets per IP TTL value.
	ReqTTLs map[uint8]int

	// VictimASN is the victim's origin AS (from routing data).
	VictimASN uint32
}

// DominantName returns the most frequent misused name of the attack.
func (r *AttackRecord) DominantName() string {
	best, name := 0, ""
	for n, c := range r.Names {
		if c > best || (c == best && n < name) {
			best, name = c, n
		}
	}
	return name
}

// Duration returns the observed attack span.
func (r *AttackRecord) Duration() simclock.Duration { return r.Last.Sub(r.First) }

// Candidates is a misused-name list resolved against one name table:
// the sorted candidate names, whose positions index per-record name
// counts, and a dense column from name ID to position + 1 (0 = not a
// candidate) that rejects a row with one load. The column reaches the
// highest candidate ID, which may sit anywhere in a table of millions
// of names, so a pass builds it once and every collector of the pass
// shares it; it is read-only once built.
type Candidates struct {
	names []string
	slot  []int32
}

// NewCandidates resolves candidates against tab, interning names the
// table has not met. It writes to tab only for such names, so a caller
// sharing tab with concurrent readers builds it before they start.
func NewCandidates(tab *names.Table, candidates map[string]bool) *Candidates {
	cs := &Candidates{}
	for n, ok := range candidates {
		if ok {
			cs.names = append(cs.names, dnswire.CanonicalName(n))
		}
	}
	slices.Sort(cs.names)
	cs.names = slices.Compact(cs.names)
	ids := make([]uint32, len(cs.names))
	for i, n := range cs.names {
		ids[i] = tab.Intern(n)
	}
	if len(ids) > 0 {
		cs.slot = make([]int32, slices.Max(ids)+1)
		for i, id := range ids {
			cs.slot[id] = int32(i + 1)
		}
	}
	return cs
}

// Collector is the pass-2 stage: given the detected (victim, day) pairs,
// it extracts per-attack details from a second streaming pass. It
// operates on name IDs of its candidates' table; candidate names become
// strings again only in Records().
type Collector struct {
	cands  *Candidates
	wanted map[ClientDay]*AttackRecord
	// VisibleNS records the decodable NS-record count of every attack
	// response sample (the NXNS check of §4.2).
	VisibleNS []int
}

// NewCollector prepares pass 2 for the given detections over a resolved
// candidate list. The batches or capture point feeding the collector
// must be in the table the candidates were resolved against. Collectors
// over the same candidates are mergeable. A collector allocates in the
// number of detections and candidates only, never in the table's size.
func NewCollector(cands *Candidates, dets []*Detection) *Collector {
	c := &Collector{cands: cands, wanted: make(map[ClientDay]*AttackRecord, len(dets))}
	for _, d := range dets {
		c.wanted[ClientDay{Client: d.Victim, Day: d.Day}] = &AttackRecord{
			Victim: d.Victim, Day: d.Day,
			First: d.First, Last: d.Last,
			nameCounts: make([]int, len(cands.names)),
			TXIDs:      make(map[uint16]int),
			Amplifiers: make(map[[4]byte]int),
			ReqIngress: make(map[uint32]int),
			ReqTTLs:    make(map[uint8]int),
		}
	}
	return c
}

// ObserveBatch ingests a whole batch during pass 2. The rows' Name IDs
// must be in the candidates' table space. Rows of other names reject on
// the dense candidate column (one compare and one load, no hashing);
// only accepted request rows pay a routing lookup, so the pass-2 sweep
// never annotates packets it is about to drop. topo supplies the ingress
// member AS for request rows whose Ingress is zero (nil skips the
// lookup, recording ingress 0).
func (c *Collector) ObserveBatch(b *ixp.SampleBatch, topo *topology.Topology) {
	slot := c.cands.slot
	if b == nil || b.N == 0 || len(slot) == 0 || len(c.wanted) == 0 {
		return
	}
	for i := range b.Rows {
		r := &b.Rows[i]
		if int(r.Name) >= len(slot) || slot[r.Name] == 0 {
			continue
		}
		rec := c.wanted[ClientDay{Client: r.Client(), Day: r.Time.Day()}]
		if rec == nil {
			continue
		}
		rec.Packets++
		rec.nameCounts[slot[r.Name]-1]++
		rec.TXIDs[r.TXID]++
		if r.QType == dnswire.TypeANY {
			rec.ANYPackets++
		}
		if r.Resp {
			rec.Responses++
			rec.Amplifiers[r.Src]++
			rec.Sizes = append(rec.Sizes, int(r.MsgSize))
			c.VisibleNS = append(c.VisibleNS, int(r.VisibleNS))
		} else {
			rec.Requests++
			peer := r.Ingress
			if peer == 0 && topo != nil {
				peer = topo.PeerHopAS(netip.AddrFrom4(r.Src))
			}
			rec.ReqIngress[peer]++
			rec.ReqTTLs[r.IPTTL]++
		}
		if r.Time.Before(rec.First) {
			rec.First = r.Time
		}
		if r.Time.After(rec.Last) {
			rec.Last = r.Time
		}
	}
}

// merge folds another partial record for the same (victim, day) into r.
// Sizes are appended in call order, so merging partials in day order
// reproduces a serial pass's observation order. Both records must come
// from collectors over the same candidate set.
func (r *AttackRecord) merge(o *AttackRecord) {
	r.Packets += o.Packets
	r.Requests += o.Requests
	r.Responses += o.Responses
	r.ANYPackets += o.ANYPackets
	for i, c := range o.nameCounts {
		r.nameCounts[i] += c
	}
	for id, c := range o.TXIDs {
		r.TXIDs[id] += c
	}
	for a, c := range o.Amplifiers {
		r.Amplifiers[a] += c
	}
	r.Sizes = append(r.Sizes, o.Sizes...)
	for as, c := range o.ReqIngress {
		r.ReqIngress[as] += c
	}
	for ttl, c := range o.ReqTTLs {
		r.ReqTTLs[ttl] += c
	}
	if o.First.Before(r.First) {
		r.First = o.First
	}
	if o.Last.After(r.Last) {
		r.Last = o.Last
	}
}

// Merge folds another collector's observations into c. Records present
// in both are combined key-wise; VisibleNS (and per-record sizes) are
// appended in call order, so merging per-day partial collectors in day
// order yields exactly the state of one collector observing the full
// stream serially. Both collectors must be over the same candidates.
// The other collector must not be used afterwards.
func (c *Collector) Merge(o *Collector) {
	for key, orec := range o.wanted {
		rec := c.wanted[key]
		if rec == nil {
			c.wanted[key] = orec
			continue
		}
		rec.merge(orec)
	}
	c.VisibleNS = append(c.VisibleNS, o.VisibleNS...)
}

// SetVictimASN annotates a record's victim origin AS.
func (c *Collector) SetVictimASN(lookup func([4]byte) uint32) {
	for _, rec := range c.wanted {
		rec.VictimASN = lookup(rec.Victim)
	}
}

// Records returns the collected attack records, sorted by (day, victim),
// with per-name packet counts materialized as name strings.
func (c *Collector) Records() []*AttackRecord {
	out := make([]*AttackRecord, 0, len(c.wanted))
	for _, r := range c.wanted {
		if r.Names == nil {
			r.Names = make(map[string]int)
			for i, n := range r.nameCounts {
				if n > 0 {
					r.Names[c.cands.names[i]] = n
				}
			}
		}
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *AttackRecord) int {
		if a.Day != b.Day {
			return a.Day - b.Day
		}
		return cmpAddr(a.Victim, b.Victim)
	})
	return out
}

// ValidateDetection measures the detection rate for visible ground-truth
// attacks under a candidate list and thresholds (Fig. 6): the fraction
// of visible ground-truth attacks with a (victim, day) that Detect flags.
// Only attacks with a day of at least MinPackets packets can be
// detected; the paper reports the rate over those.
func ValidateDetection(ag *Aggregator, visible []GroundTruthAttack, candidates map[string]bool, th Thresholds) float64 {
	if len(visible) == 0 {
		return 0
	}
	flagged := make(map[ClientDay]bool)
	for _, d := range Detect(ag, candidates, th) {
		flagged[ClientDay{Client: d.Victim, Day: d.Day}] = true
	}
	detected := 0
	total := 0
	for _, gt := range visible {
		vis, hit := false, false
		for _, d := range gt.Days() {
			cd := ClientDay{Client: gt.Victim, Day: d}
			if ca := ag.ClientOf(cd); ca != nil && ca.Total >= th.MinPackets {
				vis = true
			}
			hit = hit || flagged[cd]
		}
		if vis {
			total++
			if hit {
				detected++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(detected) / float64(total)
}

// VisibilityCurve computes Fig. 5's curves: for each minimum packet
// threshold, the fraction of ground-truth attacks (and of all client
// days) that remain visible, plus the number of detections under the
// share threshold.
type VisibilityPoint struct {
	MinPackets       int
	GroundTruthShare float64
	AllFlowsShare    float64
	Detections       int
}

// VisibilityCurve sweeps the minimum packet threshold.
func VisibilityCurve(ag *Aggregator, visible []GroundTruthAttack, candidates map[string]bool, share float64, thresholds []int) []VisibilityPoint {
	// Pre-compute ground-truth per-attack max daily packet count.
	var gtMax []int
	for _, gt := range visible {
		best := 0
		for _, d := range gt.Days() {
			if ca := ag.ClientOf(ClientDay{Client: gt.Victim, Day: d}); ca != nil && ca.Total > best {
				best = ca.Total
			}
		}
		if best > 0 {
			gtMax = append(gtMax, best)
		}
	}
	var out []VisibilityPoint
	for _, mp := range thresholds {
		pt := VisibilityPoint{MinPackets: mp}
		vis := 0
		for _, v := range gtMax {
			if v >= mp {
				vis++
			}
		}
		if len(gtMax) > 0 {
			pt.GroundTruthShare = float64(vis) / float64(len(gtMax))
		}
		all, allVis := 0, 0
		ag.EachClient(func(_ ClientDay, ca *ClientAgg) {
			all++
			if ca.Total >= mp {
				allVis++
			}
		})
		if all > 0 {
			pt.AllFlowsShare = float64(allVis) / float64(all)
		}
		pt.Detections = len(Detect(ag, candidates, Thresholds{MinShare: share, MinPackets: mp}))
		out = append(out, pt)
	}
	return out
}
