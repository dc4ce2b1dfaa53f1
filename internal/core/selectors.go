package core

import (
	"fmt"
	"slices"
	"strings"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/par"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
)

// SelectorResult is one selector's ranked name list.
type SelectorResult struct {
	// Ranked is the full ranking, best first.
	Ranked []string
}

// Top returns the first n names of the ranking.
func (r SelectorResult) Top(n int) []string {
	if n > len(r.Ranked) {
		n = len(r.Ranked)
	}
	return r.Ranked[:n]
}

// TopSet returns the first n names as a set.
func (r SelectorResult) TopSet(n int) map[string]bool {
	return stats.SetOf(r.Top(n))
}

// scoreMaxSize and scoreANYCount are the two streaming selector scores.
func scoreMaxSize(ns *NameStats) int  { return ns.MaxSize }
func scoreANYCount(ns *NameStats) int { return ns.ANYPackets }

// Selector1MaxSize ranks names by the maximum observed response size
// (§4.1, Selector 1).
func Selector1MaxSize(ag *Aggregator) SelectorResult {
	return rankNames(ag, scoreMaxSize)
}

// Selector2ANYCount ranks names by the number of ANY packets (§4.1,
// Selector 2).
func Selector2ANYCount(ag *Aggregator) SelectorResult {
	return rankNames(ag, scoreANYCount)
}

// nv is one (name, score) entry of a full ranking. rankNames resolves
// every scored name to its string and sorts the lot, which suits the
// once-per-study report and makes it the reference the bounded TopN is
// tested against; the periodic live refresh uses TopN instead.
type nv struct {
	name string
	v    int
}

func sortRanking(list []nv) []string {
	slices.SortFunc(list, func(a, b nv) int {
		if a.v != b.v {
			return b.v - a.v
		}
		return strings.Compare(a.name, b.name)
	})
	ranked := make([]string, len(list))
	for i, e := range list {
		ranked[i] = e.name
	}
	return ranked
}

func rankNames(ag *Aggregator, score func(*NameStats) int) SelectorResult {
	list := make([]nv, 0, len(ag.names))
	for id := range ag.names {
		if s := score(&ag.names[id]); s > 0 {
			list = append(list, nv{ag.Table.Name(uint32(id)), s})
		}
	}
	return SelectorResult{Ranked: sortRanking(list)}
}

// TopN is a bounded selector ranking: the first n entries of the full
// ranking (score descending, then name ascending, scores ≤ 0 excluded),
// held as name IDs. Names are resolved to strings only to break score
// ties, so a Rescan is one linear pass over the per-name stats with no
// sort, and an Offer costs O(n). A TopN is derived state: rebuild it
// with Rescan whenever the aggregator is replaced or restored.
type TopN struct {
	n     int
	score func(*NameStats) int
	ent   []idScore // ranking order, len ≤ n
}

type idScore struct {
	id uint32
	v  int
}

// NewTopNMaxSize returns the bounded form of Selector1MaxSize.
func NewTopNMaxSize(n int) *TopN { return &TopN{n: n, score: scoreMaxSize} }

// NewTopNANYCount returns the bounded form of Selector2ANYCount.
func NewTopNANYCount(n int) *TopN { return &TopN{n: n, score: scoreANYCount} }

// Rescan rebuilds the ranking from every name of ag.
func (t *TopN) Rescan(ag *Aggregator) {
	t.ent = t.ent[:0]
	for id := range ag.names {
		t.insert(ag, idScore{uint32(id), t.score(&ag.names[id])})
	}
}

// Offer re-scores one name after ag observed it and reports whether the
// name newly entered the ranking. Offering every name observed since the
// last Rescan or Offer keeps the ranking exact provided scores never
// decrease in between — true of Observe, and ResetClients leaves
// per-name stats alone — because the new top n is then a subset of the
// old top n plus the names observed.
func (t *TopN) Offer(ag *Aggregator, id uint32) bool {
	if int(id) >= len(ag.names) {
		return false
	}
	e := idScore{id, t.score(&ag.names[id])}
	for i := range t.ent {
		if t.ent[i].id == id {
			t.ent[i].v = e.v
			t.siftUp(ag, i)
			return false
		}
	}
	return t.insert(ag, e)
}

// insert places a non-member entry, displacing the last one when the
// ranking is full; it reports whether e made the cut.
func (t *TopN) insert(ag *Aggregator, e idScore) bool {
	if e.v <= 0 {
		return false
	}
	if len(t.ent) < t.n {
		t.ent = append(t.ent, e)
	} else if t.n > 0 && t.before(ag, e, t.ent[t.n-1]) {
		t.ent[t.n-1] = e
	} else {
		return false
	}
	t.siftUp(ag, len(t.ent)-1)
	return true
}

// siftUp moves entry i toward the front until the ranking order holds.
func (t *TopN) siftUp(ag *Aggregator, i int) {
	for ; i > 0 && t.before(ag, t.ent[i], t.ent[i-1]); i-- {
		t.ent[i], t.ent[i-1] = t.ent[i-1], t.ent[i]
	}
}

// before is sortRanking's order on ID entries.
func (t *TopN) before(ag *Aggregator, a, b idScore) bool {
	if a.v != b.v {
		return a.v > b.v
	}
	return ag.Table.Name(a.id) < ag.Table.Name(b.id)
}

// Floor returns the score of the ranking's last entry and whether the
// ranking is full. Scores only grow, so once full the floor only rises:
// a name scoring strictly below it now can never enter.
func (t *TopN) Floor() (v int, full bool) {
	if t.n == 0 || len(t.ent) < t.n {
		return 0, false
	}
	return t.ent[len(t.ent)-1].v, true
}

// Remap renumbers the ranking after Aggregator.ReleaseNames; remap is
// the map it returned. A release must keep every ranked name, so a
// ranked name remap drops panics. Ties break by name, not by ID, so the
// order stands. Offer stays exact across the release provided every
// released name scored strictly below a full ranking's floor: it returns
// with its score restarted, and its old score could not rank either.
func (t *TopN) Remap(remap []uint32) {
	for i := range t.ent {
		id := remap[t.ent[i].id]
		if id == names.Dropped {
			panic(fmt.Sprintf("core: name release dropped ranked name ID %d", t.ent[i].id))
		}
		t.ent[i].id = id
	}
}

// Names resolves the ranking to strings, best first.
func (t *TopN) Names(ag *Aggregator) []string {
	out := make([]string, len(t.ent))
	for i, e := range t.ent {
		out[i] = ag.Table.Name(e.id)
	}
	return out
}

// GroundTruthAttack is a honeypot-reported attack (victim and time span)
// used by Selector 3 and for threshold validation.
type GroundTruthAttack struct {
	Victim [4]byte
	Start  simclock.Time
	End    simclock.Time
}

// Days enumerates the day keys the attack spans.
func (g GroundTruthAttack) Days() []int {
	var out []int
	for d := g.Start.Day(); d <= g.End.Day(); d++ {
		out = append(out, d)
	}
	return out
}

// Selector3GroundTruth ranks names by their packet counts in IXP traffic
// associated with honeypot attack victims at attack time (§4.1,
// Selector 3). It also returns the set of ground-truth attacks for which
// any IXP DNS traffic was found ("we find DNS attack traffic for 16% of
// all CCC DNS attack events").
func Selector3GroundTruth(ag *Aggregator, attacks []GroundTruthAttack) (SelectorResult, []GroundTruthAttack) {
	// weight[slot] counts the attack-days that name the slot's
	// client-day; one sweep over the tracked rows then credits each name
	// with its packets there, once per such attack-day.
	weight := make([]int, ag.n)
	var visible []GroundTruthAttack
	for _, gt := range attacks {
		found := false
		for _, d := range gt.Days() {
			if s, ok := ag.slotOf(ClientDay{Client: gt.Victim, Day: d}); ok {
				weight[s]++
				found = true
			}
		}
		if found {
			visible = append(visible, gt)
		}
	}
	counts := make(map[uint32]int)
	for _, r := range ag.pairs.rows {
		if w := weight[r.slot]; w > 0 {
			counts[r.id] += w * r.n
		}
	}
	list := make([]nv, 0, len(counts))
	for id, v := range counts {
		list = append(list, nv{ag.Table.Name(id), v})
	}
	return SelectorResult{Ranked: sortRanking(list)}, visible
}

// ConsensusPoint computes the selector-consensus curve (Fig. 3): the
// Jaccard index of the selectors' top-N sets for N = 1..maxN, and
// returns the N with the highest consensus (ties resolved toward the
// larger N, matching the paper's choice of the knee at 29).
func ConsensusPoint(maxN int, selectors ...SelectorResult) (bestN int, curve []float64) {
	return ConsensusPointParallel(maxN, 1, selectors...)
}

// ConsensusPointParallel is ConsensusPoint with the sweep over N fanned
// out across up to concurrency goroutines. Every N is independent, so
// the curve — and the chosen consensus point — is identical for any
// concurrency level.
func ConsensusPointParallel(maxN, concurrency int, selectors ...SelectorResult) (bestN int, curve []float64) {
	curve = make([]float64, maxN+1)
	point := func(n int) float64 {
		sets := make([]map[string]bool, len(selectors))
		for i, s := range selectors {
			sets[i] = s.TopSet(n)
		}
		return stats.MultiJaccard(sets...)
	}
	par.For(maxN, concurrency, func(_, i int) {
		curve[i+1] = point(i + 1)
	})
	best := -1.0
	for n := 1; n <= maxN; n++ {
		if curve[n] >= best {
			best = curve[n]
			bestN = n
		}
	}
	return bestN, curve
}

// NameList is the final misused-name list: the union of the selectors'
// top-N sets at the consensus point.
type NameList struct {
	// N is the per-selector list size (the consensus point).
	N int
	// Names is the merged candidate set.
	Names map[string]bool
	// PerSelector records each selector's top-N set for overlap
	// reporting (§4.1's intersections).
	PerSelector []map[string]bool
}

// BuildNameList merges the selectors at size n.
func BuildNameList(n int, selectors ...SelectorResult) *NameList {
	nl := &NameList{N: n, Names: make(map[string]bool)}
	for _, s := range selectors {
		set := s.TopSet(n)
		nl.PerSelector = append(nl.PerSelector, set)
		for name := range set {
			nl.Names[name] = true
		}
	}
	return nl
}

// Sorted returns the candidate names sorted by TLD share convention
// (plain lexicographic here).
func (nl *NameList) Sorted() []string {
	out := make([]string, 0, len(nl.Names))
	for n := range nl.Names {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// MutualCount returns how many names all selectors agree on.
func (nl *NameList) MutualCount() int {
	if len(nl.PerSelector) == 0 {
		return 0
	}
	n := 0
outer:
	for name := range nl.PerSelector[0] {
		for _, s := range nl.PerSelector[1:] {
			if !s[name] {
				continue outer
			}
		}
		n++
	}
	return n
}

// GovShare returns the fraction of candidates under .gov.
func (nl *NameList) GovShare() float64 {
	if len(nl.Names) == 0 {
		return 0
	}
	gov := 0
	for n := range nl.Names {
		if dnswire.TLD(n) == "gov" {
			gov++
		}
	}
	return float64(gov) / float64(len(nl.Names))
}
