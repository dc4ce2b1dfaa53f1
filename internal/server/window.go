package server

import (
	"strings"

	"dnsamp/internal/core"
	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
)

// WindowConfig configures the live detector.
type WindowConfig struct {
	// Days is the lateness horizon: a sample Days or more days behind
	// the open day is dropped and counted late; a younger straggler
	// still feeds the per-name statistics, though never a detection —
	// its day has closed. Nothing else depends on it. Minimum (and
	// default) 1: anything older than the open day is late.
	Days int
	// ListSize is the per-selector name-list size N (the paper keeps 29).
	ListSize int
	// Refresh is the name-list refresh cadence in stream time (the paper
	// allows at most 5 minutes of delay).
	Refresh simclock.Duration
}

// withDefaults normalizes zero fields.
func (c WindowConfig) withDefaults() WindowConfig {
	if c.Days < 1 {
		c.Days = 1
	}
	if c.ListSize <= 0 {
		c.ListSize = 29
	}
	if c.Refresh <= 0 {
		c.Refresh = 5 * simclock.Minute
	}
	return c
}

// Window is the incremental detector, the §4.3 live monitor. Its state
// is the open day's client-day profiles plus the per-name statistics of
// every name a selector ranking can still reach, in one core.Aggregator:
// it ingests sanitized samples in arrival order, refreshes the
// misused-name list every Refresh of stream time, emits detections for
// each day as it closes and then releases every profile (arena slots
// recycled) — days close once and in order and a close reports the
// closing day only, so a closed day's profiles would have no reader.
// The close then forgets every name no ranking can reach again (see
// releaseNames), so memory follows the kept names plus one day's, not
// every name ever seen. Each close also appends one DaySummary (the
// paper's daily victim aggregates and name-list churn) to a bounded
// in-memory day log.
//
// Day close happens when a sample of a newer day arrives (UDP transport
// may reorder within a day; whole-day reordering closes days in arrival
// order) or at Close. Detection for the closing day runs against a
// freshly refreshed name list over the aggregate, exactly the batch
// semantics: the selectors rank as over per-name statistics cumulative
// since start (a forgotten name could not have ranked), per-client
// threshold state is the closing day's own profiles, so a batch pass
// over the same stream yields the same detections (the golden
// equivalence the server tests pin).
//
// Window is not safe for concurrent use; Service serializes access.
type Window struct {
	cfg WindowConfig

	agg *core.Aggregator
	cp  *ixp.CapturePoint

	curDay      int // day being accumulated; -1 before first sample
	lastSeen    simclock.Time
	lastRefresh simclock.Time

	names    map[string]bool
	refreshN int
	jaccard  float64 // vs previous refresh

	// The per-selector rankings behind names, kept incrementally:
	// touched logs the name of every sample observed since the last
	// refresh, and refresh offers just those to top1/top2. rescan marks
	// the rankings stale as a whole (fresh or restored window, or a log
	// that outgrew the name table), so the next refresh rebuilds them.
	top1, top2 *core.TopN
	touched    []uint32
	rescan     bool

	detections []*core.Detection
	detDropped uint64 // detections dropped to maxDetections

	// days is the day log, oldest first; closeNames is the name list as
	// of the newest close (nil before this process's first). Neither is
	// checkpointed.
	days       []DaySummary
	closeNames map[string]bool

	closedDays    int
	evicted       uint64 // profiles released at day closes
	lateSamples   uint64 // samples Days or more days behind the open day, dropped
	namesReleased uint64 // names forgotten at day closes by this process

	stages *Stages
}

// NewWindow builds a live detector. The capture point that
// sanitizes samples for it must share its interning table (Capture
// returns one wired up); stages, when non-nil, receives refresh /
// detect / evict timings.
func NewWindow(cfg WindowConfig, stages *Stages) *Window {
	w := &Window{
		cfg:    cfg.withDefaults(),
		curDay: -1,
		names:  make(map[string]bool),
		rescan: true,
		stages: stages,
	}
	w.top1 = core.NewTopNMaxSize(w.cfg.ListSize)
	w.top2 = core.NewTopNANYCount(w.cfg.ListSize)
	w.agg = core.NewAggregator(nil, nil)
	// Track every name per client: the window retains one day of client
	// state, so trackAll stays affordable.
	w.agg.SetTrackAll(true)
	w.cp = ixp.NewCapturePoint(nil, w.agg.Table)
	return w
}

// Capture returns the capture point feeding the window: it shares the
// window's interning table, so samples it emits carry window name IDs.
func (w *Window) Capture() *ixp.CapturePoint { return w.cp }

// Observe ingests one sanitized sample in arrival order. The sample's
// Name ID must be in the window's table space (come from Capture). A
// sample processed before a day close released names carries a stale
// NameGen; Observe re-interns its QName and rewrites Name and NameGen.
func (w *Window) Observe(s *ixp.DNSSample) {
	d := s.Time.Day()
	if w.curDay == -1 {
		w.curDay = d
		w.lastRefresh = s.Time
	}
	if d > w.curDay {
		w.advanceTo(d, s.Time)
	}
	if d <= w.curDay-w.cfg.Days {
		// Beyond the lateness horizon: dropped before it can move a
		// selector score.
		w.lateSamples++
		return
	}
	if tab := w.agg.Table; s.NameGen != tab.Gen() {
		s.Name, s.NameGen = tab.Intern(s.QName), tab.Gen()
	}
	w.agg.Observe(&s.BatchRecord)
	w.touch(s.Name)
	if s.Time.After(w.lastSeen) {
		w.lastSeen = s.Time
	}
	if s.Time.Sub(w.lastRefresh) >= w.cfg.Refresh {
		w.refresh(s.Time)
	}
}

// advanceTo closes every day before newDay, then releases every profile
// and every name no ranking can reach (the evict stage): their days are
// reported, nothing reads them again.
func (w *Window) advanceTo(newDay int, now simclock.Time) {
	for w.curDay < newDay {
		w.closeDay(now)
		w.curDay++
	}
	defer w.stages.Track("evict")()
	w.evicted += uint64(w.agg.ResetClients())
	w.releaseNames()
}

// releaseNames forgets every name that can never enter either ranking
// again: no ANY packet, and a max size of 0 or strictly below the last
// score of the full max-size ranking. Both scores only grow, so that
// floor only rises; a forgotten name that returns restarts at 0, and
// its old max was below the floor, so it could not have ranked either.
// Detections, the day log and the list at every refresh are therefore
// those of a window that keeps every name. Ranked names are kept (a
// top1 name scores at or above the floor, a top2 name has an ANY
// packet), and the rankings are current: the close just refreshed them.
func (w *Window) releaseNames() {
	floor, full := w.top1.Floor()
	remap := w.agg.ReleaseNames(func(_ uint32, ns *core.NameStats) bool {
		return ns.ANYPackets > 0 || (ns.MaxSize > 0 && (!full || ns.MaxSize >= floor))
	})
	w.top1.Remap(remap)
	w.top2.Remap(remap)
	w.namesReleased += uint64(len(remap) - w.agg.Table.Len())
	// The list's strings are views into the slab just released; copied,
	// they stop keeping it alive. closeNames is the same map: the close
	// just set it.
	owned := make(map[string]bool, len(w.names))
	for n := range w.names {
		owned[strings.Clone(n)] = true
	}
	w.names, w.closeNames = owned, owned
}

// DaySummary is one closed day of the day log: the §4.3 daily victim
// aggregates (the paper reports means of 631 /24s, 492 /16s, 121 /8s per
// day) and the churn of the misused-name list (paper: mean day-over-day
// Jaccard 0.96).
type DaySummary struct {
	Day int
	// Victims counts the day's detections; PrefixesN the distinct /N
	// prefixes they fall in.
	Victims, Prefixes24, Prefixes16, Prefixes8 int
	// ListNames is the size of the name list the day closed with, and
	// Jaccard its similarity to the list of the previous close. HasPrev
	// is false on the first close of a process, which has no
	// predecessor; Jaccard is 0 there.
	ListNames int
	Jaccard   float64
	HasPrev   bool
}

// maxDayLog bounds the day log and maxDetections the detection log; the
// oldest rows go first, and dropped detections are counted.
const (
	maxDayLog     = 366
	maxDetections = 1 << 16
)

// closeDay refreshes the name list, detects over the closing day, and
// logs its summary. The arena may also hold a straggler's profile of an
// earlier day; the Day filter keeps it out of the output.
func (w *Window) closeDay(now simclock.Time) {
	w.refresh(now)
	defer w.stages.Track("detect")()
	sum := DaySummary{Day: w.curDay, ListNames: len(w.names), HasPrev: w.closeNames != nil}
	if sum.HasPrev {
		sum.Jaccard = stats.Jaccard(w.closeNames, w.names)
	}
	w.closeNames = w.names // refresh replaces the map, never edits it
	p24 := make(map[[3]byte]bool)
	p16 := make(map[[2]byte]bool)
	p8 := make(map[byte]bool)
	dets := core.Detect(w.agg, w.names, core.DefaultThresholds())
	for _, det := range dets {
		if det.Day == w.curDay {
			w.detections = append(w.detections, det)
			v := det.Victim
			sum.Victims++
			p24[[3]byte{v[0], v[1], v[2]}] = true
			p16[[2]byte{v[0], v[1]}] = true
			p8[v[0]] = true
		}
	}
	sum.Prefixes24, sum.Prefixes16, sum.Prefixes8 = len(p24), len(p16), len(p8)
	if len(w.days) == maxDayLog {
		w.days = append(w.days[:0], w.days[1:]...)
	}
	w.days = append(w.days, sum)
	if over := len(w.detections) - maxDetections; over > 0 {
		w.detDropped += uint64(over)
		w.detections = append(w.detections[:0], w.detections[over:]...)
	}
	w.closedDays++
}

// touch logs one observed name for the next refresh. A log longer than
// the name table would cost more to replay than a rescan, so it is
// dropped for one: its memory stays bounded by the table.
func (w *Window) touch(id uint32) {
	if w.rescan {
		return
	}
	if len(w.touched) >= w.agg.Table.Len() {
		w.touched, w.rescan = w.touched[:0], true
		return
	}
	w.touched = append(w.touched, id)
}

// refresh brings the misused-name list up to date with the aggregate.
// Per-name selector scores only grow under Observe and a day close
// leaves them alone, so the new top ListSize of each selector
// lies within the old one plus the names touched since: offering those
// is exact, and a refresh that admits no new name keeps the list as is.
func (w *Window) refresh(now simclock.Time) {
	defer w.stages.Track("refresh")()
	changed := w.rescan
	if w.rescan {
		w.top1.Rescan(w.agg)
		w.top2.Rescan(w.agg)
		w.rescan = false
	} else {
		for _, id := range w.touched {
			if w.top1.Offer(w.agg, id) {
				changed = true
			}
			if w.top2.Offer(w.agg, id) {
				changed = true
			}
		}
	}
	w.touched = w.touched[:0]
	w.jaccard = 1
	if changed {
		names := stats.SetOf(append(w.top1.Names(w.agg), w.top2.Names(w.agg)...))
		w.jaccard = stats.Jaccard(w.names, names)
		w.names = names
	}
	w.refreshN++
	w.lastRefresh = now
}

// Close finalizes the day currently accumulating: detects over it and
// releases its profiles, as the first sample of the next day would.
// Call once when the stream ends; observing newer samples afterwards
// reopens the stream consistently.
func (w *Window) Close() {
	if w.curDay != -1 {
		w.advanceTo(w.curDay+1, w.lastSeen)
	}
}

// Detections returns a snapshot of the retained closed-day detections
// in emission order.
func (w *Window) Detections() []*core.Detection {
	return append([]*core.Detection(nil), w.detections...)
}

// Days returns a snapshot of the day log: one row per day closed by this
// process, oldest first.
func (w *Window) Days() []DaySummary {
	return append([]DaySummary(nil), w.days...)
}

// CurrentNames returns a snapshot of the current misused-name list.
func (w *Window) CurrentNames() []string {
	out := make([]string, 0, len(w.names))
	for n := range w.names {
		out = append(out, n)
	}
	return out
}

// WindowStats is the observable window state (for /metrics and tests).
type WindowStats struct {
	// CurDay is the day currently accumulating (-1 before any sample);
	// ClosedDays counts day-close detection sweeps.
	CurDay     int `json:"curDay"`
	ClosedDays int `json:"closedDays"`
	// ClientDays / ArenaCap describe the aggregate arena: the open day's
	// profiles (plus stragglers' since the last close) and the
	// capacity of the chunks kept across closes, which settles at the
	// largest day's size rounded up to a chunk.
	ClientDays int `json:"clientDays"`
	ArenaCap   int `json:"arenaCap"`
	// Names is the number of names held: those a ranking can still reach,
	// plus the ones interned since the last close. NamesReleased counts
	// the names forgotten at day closes by this process (not
	// checkpointed). ListNames is the current misused-name list length;
	// Refreshes the refresh count; Jaccard the similarity of the last two
	// lists.
	Names         int     `json:"names"`
	NamesReleased uint64  `json:"namesReleased"`
	ListNames     int     `json:"listNames"`
	Refreshes     int     `json:"refreshes"`
	Jaccard       float64 `json:"jaccard"`
	// Evicted counts the profiles released at day closes; LateSamples
	// the samples dropped for arriving Days or more days behind the open
	// day; Detections the retained detections; DetectionsDropped those
	// shed to the cap.
	Evicted           uint64 `json:"evicted"`
	LateSamples       uint64 `json:"lateSamples"`
	Detections        int    `json:"detections"`
	DetectionsDropped uint64 `json:"detectionsDropped"`
	// The capture point's sanitization tally (checkpointed): every
	// sampled frame is Accepted or one of FrameCounts' drops.
	ixp.FrameCounts
	Accepted int `json:"accepted"`
}

// Stats snapshots the window state.
func (w *Window) Stats() WindowStats {
	return WindowStats{
		CurDay:            w.curDay,
		ClosedDays:        w.closedDays,
		ClientDays:        w.agg.NumClients(),
		ArenaCap:          w.agg.ArenaCap(),
		Names:             w.agg.Table.Len(),
		NamesReleased:     w.namesReleased,
		ListNames:         len(w.names),
		Refreshes:         w.refreshN,
		Jaccard:           w.jaccard,
		Evicted:           w.evicted,
		LateSamples:       w.lateSamples,
		Detections:        len(w.detections),
		DetectionsDropped: w.detDropped,
		FrameCounts:       w.cp.Stats.FrameCounts,
		Accepted:          w.cp.Stats.Accepted,
	}
}
