package core

import (
	"runtime"

	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
	"dnsamp/internal/topology"
)

// Monitor is the live-monitoring prototype of §4.3: it identifies
// potentially misused names in near real-time (per update interval) and
// tracks day-over-day changes of the name list and the victim
// population.
type Monitor struct {
	// N is the per-selector list size (the consensus point from the
	// offline analysis; the paper keeps 29).
	N int
	// Interval is the update cadence (paper: at most 5 minutes delay).
	Interval simclock.Duration

	tab       *names.Table
	agg       *Aggregator
	top1      *TopN // Selector 1 and 2 rankings, rescanned per refresh
	top2      *TopN
	lastFlush simclock.Time

	// CurrentNames is the latest name list.
	CurrentNames map[string]bool
	// Updates records each refresh.
	Updates []MonitorUpdate

	// dayVictims tracks distinct victim prefixes per day under the
	// current list and thresholds.
	th        Thresholds
	dayOfData int
	days      []MonitorDay
}

// MonitorUpdate is one periodic name-list refresh.
type MonitorUpdate struct {
	Time simclock.Time
	// Names is the refreshed list.
	Names map[string]bool
	// JaccardPrev compares against the previous update (the paper
	// reports a mean day-over-day Jaccard of 0.96).
	JaccardPrev float64
}

// MonitorDay summarizes one completed day.
type MonitorDay struct {
	Day simclock.Time
	// Unique victim aggregates (the paper reports means of 631 /24s,
	// 492 /16s, 121 /8s per day).
	Victims, Prefixes24, Prefixes16, Prefixes8 int
	// NameListJaccard compares the day's list with the previous day's.
	NameListJaccard float64
}

// NewMonitor creates a live monitor. Samples observed must carry name
// IDs of the monitor's interning table (Table), i.e. come from a
// capture point constructed over it.
func NewMonitor(n int, interval simclock.Duration, th Thresholds) *Monitor {
	tab := names.NewTable()
	m := &Monitor{
		N:            n,
		Interval:     interval,
		th:           th,
		tab:          tab,
		agg:          NewAggregator(tab, nil),
		top1:         NewTopNMaxSize(n),
		top2:         NewTopNANYCount(n),
		CurrentNames: make(map[string]bool),
		dayOfData:    -1,
	}
	// The monitor tracks every name per client — affordable because it
	// retains only one day of state.
	m.agg.SetTrackAll(true)
	return m
}

// Table exposes the monitor's name-interning space, for wiring up the
// capture point that feeds it.
func (m *Monitor) Table() *names.Table { return m.tab }

// Observe ingests one sample in arrival order.
func (m *Monitor) Observe(s *ixp.DNSSample) {
	if m.dayOfData == -1 {
		m.dayOfData = s.Time.Day()
		m.lastFlush = s.Time
	}
	if s.Time.Day() != m.dayOfData {
		m.rollDay(s.Time)
	}
	m.agg.Observe(s)
	if s.Time.Sub(m.lastFlush) >= m.Interval {
		m.refreshNames(s.Time)
		m.lastFlush = s.Time
	}
}

// refreshNames recomputes the name list from the running day aggregate.
// The aggregate restarts every day, so the rankings are rescanned rather
// than kept incrementally.
func (m *Monitor) refreshNames(now simclock.Time) {
	m.top1.Rescan(m.agg)
	m.top2.Rescan(m.agg)
	list := stats.SetOf(append(m.top1.Names(m.agg), m.top2.Names(m.agg)...))
	j := stats.Jaccard(m.CurrentNames, list)
	m.CurrentNames = list
	m.Updates = append(m.Updates, MonitorUpdate{Time: now, Names: list, JaccardPrev: j})
}

// rollDay finalizes the completed day and resets per-day state.
func (m *Monitor) rollDay(now simclock.Time) {
	m.refreshNames(now)
	day := simclock.Time(m.dayOfData) * simclock.Time(simclock.Day)

	md := MonitorDay{Day: day}
	dets := Detect(m.agg, m.CurrentNames, m.th)
	p24 := make(map[[3]byte]bool)
	p16 := make(map[[2]byte]bool)
	p8 := make(map[byte]bool)
	for _, d := range dets {
		md.Victims++
		p24[[3]byte{d.Victim[0], d.Victim[1], d.Victim[2]}] = true
		p16[[2]byte{d.Victim[0], d.Victim[1]}] = true
		p8[d.Victim[0]] = true
	}
	md.Prefixes24 = len(p24)
	md.Prefixes16 = len(p16)
	md.Prefixes8 = len(p8)
	if len(m.days) > 0 && len(m.Updates) >= 2 {
		md.NameListJaccard = m.Updates[len(m.Updates)-1].JaccardPrev
	}
	m.days = append(m.days, md)

	// Reset day state, keeping the current name list and the interning
	// table (IDs stay stable across days).
	m.agg = NewAggregator(m.tab, nil)
	m.agg.SetTrackAll(true)
	m.dayOfData = now.Day()
}

// DaySource is the slice of the source.Source interface the monitor
// consumes: a day list and per-day sample batches. It is declared on
// the consumer side (Go convention) so the detection core stays
// independent of the traffic-source implementations; any source.Source
// satisfies it. Day must be safe for concurrent calls — Consume
// prefetches days in parallel.
type DaySource interface {
	Days() []simclock.Time
	Day(day simclock.Time) *ixp.SampleBatch
}

// Consume streams every day of a traffic source through the monitor and
// finalizes it. The monitor is stateful and must see traffic in day
// order, so concurrency takes the form of a bounded prefetch: up to
// prefetch days (0 = all cores) materialize in parallel while the
// monitor consumes days in order. A producer holds its semaphore token
// until the consumer has processed its day, bounding resident day
// traffic (generating or generated-but-unconsumed) to the prefetch
// width. Output is identical at every width.
//
// Samples are annotated against topo through a capture point over the
// monitor's own interning table. onDay, when non-nil, is invoked after
// each day is consumed with the day's sample count (a progress hook).
func (m *Monitor) Consume(src DaySource, topo *topology.Topology, prefetch int, onDay func(day simclock.Time, samples int)) {
	days := src.Days()
	if len(days) == 0 {
		return
	}
	if prefetch <= 0 {
		prefetch = runtime.GOMAXPROCS(0)
	}
	capture := ixp.NewCapturePoint(topo, m.tab)

	slots := make([]chan *ixp.SampleBatch, len(days))
	for i := range slots {
		slots[i] = make(chan *ixp.SampleBatch, 1)
	}
	// The launcher takes tokens in day order, so the in-flight window is
	// always the next `prefetch` unconsumed days and the consumer can
	// never be starved of the day it is waiting on.
	sem := make(chan struct{}, prefetch)
	go func() {
		for i, day := range days {
			sem <- struct{}{}
			go func(i int, day simclock.Time) {
				slots[i] <- src.Day(day)
			}(i, day)
		}
	}()
	for i, day := range days {
		batch := <-slots[i]
		n := 0
		if batch != nil {
			n = batch.N
		}
		capture.ConsumeBatch(batch, m.Observe)
		if onDay != nil {
			onDay(day, n)
		}
		<-sem
	}
	m.Close(days[len(days)-1].Add(simclock.Day))
}

// Close finalizes the trailing day.
func (m *Monitor) Close(now simclock.Time) { m.rollDay(now) }

// Days returns the completed day summaries.
func (m *Monitor) Days() []MonitorDay { return m.days }

// MeanNameListJaccard is the mean day-over-day name-list similarity.
func (m *Monitor) MeanNameListJaccard() float64 {
	var sum float64
	n := 0
	for _, d := range m.days {
		if d.NameListJaccard > 0 {
			sum += d.NameListJaccard
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
