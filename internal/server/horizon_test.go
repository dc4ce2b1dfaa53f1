package server

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
)

// horizonStream builds a seeded ten-day arrival sequence: per day a few
// hundred background samples over a widening name pool, two or three
// amplification victims (one of them near the share threshold), local
// disorder as UDP delivers it, duplicates, and from day 7 on stragglers
// seven to nine days old — beyond every horizon the test runs. With
// between set it also carries what falls between those horizons: per
// day a next-day sample that arrives before the day's last ones (the
// cross-midnight spill, which turns them into one-day-old stragglers)
// and stragglers one to six days old. Stragglers bring their own large
// ANY names, so counting one that should be dropped, or dropping one
// that should count, changes the name list.
func horizonStream(seed uint64, between bool) []oracleSample {
	const days = 10
	rng := rand.New(rand.NewPCG(seed, 20))
	sizes := []int{300, 1400, 1400, 4096, 4096}
	background := func(at simclock.Time, pool int) oracleSample {
		o := oracleSample{
			at: at, client: byte(1 + rng.IntN(40)),
			name: fmt.Sprintf("n%02d.test", rng.IntN(pool)),
			qt:   dnswire.TypeA, size: sizes[rng.IntN(len(sizes))], resp: rng.IntN(3) > 0,
		}
		if rng.IntN(4) == 0 {
			o.qt = dnswire.TypeANY
		}
		return o
	}
	straggler := func(at simclock.Time, age int) oracleSample {
		return oracleSample{
			at: at.Add(-simclock.Days(age)), client: byte(200 + rng.IntN(8)),
			name: fmt.Sprintf("s%d-%02d.test", age, rng.IntN(4)),
			qt:   dnswire.TypeANY, size: 5000 + 500*age, resp: true,
		}
	}
	var out []oracleSample
	for d := 0; d < days; d++ {
		start := simclock.MeasurementStart.Add(simclock.Days(d))
		anyTime := func() simclock.Time { return start.Add(simclock.Duration(rng.IntN(int(simclock.Day)))) }
		var day []oracleSample
		for i := 0; i < 300; i++ {
			day = append(day, background(anyTime(), 20+6*d))
		}
		for v := 0; v < 2+rng.IntN(2); v++ {
			victim, amp := byte(100+10*d+v), fmt.Sprintf("amp%d.test", rng.IntN(3))
			benign := 0
			if v == 0 {
				benign = 1 + rng.IntN(3) // 18 of 19..21: around the 0.90 share
			}
			for i := 0; i < 18+benign; i++ {
				o := oracleSample{at: anyTime(), client: victim, name: amp, qt: dnswire.TypeANY, size: 4096 + 64*d, resp: true}
				if i >= 18 {
					o.name, o.qt, o.size = "n00.test", dnswire.TypeA, 120
				}
				day = append(day, o)
			}
		}
		slices.SortFunc(day, func(a, b oracleSample) int { return int(a.at.Sub(b.at)) })
		for i := range day {
			j := min(len(day)-1, i+rng.IntN(8))
			day[i], day[j] = day[j], day[i]
		}
		for i, o := range day {
			out = append(out, o)
			if i%50 == 3 {
				out = append(out, o) // delivered twice
			}
			if d >= 7 && i%40 == 11 {
				out = append(out, straggler(o.at, 7+rng.IntN(3)))
			}
			if !between {
				continue
			}
			if i%30 == 5 && d >= 1 {
				out = append(out, straggler(o.at, 1+rng.IntN(min(d, 6))))
			}
			if i == len(day)-12 {
				out = append(out, background(start.Add(simclock.Day+simclock.Duration(rng.IntN(60))), 20+6*d))
			}
		}
	}
	return out
}

// horizonResult is what a run over a stream leaves behind.
type horizonResult struct {
	dets   []core.Detection
	days   []DaySummary
	late   uint64
	closes [][]string // the name list at every close, sorted
}

// runWindow feeds stream through a fresh window, closes it, and returns
// what the run left behind with the window itself.
func runWindow(stream []oracleSample, cfg WindowConfig) (horizonResult, *Window) {
	w := NewWindow(cfg, nil)
	var closes [][]string
	noteCloses := func() {
		// One sample may close several days; the later closes refresh
		// over nothing new and see the same list.
		for len(closes) < w.closedDays {
			list := slices.Sorted(maps.Keys(w.closeNames))
			closes = append(closes, list)
		}
	}
	for _, o := range stream {
		w.Observe(o.in(w))
		noteCloses()
	}
	w.Close()
	noteCloses()
	r := horizonResult{days: w.Days(), late: w.Stats().LateSamples, closes: closes}
	for _, d := range w.Detections() {
		r.dets = append(r.dets, *d)
	}
	return r, w
}

// horizonOracle is the window's contract restated without a window: a
// sample Days or more days behind the open day is late; every other
// sample feeds the selectors' cumulative view; a day is detected over
// the samples that arrived while it was open, against the name list
// full-sorted from that view at its close.
func horizonOracle(stream []oracleSample, cfg WindowConfig) horizonResult {
	cfg = cfg.withDefaults()
	tab := names.NewTable()
	newAgg := func() *core.Aggregator {
		ag := core.NewAggregator(tab, nil)
		ag.SetTrackAll(true)
		return ag
	}
	selectors, open := newAgg(), newAgg()
	cur := -1
	var prev map[string]bool
	var r horizonResult
	closeDay := func() {
		list := core.BuildNameList(cfg.ListSize, core.Selector1MaxSize(selectors), core.Selector2ANYCount(selectors))
		sum := DaySummary{Day: cur, ListNames: len(list.Names), HasPrev: prev != nil}
		if prev != nil {
			sum.Jaccard = stats.Jaccard(prev, list.Names)
		}
		prev = list.Names
		r.closes = append(r.closes, list.Sorted())
		p24, p16, p8 := map[[3]byte]bool{}, map[[2]byte]bool{}, map[byte]bool{}
		for _, det := range core.Detect(open, list.Names, core.DefaultThresholds()) {
			r.dets = append(r.dets, *det)
			v := det.Victim
			sum.Victims++
			p24[[3]byte{v[0], v[1], v[2]}], p16[[2]byte{v[0], v[1]}], p8[v[0]] = true, true, true
		}
		sum.Prefixes24, sum.Prefixes16, sum.Prefixes8 = len(p24), len(p16), len(p8)
		r.days = append(r.days, sum)
		open = newAgg()
		cur++
	}
	for _, o := range stream {
		d := o.at.Day()
		if cur == -1 {
			cur = d
		}
		for cur < d {
			closeDay()
		}
		if d <= cur-cfg.Days {
			r.late++
			continue
		}
		s := tabSample(tab, o.at, o.client, o.name, o.qt, o.size)
		s.Resp = o.resp
		selectors.Observe(&s.BatchRecord)
		if d == cur {
			open.Observe(&s.BatchRecord)
		}
	}
	closeDay()
	return r
}

// TestWindowHorizonEquivalence: for seeded streams with in-day
// disorder, duplicates, cross-midnight spill and stragglers inside and
// beyond the horizon, the window at Days 1, 2 and 7 equals the oracle
// — detections, day log, late count and the list at every close — and
// whenever no sample falls between the horizons the three runs equal
// each other: Days decides which stragglers still count, and nothing
// else. It held before closed days stopped being retained, too, which
// is the point: retention never changed a result. The oracle keeps
// every name it sees; the window forgets the names no ranking can reach
// at every close, and must have forgotten some.
func TestWindowHorizonEquivalence(t *testing.T) {
	widths := []int{1, 2, 7}
	for _, between := range []bool{false, true} {
		for seed := uint64(1); seed <= 4; seed++ {
			stream := horizonStream(seed, between)
			var runs []horizonResult
			for _, days := range widths {
				cfg := WindowConfig{Days: days, ListSize: 3}
				got, w := runWindow(stream, cfg)
				want := horizonOracle(stream, cfg)
				if len(want.dets) < 15 || len(want.days) < 10 || want.late == 0 {
					t.Fatalf("seed %d, between %v, Days %d: oracle found %d detections over %d day rows, %d late; the stream is too weak",
						seed, between, days, len(want.dets), len(want.days), want.late)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, between %v, Days %d: window differs from the oracle:\n got %d detections, late %d, lists %v, days %+v\nwant %d detections, late %d, lists %v, days %+v",
						seed, between, days, len(got.dets), got.late, got.closes, got.days, len(want.dets), want.late, want.closes, want.days)
				}
				if st := w.Stats(); st.NamesReleased == 0 {
					t.Fatalf("seed %d, between %v, Days %d: no name was released; the test proves nothing about releases", seed, between, days)
				}
				runs = append(runs, got)
			}
			same := reflect.DeepEqual(runs[0], runs[1]) && reflect.DeepEqual(runs[1], runs[2])
			switch {
			case !between && !same:
				t.Errorf("seed %d: no sample between the horizons, yet Days %v disagree", seed, widths)
			case between && (runs[0].late <= runs[1].late || runs[1].late <= runs[2].late):
				t.Errorf("seed %d: late counts %d, %d, %d at Days %v; the stream must put samples between the horizons",
					seed, runs[0].late, runs[1].late, runs[2].late, widths)
			}
		}
	}
}
