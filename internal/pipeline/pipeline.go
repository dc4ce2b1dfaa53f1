// Package pipeline orchestrates a full study: it plans a synthetic
// campaign, materializes traffic, runs the honeypot inference and the
// IXP detection pipeline (both passes), and bundles everything the
// analyses of §5–§7 need.
//
// The engine is a staged Runner over a source.Source traffic stream:
//
//	Plan      build campaign + source (synthetic by default)
//	Aggregate pass 1 — sharded day replay into aggregates + honeypot
//	Select    selector sweep, consensus point, misused-name list
//	Detect    threshold detection over the aggregates
//	Collect   pass 2 — per-attack detail records
//
// Each stage is independently invokable and recomputes only its own
// outputs; invoking a stage runs any prerequisite stages that have not
// run yet. Re-running a later stage after changing its inputs (e.g.
// Detect with new Thresholds) reuses everything upstream. Run is the
// one-shot convenience wrapper that executes all stages; its Study is
// byte-identical to a staged invocation.
//
// Every stage is worker-pooled. Traffic days are materialized in
// parallel across Config.Concurrency workers as sample batches of rows
// (name IDs into the source's interning table); each worker replays its
// batches into its own private core.Aggregator shard over that same
// table, which the parallel stage only reads (single-writer shards, no
// locks or string hashing on the hot path), and the shards are merged
// and their client-day arenas canonicalized at the stage barrier. The
// selector consensus sweep and the pass-2 detail collection are
// parallelized the same way.
//
// Determinism guarantee: a run at a fixed TrafficSeed produces the same
// Study — detections, records, name list, curves, and aggregate state —
// at every Concurrency level, including the serial Concurrency == 1
// path. This holds because each traffic day is a pure function of
// (campaign, seed, day), per-day results land in per-day slots merged
// in day order, shard merging is commutative, every shard counts in the
// source's one name table (so a name's ID never depends on which worker
// met it), and the post-merge canonicalization orders the client-day
// arena by key alone.
package pipeline

import (
	"runtime"
	"slices"

	"dnsamp/internal/core"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/honeypot"
	"dnsamp/internal/ixp"
	"dnsamp/internal/par"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
)

// Config controls a study run.
type Config struct {
	Campaign    ecosystem.CampaignConfig
	TrafficSeed int64
	Thresholds  core.Thresholds
	// MaxSelectorN bounds the consensus sweep (Fig. 3 sweeps to 70).
	MaxSelectorN int
	// ExtendedWindow enables the entity-tracking pass beyond the main
	// period (needed for Fig. 8; disable to halve runtime when only
	// main-window results are required).
	ExtendedWindow bool
	// Concurrency is the worker-pool width for traffic materialization,
	// aggregation, the selector sweep, and pass 2. Zero or negative
	// means runtime.GOMAXPROCS(0); 1 forces the serial path. Results
	// are identical at every setting.
	Concurrency int
}

// DefaultConfig returns a study configuration at the given scale.
func DefaultConfig(scale float64) Config {
	return Config{
		Campaign:       ecosystem.DefaultCampaignConfig(scale),
		TrafficSeed:    11,
		Thresholds:     core.DefaultThresholds(),
		MaxSelectorN:   70,
		ExtendedWindow: true,
		// Concurrency stays 0: the portable "all cores" value, resolved
		// by workers() at run time.
	}
}

// Study is the bundled result of one full run.
type Study struct {
	Cfg Config

	Campaign *ecosystem.Campaign

	// HoneypotAttacks are the CCC-style inferred attacks.
	HoneypotAttacks []*honeypot.Attack

	// AggMain holds pass-1 aggregates for the main window; AggExt for
	// the extended entity window (after the main period).
	AggMain, AggExt *core.Aggregator

	// Selector results and the consensus curve (Fig. 3).
	Sel1, Sel2, Sel3 core.SelectorResult
	ConsensusN       int
	ConsensusCurve   []float64

	// VisibleGroundTruth are honeypot attacks with IXP-visible traffic.
	VisibleGroundTruth []core.GroundTruthAttack

	// NameList is the final misused-name list.
	NameList *core.NameList

	// Detections within the main window; DetectionsExt after it.
	Detections    []*core.Detection
	DetectionsExt []*core.Detection

	// Records are the pass-2 per-attack details (main + extended).
	Records []*core.AttackRecord

	// VisibleNS holds the decodable NS counts of attack response
	// samples (the NXNS check of §4.2).
	VisibleNS []int

	// CaptureStats from pass 1.
	CaptureStats ixp.CaptureStats
}

// workers returns the effective pool width.
func (cfg Config) workers() int {
	if cfg.Concurrency > 0 {
		return cfg.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

// forEachDay runs fn(worker, i, days[i], scratch) for every day across
// a pool of workers; fn must write its results into per-day or
// per-worker slots only. scratch is the calling worker's day batch, to
// lend to the source (Source.DayFlows, Source.DayFor): a stage
// allocates one batch per worker, not one per day, and fn must be done
// with the batch the source returns before it returns. Each worker
// makes its own scratch on first use, so the batch headers, whose row
// counters the source bumps per row, are not laid out side by side for
// two workers to share a cache line.
func forEachDay(days []simclock.Time, workers int, fn func(worker, i int, day simclock.Time, scratch *ixp.SampleBatch)) {
	scratch := make([]*ixp.SampleBatch, workers)
	par.For(len(days), workers, func(worker, i int) {
		if scratch[worker] == nil {
			scratch[worker] = new(ixp.SampleBatch)
		}
		fn(worker, i, days[i], scratch[worker])
	})
}

// Runner is the staged study engine. Zero state is built lazily: each
// stage method runs its prerequisites if they have not run yet, then
// (re)computes its own outputs, so both one-shot use
// (NewRunner(cfg).Study()) and incremental use (mutate Cfg.Thresholds,
// re-Detect, re-Collect) share one code path.
//
// Campaign and Src may be set before the first stage runs to study
// custom traffic: a nil Src is planned as source.Synthetic over the
// campaign's generator. A Runner is not safe for concurrent stage
// invocations; the parallelism lives inside the stages.
type Runner struct {
	Cfg Config

	// Campaign supplies the ground truth, topology, and namespace. Built
	// by Plan from Cfg.Campaign when nil.
	Campaign *ecosystem.Campaign

	// Src is the traffic stream. Built by Plan when nil.
	Src source.Source

	// ForceNames, when non-empty, bypasses the selector consensus: Select
	// builds the misused-name list directly from these names instead of
	// sweeping the selectors. Evaluation harnesses use it to score
	// detection against a scenario's known candidate list — scenario
	// sources carry no honeypot flows, so the ground-truth selector (and
	// with it the consensus) has nothing to anchor on. The selector
	// results and consensus curve are left zero.
	ForceNames []string

	st     *Study
	days   []simclock.Time
	window simclock.Window

	planned, aggregated, selected, detected, collected bool
}

// NewRunner creates a staged runner over cfg. No work happens until the
// first stage (or Study) is invoked.
func NewRunner(cfg Config) *Runner { return &Runner{Cfg: cfg} }

// NewRunnerWithSource creates a runner that streams traffic from src
// instead of synthesizing it. The campaign still supplies ground truth,
// topology, and the tracked explicit zones.
func NewRunnerWithSource(cfg Config, c *ecosystem.Campaign, src source.Source) *Runner {
	return &Runner{Cfg: cfg, Campaign: c, Src: src}
}

// Run executes the full study: the one-shot compatibility wrapper over
// the staged Runner, producing a byte-identical Study.
func Run(cfg Config) *Study { return NewRunner(cfg).Study() }

// Study returns the bundled result, running any stages that have not
// run yet. Re-running a stage marks its downstream stages stale, so a
// later Study (or explicit stage call) refreshes them; the same Study
// value always reflects the latest outputs.
func (r *Runner) Study() *Study {
	if !r.collected {
		r.Collect()
	}
	return r.st
}

// Plan builds the campaign and the traffic source. It runs once;
// subsequent calls are no-ops.
func (r *Runner) Plan() *Runner {
	if r.planned {
		return r
	}
	r.st = &Study{Cfg: r.Cfg}
	if r.Campaign == nil {
		r.Campaign = ecosystem.NewCampaign(r.Cfg.Campaign)
	}
	r.st.Campaign = r.Campaign
	r.window = simclock.MainPeriod()
	full := simclock.MainPeriod()
	if r.Cfg.ExtendedWindow {
		full = simclock.EntityPeriod()
	}
	if r.Src == nil {
		gen := ecosystem.NewGenerator(r.Campaign, r.Cfg.TrafficSeed)
		r.Src = source.NewSynthetic(gen, full)
	}
	r.days = r.Src.Days()
	r.planned = true
	return r
}

// Aggregate runs pass 1: workers materialize the source's days in
// parallel, each observing into its own aggregator shards and capture
// point (single writer, no locks); the honeypot sensor flows a worker
// meets are kept in per-day slots — only the in-window ones the
// platform's inference accepts — and fed to the platform serially in day
// order at the barrier. It fills AggMain, AggExt, CaptureStats, and
// HoneypotAttacks.
//
// Shards aggregate directly in the source's interning table: every
// name a worker can meet is interned before the parallel stage starts —
// the batches' names by the source, the tracked explicit zones here —
// so the table is read-only while workers run, shard merges add up ID
// by ID, and a batch in any other table is refused (RemapBatch panics).
func (r *Runner) Aggregate() *Runner {
	r.Plan()
	st, c := r.st, r.Campaign
	workers := r.Cfg.workers()
	track := append([]string{}, c.DB.ExplicitNames()...)

	stab := r.Src.Table()
	mains := make([]*core.Aggregator, workers)
	exts := make([]*core.Aggregator, workers)
	caps := make([]*ixp.CapturePoint, workers)
	for w := range workers {
		mains[w] = core.NewAggregator(stab, track)
		exts[w] = core.NewAggregator(stab, track)
		caps[w] = ixp.NewCapturePoint(nil, stab)
	}
	window := r.window
	hpCfg := honeypot.CCCThresholds()
	dayFlows := make([][]ecosystem.SensorFlow, len(r.days))
	forEachDay(r.days, workers, func(worker, i int, day simclock.Time, scratch *ixp.SampleBatch) {
		batch, flows := r.Src.DayFlows(day, scratch)
		// Batch-native pass 1: RemapBatch accumulates capture stats and
		// holds the batch to the shared table; the aggregators then
		// consume whole columns, split at the window boundary (a
		// time-bounds check — only batches that straddle it fall back to
		// a filtered row walk).
		rb := caps[worker].RemapBatch(batch)
		core.ObserveBatchSplit(mains[worker], exts[worker], rb, window)
		// The flows are this call's (Source.DayFlows): keep the accepted
		// in-window ones in place.
		dayFlows[i] = slices.DeleteFunc(flows, func(sf ecosystem.SensorFlow) bool {
			return !window.Contains(sf.Start) || !hpCfg.Accepts(sf)
		})
	})

	// Stage barrier: MergeShards folds each window's shards into one
	// aggregator with a canonical client-day arena, independent of the
	// sharding. Every shard aggregated in the shared source table, so
	// name IDs are already sharding-independent (the aggregates keep the
	// source table as their ID space).
	st.AggMain = core.MergeShards(mains)
	st.AggExt = core.MergeShards(exts)
	st.CaptureStats = caps[0].Stats
	for _, cp := range caps[1:] {
		st.CaptureStats.Add(cp.Stats)
	}
	hp := honeypot.NewPlatform(hpCfg, r.Cfg.Campaign.NumSensors)
	for _, flows := range dayFlows {
		for _, sf := range flows {
			hp.Observe(sf)
		}
	}
	st.HoneypotAttacks = hp.Finalize()
	r.aggregated = true
	r.selected, r.detected, r.collected = false, false, false
	return r
}

// Select runs the selector sweep over the pass-1 aggregates: the three
// selectors, the consensus point (Fig. 3), and the final misused-name
// list.
func (r *Runner) Select() *Runner {
	if !r.aggregated {
		r.Aggregate()
	}
	st := r.st
	if len(r.ForceNames) > 0 {
		nl := &core.NameList{N: len(r.ForceNames), Names: make(map[string]bool, len(r.ForceNames))}
		for _, n := range r.ForceNames {
			nl.Names[n] = true
		}
		st.NameList = nl
		r.selected = true
		r.detected, r.collected = false, false
		return r
	}
	gts := make([]core.GroundTruthAttack, 0, len(st.HoneypotAttacks))
	for _, a := range st.HoneypotAttacks {
		gts = append(gts, core.GroundTruthAttack{Victim: a.VictimKey(), Start: a.Start, End: a.End})
	}
	st.Sel1 = core.Selector1MaxSize(st.AggMain)
	st.Sel2 = core.Selector2ANYCount(st.AggMain)
	st.Sel3, st.VisibleGroundTruth = core.Selector3GroundTruth(st.AggMain, gts)
	st.ConsensusN, st.ConsensusCurve = core.ConsensusPointParallel(r.Cfg.MaxSelectorN, r.Cfg.workers(), st.Sel1, st.Sel2, st.Sel3)
	st.NameList = core.BuildNameList(st.ConsensusN, st.Sel1, st.Sel2, st.Sel3)
	r.selected = true
	r.detected, r.collected = false, false
	return r
}

// Detect runs threshold detection over the aggregates and the current
// name list. It reads Cfg.Thresholds at call time: mutate Cfg and
// re-invoke to re-detect without re-aggregating (then re-invoke Collect
// if pass-2 records are needed for the new detections).
func (r *Runner) Detect() *Runner {
	if !r.selected {
		r.Select()
	}
	st := r.st
	st.Cfg.Thresholds = r.Cfg.Thresholds
	st.Detections = core.Detect(st.AggMain, st.NameList.Names, r.Cfg.Thresholds)
	st.DetectionsExt = nil
	if r.Cfg.ExtendedWindow {
		st.DetectionsExt = core.Detect(st.AggExt, st.NameList.Names, r.Cfg.Thresholds)
	}
	r.detected = true
	r.collected = false
	return r
}

// Collect runs pass 2, gathering per-attack details for the current
// detections. A sample lands in the record keyed by its own (client,
// sample-day), but events straddling midnight emit samples on days
// after their generation day. Each generation day therefore gets a
// private collector over the detections it can possibly feed — its own
// day plus the campaign's maximum event span ("spill horizon") — and
// days that cannot feed any detection are skipped entirely. A day asks
// the source only for its collector's victims' rows (Source.DayFor):
// the collector keeps no other row, so a synthetic source skips the
// background traffic unless a victim is a background client. The
// per-day partials are merged into the full collector in day order at
// the barrier, which reproduces the serial collector's record and
// VisibleNS ordering exactly.
func (r *Runner) Collect() *Runner {
	if !r.detected {
		r.Detect()
	}
	st, c := r.st, r.Campaign
	workers := r.Cfg.workers()
	all := append(append([]*core.Detection{}, st.Detections...), st.DetectionsExt...)
	detsByDay := make(map[int][]*core.Detection)
	for _, d := range all {
		detsByDay[d.Day] = append(detsByDay[d.Day], d)
	}
	spill := 0
	for _, ev := range c.Events {
		if s := ev.End().Day() - ev.Start.Day(); s > spill {
			spill = s
		}
	}
	// Pass 2 streams the same source as pass 1 (synthetic day synthesis
	// is a pure function of the day). The candidates are resolved once,
	// serially, against the source table, the batches' own: NameList
	// names come from selectors over observed traffic, so they are
	// already interned, and every per-day collector below shares the
	// one read-only lookup.
	cands := core.NewCandidates(r.Src.Table(), st.NameList.Names)
	dayCols := make([]*core.Collector, len(r.days))
	forEachDay(r.days, workers, func(_, i int, day simclock.Time, scratch *ixp.SampleBatch) {
		var dets []*core.Detection
		for d := day.Day(); d <= day.Day()+spill; d++ {
			dets = append(dets, detsByDay[d]...)
		}
		if len(dets) == 0 {
			return
		}
		victims := make([][4]byte, len(dets))
		for j, d := range dets {
			victims[j] = d.Victim
		}
		col := core.NewCollector(cands, dets)
		// Batch-native pass 2: the batch is in the candidates' table
		// (pass 1 held every day of this source to it) and ObserveBatch
		// consumes it directly — no per-sample materialization, no
		// capture stats (pass 1 counted them, and DayFor's counters
		// cover only the rows it holds), and no routing annotation for
		// the packets the collector rejects.
		col.ObserveBatch(r.Src.DayFor(day, victims, scratch), c.Topo)
		dayCols[i] = col
	})
	col := core.NewCollector(cands, all)
	for _, dc := range dayCols {
		if dc != nil {
			col.Merge(dc)
		}
	}
	col.SetVictimASN(func(v [4]byte) uint32 {
		return c.Topo.OriginAS(ecosystem.AddrFromKey(v))
	})
	st.Records = col.Records()
	st.VisibleNS = col.VisibleNS
	r.collected = true
	return r
}

// Current returns the Study as computed so far without running any
// stages — unlike Study, which forces a full Collect. Callers that only
// need detections invoke Detect and read Current: threshold sweeps skip
// the pass-2 record collection entirely. Nil before Plan has run.
func (r *Runner) Current() *Study { return r.st }
