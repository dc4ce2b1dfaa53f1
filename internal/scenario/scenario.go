// Package scenario is the adversarial traffic catalog: parameterized
// attack and benign scenarios that stress the paper's detection method
// (candidate-domain consensus + share/packet thresholds) far beyond the
// single campaign shape the reproduction was validated against.
//
// Each scenario is a pure function of (Params, seed): it overlays
// deterministic sampled wire traffic — pulse-wave amplification,
// carpet-bombing, random-subdomain floods, slow drips under the
// detection thresholds, resolver churn, and benign confounders — on the
// organic background of an ecosystem.Generator (campaign attack events
// suppressed via Generator.SkipAttacks, so the scenario owns the
// complete ground truth). The result is a Built: a source.Replay the
// staged pipeline.Runner streams like any other source, labeled
// ground-truth (victim, day) pairs, and the candidate name list the
// detector should use.
//
// Scenario traffic is materialized twice-consistently, like the
// generator's Day/WireDay twins: the overlay's frames come from the
// generator's wire sink, ecosystem.AppendFrame; the canonical batch
// form sanitizes them through ixp.CapturePoint.Process, and
// ExportWire writes those exact frames as an sFlow v5 datagram log
// and/or classic pcap, so export → re-ingest (source.IngestSFlowLog /
// IngestPCAP) reproduces identical detection scores — the round-trip
// property internal/eval's tests pin.
package scenario

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
	"dnsamp/internal/topology"
)

// Params are the catalog-wide knobs. Every scenario draws its window,
// background volume, and namespace from these; per-scenario shape
// parameters live in the Scenario definitions.
type Params struct {
	// Days is the scenario window length, anchored at
	// simclock.MeasurementStart (must stay inside the main period so
	// background traffic is generated).
	Days int
	// Scale is the background campaign scale (controls organic samples
	// per day and the client population).
	Scale float64
	// ProceduralNames bounds the synthetic namespace (tests use small
	// values; the CLI default is larger).
	ProceduralNames int
	// CampaignSeed / TrafficSeed seed the background campaign and its
	// traffic synthesis.
	CampaignSeed, TrafficSeed int64
}

// DefaultParams returns the catalog defaults used by evalrun and the
// golden tests: a 8-day window over a small-scale background.
func DefaultParams() Params {
	return Params{
		Days:            8,
		Scale:           0.05,
		ProceduralNames: 50_000,
		CampaignSeed:    1,
		TrafficSeed:     11,
	}
}

// Window returns the scenario window: Days days from the measurement
// start.
func (p Params) Window() simclock.Window {
	return simclock.Window{
		Start: simclock.MeasurementStart,
		End:   simclock.MeasurementStart.Add(simclock.Days(p.Days)),
	}
}

// Env is the shared substrate scenarios build on: one benign-background
// campaign and generator reused by every Build call. Construction is
// the expensive part (topology, zone DB, name interning), so callers
// build one Env and run the whole catalog against it.
//
// Builds intern scenario-specific names (e.g. random-subdomain labels)
// into the generator's table, so Env is NOT safe for concurrent Build
// calls; run builds sequentially. A finished Built is read-only and
// safe for concurrent streaming.
type Env struct {
	P   Params
	C   *ecosystem.Campaign
	Gen *ecosystem.Generator
}

// NewEnv plans the shared background substrate for the given params.
// p.Scale must pass ecosystem.CheckScale, and p.Days be at least 1.
func NewEnv(p Params) *Env {
	cfg := ecosystem.DefaultCampaignConfig(p.Scale)
	cfg.Seed = p.CampaignSeed
	if p.ProceduralNames > 0 {
		cfg.Zones.ProceduralNames = p.ProceduralNames
	}
	c := ecosystem.NewCampaign(cfg)
	gen := ecosystem.NewGenerator(c, p.TrafficSeed)
	gen.SkipAttacks = true
	return &Env{P: p, C: c, Gen: gen}
}

// Kind classifies a scenario's ground truth.
type Kind int

const (
	// Attack scenarios label real attack (victim, day) pairs; a miss is
	// a false negative.
	Attack Kind = iota
	// Benign scenarios have an empty truth set; any detection is a
	// false positive.
	Benign
)

func (k Kind) String() string {
	if k == Benign {
		return "benign"
	}
	return "attack"
}

// GroundTruth labels one attacked victim and the days it is under
// attack within the scenario window.
type GroundTruth struct {
	Victim [4]byte
	// Days are the day keys (simclock.Time.Day values) under attack,
	// ascending.
	Days []int
}

// Scenario is one catalog entry: a named, parameterized traffic shape.
// Prepare derives the per-seed plan (victims, amplifier sets, schedule)
// without materializing traffic; the plan's Emit is a pure function of
// the day, so days may be materialized in any order.
type Scenario struct {
	// Name is the catalog key (stable, kebab-case).
	Name string
	// Kind separates attack scenarios from benign confounders.
	Kind Kind
	// Description is the one-line operator-facing summary.
	Description string

	// Prepare plans the scenario over the shared env, drawing from rng,
	// a stream of the build seed and the scenario name.
	Prepare func(env *Env, rng *rand.Rand) *Plan
}

// Plan is a prepared scenario: ground truth, the window days its
// overlay fires on, and what it emits on each.
type Plan struct {
	// Truth holds the labeled attacks (empty for benign scenarios).
	Truth []GroundTruth
	// The overlay fires on the window days whose index idx has
	// From <= idx < To; days past the window never fire.
	From, To int
	// Emit synthesizes the overlay of one firing day through e
	// (already-sampled records, like the generator's wire path after
	// flow thinning), drawing only from e's stream.
	Emit func(e *emitter)
}

// Built is a fully materialized scenario, ready for the pipeline.
type Built struct {
	Scenario *Scenario
	Env      *Env
	Seed     int64

	// Source streams the composed traffic (background + overlay), one
	// batch per window day.
	Source *source.Replay
	// Truth is the labeled ground truth; TruthSet is its (victim, day)
	// key form used for scoring.
	Truth    []GroundTruth
	TruthSet map[core.ClientDay]bool
	// Candidates is the misused-name list the detector should be run
	// with (the zone DB's misused candidates — all of them tracked by
	// the pipeline's aggregator, so threshold shares resolve exactly).
	Candidates []string

	plan *Plan
	seed int64 // the scenario's stream: scenarioSeed(Seed, name)
}

// Build materializes one scenario: per window day, the background
// generator's batch plus the scenario overlay frames sanitized
// through the capture-point path (exactly what re-ingesting the
// exported wire capture would produce).
func (env *Env) Build(sc *Scenario, seed int64) *Built {
	s := scenarioSeed(seed, sc.Name)
	plan := sc.Prepare(env, rand.New(rand.NewSource(s)))
	bt := &Built{
		Scenario:   sc,
		Env:        env,
		Seed:       seed,
		Source:     source.NewReplay(env.Gen.Table()),
		Truth:      plan.Truth,
		TruthSet:   make(map[core.ClientDay]bool),
		Candidates: slices.Clone(env.C.DB.MisusedCandidates()),
		plan:       plan,
		seed:       s,
	}
	for _, gt := range plan.Truth {
		for _, d := range gt.Days {
			bt.TruthSet[core.ClientDay{Client: gt.Victim, Day: d}] = true
		}
	}
	env.P.Window().EachDay(func(day simclock.Time) {
		// The generator hands back a freshly materialized batch each
		// call — nothing else references it, so appending the overlay
		// in place is safe.
		b := env.Gen.Day(day, nil).Batch
		source.AppendFrames(b, bt.overlay(day))
		// The day is held for the whole run: drop the spare room
		// AppendFrames' Grow and the sanitizer's drops leave.
		if cap(b.Rows) > b.N {
			b.Rows = append(make([]ixp.BatchRecord, 0, b.N), b.Rows...)
		}
		bt.Source.AddDay(day, b, nil)
	})
	return bt
}

// overlay is the scenario's sampled frames of one day: the plan's Emit
// on its own per-day stream when the day is a window day the plan fires
// on, nil otherwise.
func (bt *Built) overlay(day simclock.Time) []ecosystem.TaggedRecord {
	idx := day.DayIndex(bt.Env.P.Window().Start)
	if idx < bt.plan.From || idx >= min(bt.plan.To, bt.Env.P.Days) {
		return nil
	}
	seed := daySeed(bt.seed, day)
	e := &emitter{
		rng:     rand.New(rand.NewSource(seed)),
		sampler: sflow.NewSampler(seed ^ 0x5ce),
		day:     day,
		idx:     idx,
	}
	bt.plan.Emit(e)
	return e.out
}

// scenarioSeed decorrelates per-scenario streams: same mixing shape as
// the generator's daySeed, salted with the scenario name.
func scenarioSeed(seed int64, name string) int64 {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return int64(h)
}

// daySeed derives the per-day stream of a prepared scenario.
func daySeed(scSeed int64, day simclock.Time) int64 {
	z := uint64(scSeed)*0x9e3779b97f4a7c15 + uint64(day.Day())*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z)
}

// emitter synthesizes the sampled overlay frames of one scenario day
// through the generator's wire sink, ecosystem.AppendFrame: full frames
// with announced UDP lengths (amplified sizes survive snaplen truncation
// via the length field), truncated by the sampler to capture records.
type emitter struct {
	rng     *rand.Rand
	sampler *sflow.Sampler
	enc     dnswire.Encoder
	out     []ecosystem.TaggedRecord
	day     simclock.Time // the day emitted
	idx     int           // its window-day index
}

// response emits one amp->dst DNS response whose UDP length announces
// size bytes, or the encoded message's size if larger (the payload
// materializes only the message prefix, like a truncated capture of a
// large answer).
func (e *emitter) response(t simclock.Time, amp *ecosystem.Amplifier, dst netip.Addr, dstASN uint32, name string, qtype dnswire.Type, rcode dnswire.RCode, size int) {
	r := ixp.BatchRecord{
		Time: t, Src: amp.Addr.As4(), Dst: dst.As4(), IPTTL: amp.ObservedTTL(),
		TXID:    uint16(e.rng.Intn(1 << 16)),
		IPID:    uint16(e.rng.Intn(1 << 16)),
		SrcPort: 53,
		DstPort: uint16(1024 + e.rng.Intn(60000)),
	}
	resp := dnswire.NewResponse(dnswire.NewQuery(r.TXID, name, qtype, 4096))
	resp.Header.RCode = rcode
	payload := e.enc.Encode(resp)
	eth := netmodel.Ethernet{Src: ecosystem.MACForAS(amp.ASN), Dst: ecosystem.MACForAS(dstASN)}
	e.out = ecosystem.AppendFrame(e.out, e.sampler, &r, eth, payload, netmodel.UDPHeaderLen+max(size, len(payload)))
}

// query emits one src->amp DNS query; ingress carries the member-AS
// port attribution for spoofed sources (0 = derive from the source
// address).
func (e *emitter) query(t simclock.Time, src netip.Addr, srcASN uint32, amp *ecosystem.Amplifier, name string, qtype dnswire.Type, ttl uint8, ingress uint32) {
	r := ixp.BatchRecord{
		Time: t, Src: src.As4(), Dst: amp.Addr.As4(), IPTTL: ttl, Ingress: ingress,
		TXID:    uint16(e.rng.Intn(1 << 16)),
		IPID:    uint16(e.rng.Intn(1 << 16)),
		SrcPort: uint16(1024 + e.rng.Intn(60000)),
		DstPort: 53,
	}
	payload := e.enc.Encode(dnswire.NewQuery(r.TXID, name, qtype, 4096))
	eth := netmodel.Ethernet{Src: ecosystem.MACForAS(srcASN), Dst: ecosystem.MACForAS(amp.ASN)}
	e.out = ecosystem.AppendFrame(e.out, e.sampler, &r, eth, payload, 0)
}

// dayTime draws a uniform instant within the day.
func (e *emitter) dayTime() simclock.Time {
	return e.day.Add(simclock.Duration(e.rng.Int63n(int64(simclock.Day))))
}

// pickVictims draws n distinct victim addresses (with their origin
// ASNs) from the env topology's access networks.
func pickVictims(env *Env, rng *rand.Rand, n int) ([]netip.Addr, []uint32) {
	asns := env.C.Topo.ASesOfType(topology.ASAccess)
	addrs := make([]netip.Addr, 0, n)
	origins := make([]uint32, 0, n)
	seen := make(map[netip.Addr]bool, n)
	for len(addrs) < n {
		asn := asns[rng.Intn(len(asns))]
		a, ok := env.C.Topo.RandomAddrIn(rng, asn)
		if !ok || seen[a] {
			continue
		}
		seen[a] = true
		addrs = append(addrs, a)
		origins = append(origins, asn)
	}
	return addrs, origins
}

// pickAmplifiers samples k alive amplifier endpoints at t.
func pickAmplifiers(env *Env, rng *rand.Rand, t simclock.Time, k int) []*ecosystem.Amplifier {
	ids := env.C.Pool.AppendAlive(nil, rng, t, k, nil)
	out := make([]*ecosystem.Amplifier, len(ids))
	for i, id := range ids {
		out[i] = env.C.Pool.Get(id)
	}
	return out
}

// truthDays enumerates the day keys of the window days [from, to)
// (window-relative indices).
func truthDays(env *Env, from, to int) []int {
	var out []int
	start := env.P.Window().Start
	for d := from; d < to; d++ {
		out = append(out, start.Add(simclock.Days(d)).Day())
	}
	return out
}

// ByName resolves a catalog scenario; the error lists valid names.
func ByName(name string) (*Scenario, error) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, nil
		}
	}
	var known []string
	for _, sc := range Catalog() {
		known = append(known, sc.Name)
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, known)
}
