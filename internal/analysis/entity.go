package analysis

import (
	"slices"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
)

// The §6.1 fingerprint that links attack records to the major attack
// entity: misuse of .gov names combined with static DNS transaction-ID
// behaviour (a small ID pool with single-parity structure).
const (
	// maxTXIDRatio is the maximum #TXIDs / #packets ratio (the paper
	// finds IDs 1–2 orders of magnitude below the packet count).
	maxTXIDRatio float64 = 0.35
	// minParityShare is the minimum share of packets whose TXID parity
	// matches the dominant parity (paper: 91% of events are pure; the
	// rest show a two-phase shift).
	minParityShare float64 = 0.90
	// minEntityPackets guards against tiny records where parity is
	// uninformative.
	minEntityPackets = 9
)

// TXIDProfile summarizes a record's transaction-ID structure.
type TXIDProfile struct {
	Packets int
	Unique  int
	// EvenShare is the fraction of packets with even TXIDs.
	EvenShare float64
	// Pure is true when one parity dominates at minParityShare.
	Pure bool
	// TwoPhase is true when the IDs split into an even set and an odd
	// set of meaningful size (the straddling 9%).
	TwoPhase bool
	// DominantParity is 0 (even) or 1 (odd).
	DominantParity int
}

// ProfileTXIDs computes the TXID structure of a record.
func ProfileTXIDs(r *core.AttackRecord) TXIDProfile {
	p := TXIDProfile{Packets: r.Packets, Unique: len(r.TXIDs)}
	even := 0
	for id, c := range r.TXIDs {
		if id%2 == 0 {
			even += c
		}
	}
	if r.Packets > 0 {
		p.EvenShare = float64(even) / float64(r.Packets)
	}
	if p.EvenShare >= 0.5 {
		p.DominantParity = 0
	} else {
		p.DominantParity = 1
	}
	domShare := p.EvenShare
	if p.DominantParity == 1 {
		domShare = 1 - p.EvenShare
	}
	p.Pure = domShare >= minParityShare
	p.TwoPhase = !p.Pure && domShare >= 0.55 && domShare <= 0.95 ||
		(!p.Pure && p.EvenShare > 0.2 && p.EvenShare < 0.8)
	return p
}

// MatchEntity applies the fingerprint to one record.
func MatchEntity(r *core.AttackRecord) bool {
	if r.Packets < minEntityPackets {
		return false
	}
	if dnswire.TLD(r.DominantName()) != "gov" {
		return false
	}
	if float64(len(r.TXIDs)) > maxTXIDRatio*float64(r.Packets) {
		return false
	}
	p := ProfileTXIDs(r)
	return p.Pure || p.TwoPhase
}

// EntityResult bundles the §6 analyses.
type EntityResult struct {
	// Records attributed to the entity.
	Records []*core.AttackRecord
	// ShareOfAttacks is |Records| / all main-window attacks (paper:
	// 59%).
	ShareOfAttacks float64
	// PureParityShare is the share of entity records with single-parity
	// TXIDs (paper: 91%).
	PureParityShare float64
	// ParityRhythmScore is the share of entity records whose dominant
	// parity matches the best 48-hour alternation pattern (≈1.0 means
	// a clean two-day rhythm).
	ParityRhythmScore float64
	// RhythmPhase is the detected phase (0 or 1) of the alternation.
	RhythmPhase int

	// NameSeries is the Fig. 8a data: sampled packets per (day, name).
	NameSeries map[string]map[int]int
	// Transitions are the detected name-transition days (first day a
	// new .gov name dominates).
	Transitions []simclock.Time

	// VictimSeries is Fig. 11: per day, unique victim IPs / /24s / ASNs.
	VictimSeries []VictimDay

	// AmplifierSeries is Fig. 12: per day, known vs new amplifiers.
	AmplifierSeries []AmplifierDay

	// TXIDScatter is Fig. 10: per record (packets, unique TXIDs).
	TXIDScatter []TXIDPoint

	// RequestShareByPhase tracks the request fraction of entity traffic
	// before/after the relocations (paper: ~0% then ~85%).
	RequestShareByPhase map[int]float64
	// Relocations are detected infrastructure moves: days where the
	// dominant request-ingress AS changes (or requests appear at all).
	Relocations []Relocation

	// SizesByName feeds Fig. 9: observed response sizes per name.
	SizesByName map[string][]int
}

// VictimDay is one day of Fig. 11.
type VictimDay struct {
	Day      simclock.Time
	IPs      int
	Prefixes int
	ASNs     int
}

// AmplifierDay is one day of Fig. 12.
type AmplifierDay struct {
	Day   simclock.Time
	Known int
	New   int
}

// TXIDPoint is one Fig. 10 scatter point.
type TXIDPoint struct {
	Packets int
	TXIDs   int
}

// Relocation is one detected topological move of the entity back-end.
type Relocation struct {
	Day simclock.Time
	// FromAS / ToAS are the dominant ingress member ASNs before and
	// after (0 = requests not visible).
	FromAS, ToAS uint32
}

// AnalyzeEntity runs the §6 analyses over all attack records (main +
// extended window).
func AnalyzeEntity(records []*core.AttackRecord, mainWindowAttacks int) *EntityResult {
	res := &EntityResult{
		NameSeries:          make(map[string]map[int]int),
		RequestShareByPhase: make(map[int]float64),
		SizesByName:         make(map[string][]int),
	}
	for _, r := range records {
		if MatchEntity(r) {
			res.Records = append(res.Records, r)
		}
	}
	slices.SortFunc(res.Records, func(a, b *core.AttackRecord) int { return a.Day - b.Day })

	mainCount := 0
	pure := 0
	for _, r := range res.Records {
		if simclock.MainPeriod().Contains(simclock.Time(r.Day) * simclock.Time(simclock.Day)) {
			mainCount++
		}
		p := ProfileTXIDs(r)
		if p.Pure {
			pure++
		}
		res.TXIDScatter = append(res.TXIDScatter, TXIDPoint{Packets: r.Packets, TXIDs: len(r.TXIDs)})
		name := r.DominantName()
		if res.NameSeries[name] == nil {
			res.NameSeries[name] = make(map[int]int)
		}
		res.NameSeries[name][r.Day] += r.Packets
		res.SizesByName[name] = append(res.SizesByName[name], r.Sizes...)
	}
	if mainWindowAttacks > 0 {
		res.ShareOfAttacks = float64(mainCount) / float64(mainWindowAttacks)
	}
	if len(res.Records) > 0 {
		res.PureParityShare = float64(pure) / float64(len(res.Records))
	}

	res.analyzeRhythm()
	res.analyzeTransitions()
	res.analyzeVictims()
	res.analyzeAmplifiers()
	res.analyzeRelocations()
	return res
}

// analyzeRhythm scores the 48-hour parity alternation.
func (res *EntityResult) analyzeRhythm() {
	match := [2]int{}
	total := 0
	for _, r := range res.Records {
		p := ProfileTXIDs(r)
		if !p.Pure {
			continue
		}
		total++
		for phase := 0; phase < 2; phase++ {
			want := (r.Day/2 + phase) % 2
			if p.DominantParity == want {
				match[phase]++
			}
		}
	}
	if total == 0 {
		return
	}
	if match[0] >= match[1] {
		res.ParityRhythmScore = float64(match[0]) / float64(total)
		res.RhythmPhase = 0
	} else {
		res.ParityRhythmScore = float64(match[1]) / float64(total)
		res.RhythmPhase = 1
	}
}

// analyzeTransitions finds the first day each name becomes the entity's
// daily dominant name.
func (res *EntityResult) analyzeTransitions() {
	// Dominant name per day.
	byDay := make(map[int]map[string]int)
	for name, days := range res.NameSeries {
		for d, pkts := range days {
			if byDay[d] == nil {
				byDay[d] = make(map[string]int)
			}
			byDay[d][name] += pkts
		}
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	slices.Sort(days)
	prev := ""
	for _, d := range days {
		best, bestName := 0, ""
		for n, p := range byDay[d] {
			if p > best || (p == best && n < bestName) {
				best, bestName = p, n
			}
		}
		if bestName != prev && prev != "" {
			res.Transitions = append(res.Transitions, simclock.Time(d)*simclock.Time(simclock.Day))
		}
		prev = bestName
	}
}

// analyzeVictims builds Fig. 11.
func (res *EntityResult) analyzeVictims() {
	type daySets struct {
		ips  map[[4]byte]bool
		p24  map[[3]byte]bool
		asns map[uint32]bool
	}
	byDay := make(map[int]*daySets)
	for _, r := range res.Records {
		ds := byDay[r.Day]
		if ds == nil {
			ds = &daySets{ips: map[[4]byte]bool{}, p24: map[[3]byte]bool{}, asns: map[uint32]bool{}}
			byDay[r.Day] = ds
		}
		ds.ips[r.Victim] = true
		ds.p24[[3]byte{r.Victim[0], r.Victim[1], r.Victim[2]}] = true
		ds.asns[r.VictimASN] = true
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	slices.Sort(days)
	for _, d := range days {
		ds := byDay[d]
		res.VictimSeries = append(res.VictimSeries, VictimDay{
			Day: simclock.Time(d) * simclock.Time(simclock.Day),
			IPs: len(ds.ips), Prefixes: len(ds.p24), ASNs: len(ds.asns),
		})
	}
}

// analyzeAmplifiers builds Fig. 12: per day, amplifiers already seen in
// earlier entity attacks vs first-time amplifiers.
func (res *EntityResult) analyzeAmplifiers() {
	byDay := make(map[int]map[[4]byte]bool)
	for _, r := range res.Records {
		m := byDay[r.Day]
		if m == nil {
			m = make(map[[4]byte]bool)
			byDay[r.Day] = m
		}
		for a := range r.Amplifiers {
			m[a] = true
		}
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	slices.Sort(days)
	seen := make(map[[4]byte]bool)
	for _, d := range days {
		known, fresh := 0, 0
		for a := range byDay[d] {
			if seen[a] {
				known++
			} else {
				fresh++
				seen[a] = true
			}
		}
		res.AmplifierSeries = append(res.AmplifierSeries, AmplifierDay{
			Day: simclock.Time(d) * simclock.Time(simclock.Day), Known: known, New: fresh,
		})
	}
}

// analyzeRelocations detects infrastructure moves from the request-side
// observables: the request share of entity traffic and the dominant
// ingress member.
func (res *EntityResult) analyzeRelocations() {
	type dayReq struct {
		day      int
		requests int
		packets  int
		ingress  map[uint32]int
	}
	byDay := make(map[int]*dayReq)
	for _, r := range res.Records {
		dr := byDay[r.Day]
		if dr == nil {
			dr = &dayReq{day: r.Day, ingress: make(map[uint32]int)}
			byDay[r.Day] = dr
		}
		dr.requests += r.Requests
		dr.packets += r.Packets
		for as, c := range r.ReqIngress {
			dr.ingress[as] += c
		}
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	slices.Sort(days)

	// Phase request shares (0 = before first relocation).
	var phases []struct {
		packets, requests int
	}
	phases = append(phases, struct{ packets, requests int }{})

	prevAS := uint32(0)
	candidate := uint32(0)
	run := 0
	for _, d := range days {
		dr := byDay[d]
		domAS, domCnt := uint32(0), 0
		for as, c := range dr.ingress {
			if c > domCnt {
				domAS, domCnt = as, c
			}
		}
		// Require the dominant ingress to carry a meaningful request
		// share to count as "visible requests".
		if dr.requests*5 < dr.packets {
			domAS = 0
		}
		switch {
		case domAS == prevAS:
			run = 0
		case domAS == candidate:
			run++
			if run >= 2 { // two consistent days confirm a move
				res.Relocations = append(res.Relocations, Relocation{
					Day: simclock.Time(d-1) * simclock.Time(simclock.Day), FromAS: prevAS, ToAS: domAS,
				})
				prevAS = domAS
				run = 0
				phases = append(phases, struct{ packets, requests int }{})
			}
		default:
			candidate = domAS
			run = 1
		}
		cur := &phases[len(phases)-1]
		cur.packets += dr.packets
		cur.requests += dr.requests
	}
	for i, ph := range phases {
		if ph.packets > 0 {
			res.RequestShareByPhase[i] = float64(ph.requests) / float64(ph.packets)
		}
	}
}
