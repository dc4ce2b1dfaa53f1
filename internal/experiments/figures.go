package experiments

import (
	"fmt"
	"slices"
	"sort"

	"dnsamp/internal/analysis"
	"dnsamp/internal/cluster"
	"dnsamp/internal/core"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/honeypot"
	"dnsamp/internal/openintel"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
)

// Table2 reproduces Table 2: distribution of attacks and attack traffic
// across misused-name TLDs.
func (s *Suite) Table2() *Report {
	r := &Report{ID: "table2", Title: "attacks and attack traffic per misused-name TLD"}
	rows := analysis.Table2(s.MainRecords, s.Study.NameList.Names)
	r.addf("paper: .gov dominates with 17 names, 74.9%% of packets, 22.8k attacks, max 8069 B")
	r.addf("%-8s %7s %9s %9s %9s", "TLD", "names", "pkts%", "attacks", "maxB")
	for _, row := range rows {
		r.addf("%-8s %7d %8.2f%% %9d %9d", row.TLD, row.Names, row.PacketShare, row.Attacks, row.MaxSize)
	}
	dq := analysis.AttackDurations(s.MainRecords)
	r.addf("durations: q25=%s q50=%s (paper: 25%%<7m, 50%%<33m; sampled spans underestimate)",
		simclock.Duration(dq.Q25), simclock.Duration(dq.Q50))
	shares := analysis.VictimClassShare(s.MainRecords, s.classOf)
	r.addf("victim classes (paper: ISP 36%%, content 24%% of traffic):")
	var classes []string
	for c := range shares {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		r.addf("  %-12s %5.1f%%", c, 100*shares[c])
	}
	nx := analysis.AnalyzeNXNS(s.collectVisibleNS())
	r.addf("NXNS check (paper: 70%% of responses <=1 NS, 90%% <=10): <=1 %.0f%%, <=10 %.0f%%",
		100*nx.AtMost1Share, 100*nx.AtMost10Share)
	return r
}

// Figure3 reproduces the selector-consensus curve.
func (s *Suite) Figure3() *Report {
	r := &Report{ID: "figure3", Title: "selector consensus (Jaccard) vs top-N"}
	r.addf("paper: consensus peaks at 29 names per selector")
	r.addf("measured consensus point: N=%d (curve peak %.2f)", s.Study.ConsensusN, s.Study.ConsensusCurve[s.Study.ConsensusN])
	r.addf("curve: %s", sparkline(s.Study.ConsensusCurve[1:]))
	r.addf("final list: %d names (paper: 34), mutual across 3 selectors: %d (paper: 21)",
		len(s.Study.NameList.Names), s.Study.NameList.MutualCount())
	r.addf(".gov share of list: %.0f%% (paper: 17/34 = 50%%)", 100*s.Study.NameList.GovShare())
	return r
}

// Figure4 reproduces the misused-name share vs packet-count bimodality.
func (s *Suite) Figure4() *Report {
	r := &Report{ID: "figure4", Title: "share of misused names per (client, day)"}
	cand := s.Study.AggMain.CandidatePackets(s.Study.NameList.Names)
	// Bucket by log10(packets); track share distribution per bucket.
	type bucket struct{ lo, mid, hi, n int }
	buckets := map[int]*bucket{}
	slot := 0
	s.Study.AggMain.EachClient(func(_ core.ClientDay, ca *core.ClientAgg) {
		c := cand[slot]
		slot++
		if c == 0 {
			return
		}
		share := float64(c) / float64(ca.Total)
		b := buckets[stats.LogBucket(float64(ca.Total))]
		if b == nil {
			b = &bucket{}
			buckets[stats.LogBucket(float64(ca.Total))] = b
		}
		b.n++
		switch {
		case share >= 0.9:
			b.hi++
		case share <= 0.1:
			b.lo++
		default:
			b.mid++
		}
	})
	r.addf("paper: bimodal — with higher packet counts, shares concentrate at ~0%% or ~100%%")
	r.addf("%-14s %8s %8s %8s %8s", "packets", "pairs", "<=10%", "mid", ">=90%")
	var keys []int
	for k := range buckets {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b := buckets[k]
		r.addf("10^%d..10^%d     %8d %7.1f%% %7.1f%% %7.1f%%", k, k+1, b.n,
			100*float64(b.lo)/float64(b.n), 100*float64(b.mid)/float64(b.n), 100*float64(b.hi)/float64(b.n))
	}
	return r
}

// Figure5 reproduces the visibility/threshold trade-off.
func (s *Suite) Figure5() *Report {
	r := &Report{ID: "figure5", Title: "visibility vs minimum packet threshold"}
	thresholds := []int{1, 2, 3, 5, 10, 20, 50, 100, 200}
	pts := core.VisibilityCurve(s.Study.AggMain, s.Study.VisibleGroundTruth, s.Study.NameList.Names,
		s.Study.Cfg.Thresholds.MinShare, thresholds)
	r.addf("paper: at 10 packets, 22%% of visible ground-truth attacks remain; all flows 8%%; 24k+ new attacks")
	r.addf("%8s %14s %12s %12s", "minPkts", "groundTruth%", "allFlows%", "detections")
	for _, p := range pts {
		r.addf("%8d %13.1f%% %11.1f%% %12d", p.MinPackets, 100*p.GroundTruthShare, 100*p.AllFlowsShare, p.Detections)
	}
	return r
}

// Figure6 reproduces the detection-rate convergence over selector sizes.
func (s *Suite) Figure6() *Report {
	r := &Report{ID: "figure6", Title: "detection rate vs selector list size"}
	r.addf("paper: converges to 99%% at 29 names per selector")
	for _, n := range []int{10, 15, 20, 25, s.Study.ConsensusN} {
		nl := core.BuildNameList(n, s.Study.Sel1, s.Study.Sel2, s.Study.Sel3)
		rate := core.ValidateDetection(s.Study.AggMain, s.Study.VisibleGroundTruth, nl.Names, s.Study.Cfg.Thresholds)
		r.addf("N=%2d: detection rate %.1f%% (list size %d)", n, 100*rate, len(nl.Names))
	}
	return r
}

// Figure7 reproduces the mutual-attack intensity deciles.
func (s *Suite) Figure7() *Report {
	r := &Report{ID: "figure7", Title: "decile intensity of mutual IXP/honeypot attacks"}
	ov := analysis.Overlap(s.Study.Detections, s.Study.HoneypotAttacks)
	r.addf("paper: mutual attacks are strong honeypot attacks (mean decile 7.7) but medium IXP attacks (6.3)")
	r.addf("measured mean deciles: honeypot %.1f, IXP %.1f (n=%d mutual)",
		ov.MeanDecileHoneypot, ov.MeanDecileIXP, ov.Mutual)
	hp := make([]float64, 10)
	ix := make([]float64, 10)
	for i := 0; i < 10; i++ {
		hp[i] = ov.DecileHistHoneypot[i]
		ix[i] = ov.DecileHistIXP[i]
	}
	r.addf("honeypot decile hist: %s", sparkline(hp))
	r.addf("IXP decile hist:      %s", sparkline(ix))
	return r
}

// Figure8a reproduces the entity's per-name attack-volume time series.
func (s *Suite) Figure8a() *Report {
	r := &Report{ID: "figure8a", Title: "entity attack volume per misused name over time"}
	ent := s.Entity()
	r.addf("paper: ~10 .gov names used in sequence Jun 2019 - Apr 2020, abrupt transitions")
	var names []string
	for n := range ent.NameSeries {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return firstDay(ent.NameSeries[names[i]]) < firstDay(ent.NameSeries[names[j]])
	})
	for _, n := range names {
		days := ent.NameSeries[n]
		first, last, total := 1<<60, 0, 0
		for d, p := range days {
			if d < first {
				first = d
			}
			if d > last {
				last = d
			}
			total += p
		}
		r.addf("%-24s %s .. %s  pkts=%d", n,
			(simclock.Time(first) * simclock.Time(simclock.Day)).Date(),
			(simclock.Time(last) * simclock.Time(simclock.Day)).Date(), total)
	}
	r.addf("detected name transitions: %d (paper: 9 over 11 months)", len(ent.Transitions))
	return r
}

// Figure8b reproduces the ANY-size series with rollover plateaus.
func (s *Suite) Figure8b() *Report {
	r := &Report{ID: "figure8b", Title: "estimated ANY sizes of misused names (rollover plateaus)"}
	r.addf("paper: plateaus last two weeks (double-signature ZSK rollovers); transitions follow size drops")
	names := s.Study.Campaign.DB.EntityNames()
	for _, n := range names[:3] {
		series := openintel.New(s.Study.Campaign.DB).ANYSizeSeries(n, simclock.EntityPeriod())
		plateaus := openintel.RolloverPlateaus(series, 1500)
		var lens []string
		for _, p := range plateaus {
			lens = append(lens, fmt.Sprintf("%dd", p.Days()))
		}
		vals := make([]float64, 0, len(series))
		for _, p := range series {
			vals = append(vals, float64(p.Size))
		}
		r.addf("%-24s plateaus: %v  series: %s", n, lens, sparkline(decimate(vals, 60)))
	}
	return r
}

// Figure9 reproduces the per-name observed response-size distributions.
func (s *Suite) Figure9() *Report {
	r := &Report{ID: "figure9", Title: "observed response sizes per entity name (violin)"}
	ent := s.Entity()
	r.addf("paper: bi-/tri-modal per name, clusters near the theoretical maximum")
	var names []string
	for n := range ent.SizesByName {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		sizes := ent.SizesByName[n]
		if len(sizes) < 10 {
			continue
		}
		e := stats.ECDF{}
		for _, v := range sizes {
			e.AddInt(v)
		}
		modes := modality(sizes)
		r.addf("%-24s n=%6d q10=%5.0f q50=%5.0f q90=%5.0f max=%5.0f modes=%d",
			n, len(sizes), e.Quantile(0.1), e.Quantile(0.5), e.Quantile(0.9), e.Max(), modes)
	}
	return r
}

// Figure10 reproduces the TXID entropy check.
func (s *Suite) Figure10() *Report {
	r := &Report{ID: "figure10", Title: "unique TXIDs vs packets per entity attack"}
	ent := s.Entity()
	r.addf("paper: TXIDs 1-2 orders of magnitude below packet count; 91%% pure odd/even")
	below1, below2, n := 0, 0, 0
	for _, p := range ent.TXIDScatter {
		if p.Packets < 10 {
			continue
		}
		n++
		if float64(p.TXIDs) <= float64(p.Packets)/10 {
			below1++
		}
		if float64(p.TXIDs) <= float64(p.Packets)/100 {
			below2++
		}
	}
	if n > 0 {
		r.addf("events with TXIDs <= packets/10: %.0f%%; <= packets/100: %.0f%% (n=%d)",
			100*float64(below1)/float64(n), 100*float64(below2)/float64(n), n)
	}
	r.addf("pure-parity share: %.1f%% (paper: 91%%)", 100*ent.PureParityShare)
	r.addf("48h parity rhythm score: %.2f (1.0 = clean two-day alternation)", ent.ParityRhythmScore)
	return r
}

// Figure11 reproduces the entity's victim series.
func (s *Suite) Figure11() *Report {
	r := &Report{ID: "figure11", Title: "unique entity victims per day (IP/prefix/ASN)"}
	ent := s.Entity()
	r.addf("paper: stable until the transition to the last main-window name, then ~10x jump")
	var ips []float64
	var pre, post []int
	boost := s.Study.Campaign.Entity.BoostStart
	for _, vd := range ent.VictimSeries {
		if !simclock.MainPeriod().Contains(vd.Day) {
			continue
		}
		ips = append(ips, float64(vd.IPs))
		if vd.Day.Before(boost) {
			pre = append(pre, vd.IPs)
		} else {
			post = append(post, vd.IPs)
		}
	}
	r.addf("victims/day series: %s", sparkline(decimate(ips, 60)))
	if len(pre) > 0 && len(post) > 0 {
		r.addf("mean victims/day before: %.0f, after: %.0f (ratio %.1fx, paper ~10x)",
			stats.Mean(pre), stats.Mean(post), stats.Mean(post)/stats.Mean(pre))
	}
	return r
}

// Figure12 reproduces the known/new amplifier series.
func (s *Suite) Figure12() *Report {
	r := &Report{ID: "figure12", Title: "known vs new amplifiers per day (entity)"}
	ent := s.Entity()
	r.addf("paper: stable totals; bursts of new amplifiers follow name transitions; new ones almost daily")
	daysWithNew := 0
	var newCounts, knownCounts []float64
	for _, ad := range ent.AmplifierSeries {
		if !simclock.MainPeriod().Contains(ad.Day) {
			continue
		}
		if ad.New > 0 {
			daysWithNew++
		}
		newCounts = append(newCounts, float64(ad.New))
		knownCounts = append(knownCounts, float64(ad.Known))
	}
	r.addf("days with new amplifiers: %d/%d", daysWithNew, len(newCounts))
	r.addf("known/day: %s", sparkline(decimate(knownCounts, 60)))
	r.addf("new/day:   %s", sparkline(decimate(newCounts, 60)))
	return r
}

// Figure13 reproduces the amplifier-involvement CDFs.
func (s *Suite) Figure13() *Report {
	r := &Report{ID: "figure13", Title: "amplifiers per attack; attacks per amplifier (CDFs)"}
	eco := s.ampEco()
	r.addf("paper: 80%% of attacks use 10-100 amplifiers; 50%% of amplifiers in >1 attack, 23%% in >10")
	a := eco.AmpsPerAttack
	in10to100 := a.P(100) - a.P(9.999)
	r.addf("attacks using 10-100 amplifiers: %.0f%% (q50=%.0f, max=%.0f)", 100*in10to100, a.Quantile(0.5), a.Max())
	r.addf("amplifiers in >1 attack: %.0f%% (paper 50%%); >10 attacks: %.0f%% (paper 23%%)",
		100*eco.MultiAttackShare, 100*eco.TenPlusShare)
	return r
}

// Figure14 reproduces the bilateral clustering of amplifier sets.
func (s *Suite) Figure14() *Report {
	r := &Report{ID: "figure14", Title: "t-SNE + DBSCAN over attack amplifier sets"}
	cl := s.clusters()
	r.addf("paper: 67 clusters, ~92%% outliers, ~2%% of events on fixed lists")
	r.addf("clusters: %d, noise share: %.1f%%, fixed-list share: %.1f%%",
		cl.Clusters, 100*cl.NoiseShare, 100*cl.FixedListShare)
	r.addf("most static cluster: %d attacks over %d days, mean intra-distance %.3f (paper α: 177/40d, unchanged)",
		cl.MostStatic.Attacks, cl.MostStatic.SpanDays, cl.MostStatic.MeanIntraDistance)
	r.addf("largest-list cluster: mean %.0f amplifiers/attack, intra-distance %.3f (paper β: ~527, small drift)",
		cl.Largest.MeanAmplifiers, cl.Largest.MeanIntraDistance)
	if len(cl.Embedding) > 0 {
		clustered := 0
		var cIdx, nIdx []int
		for i, l := range cl.EmbeddingLabels {
			if l >= 0 {
				clustered++
				cIdx = append(cIdx, i)
			} else {
				nIdx = append(nIdx, i)
			}
		}
		r.addf("embedded %d points (%d in clusters); cluster spread %.2f vs noise spread %.2f",
			len(cl.Embedding), clustered, meanClusterSpread(cl), cluster.Spread(cl.Embedding, nIdx))
	}
	return r
}

// Figure15 reproduces the scan-history first/last-seen distribution.
func (s *Suite) Figure15() *Report {
	r := &Report{ID: "figure15", Title: "scanner first/last sighting of abused amplifiers"}
	eco := s.ampEco()
	r.addf("paper: most amplifiers first seen within 6 months before the attacks; 95%% known; ~2%% abused pre-discovery")
	r.addf("known to scanner: %.1f%%; abused before discovery: %d (%.1f%% of abused)",
		100*eco.ShodanKnownShare, eco.AbusedBeforeDiscovery,
		100*float64(eco.AbusedBeforeDiscovery)/float64(max(1, eco.TotalAmplifiers)))
	r.addf("first-seen by half-year (2016H1..): %s", histString(eco.FirstSeenHist))
	r.addf("last-seen  by half-year (2016H1..): %s", histString(eco.LastSeenHist))
	return r
}

// Figure16 reproduces the amplification-potential CDF.
func (s *Suite) Figure16() *Report {
	r := &Report{ID: "figure16", Title: "estimated ANY sizes across the namespace"}
	pot := s.potential()
	r.addf("paper: 440M names; 9048 above the best misused name (0.002%%); 92k > 4096 B (0.02%%); max 142,855 B; 14x headroom")
	r.addf("measured: %d names; %d above misused max (%.4f%%); %d > 4096 B (%.3f%%)",
		pot.NamesMeasured, pot.AbovePotential,
		100*float64(pot.AbovePotential)/float64(pot.NamesMeasured),
		pot.AboveEDNS, 100*float64(pot.AboveEDNS)/float64(pot.NamesMeasured))
	r.addf("max estimated %d B vs largest observed %d B: headroom %.1fx",
		pot.MaxEstimated, pot.LargestObserved, pot.Headroom)
	shares := analysis.ComputeTrafficShares(s.Study.AggMain, s.Study.Detections)
	r.addf("attack shares: %.1f%% of DNS packets (paper 5%%), %.1f%% of bytes (paper 40%%)",
		100*shares.AttackPacketShare, 100*shares.AttackByteShare)
	r.addf("ANY attack shares: %.0f%% of ANY packets (paper 68%%), %.0f%% of ANY bytes (paper 78%%)",
		100*shares.ANYAttackPacketShare, 100*shares.ANYAttackByteShare)
	return r
}

// Figure17 reproduces the cache-snooping popularity check.
func (s *Suite) Figure17() *Report {
	r := &Report{ID: "figure17", Title: "cache hits for misused vs popular names"}
	st := analysis.RunSnoopStudy(analysis.DefaultSnoopConfig(), s.Study.Campaign.DB,
		s.Study.NameList.Sorted(), simclock.MeasurementEnd)
	r.addf("paper: misused names cached like top-Alexa names despite low rank; anchors mostly miss")
	r.addf("phase 1: %d resolvers kept, %d forwarders excluded", st.ResolversFound, st.ForwardersExcluded)
	for _, res := range st.Results {
		tag := ""
		if res.Misused {
			tag = " *misused"
		}
		if res.Anchor {
			tag = " (anchor)"
		}
		rank := "-"
		if res.AlexaRank > 0 {
			rank = fmt.Sprintf("%d", res.AlexaRank)
		}
		r.addf("%-26s rank=%-8s responses=%5d hits=%4.0f%%%s",
			res.Name, rank, res.Responses, 100*res.HitRate(), tag)
	}
	return r
}

// Figure18 reproduces the honeypot convergence curve.
func (s *Suite) Figure18() *Report {
	r := &Report{ID: "figure18", Title: "honeypot sensor convergence"}
	curve := honeypot.Convergence(s.Study.HoneypotAttacks, ecosystem.NumSensors)
	r.addf("paper: 99.5%% of victims visible with 5 sensors; 50 sensors for 99.9%%")
	for _, k := range []int{1, 2, 5, 10, 20, 50} {
		if k <= len(curve) {
			r.addf("%2d sensors: %.2f%% of victims", k, 100*curve[k-1])
		}
	}
	r.addf("curve: %s", sparkline(curve))
	return r
}

// --- shared lazy analyses ---------------------------------------------------

func (s *Suite) ampEco() *analysis.AmplifierEcosystem {
	s.ampOnce.Do(func() {
		s.amp = analysis.AnalyzeAmplifiers(s.MainRecords, s.Feed, s.Scans)
	})
	return s.amp
}

func (s *Suite) clusters() *analysis.ClusteringResult {
	s.clusterOnce.Do(func() {
		s.cluster = analysis.ClusterAmplifierSets(s.MainRecords, 0.35, 4, 600)
	})
	return s.cluster
}

func (s *Suite) potential() *analysis.PotentialResult {
	s.potentialOnce.Do(func() {
		s.pot = analysis.AnalyzePotential(s.Feed, s.Study.NameList.Sorted(), s.MainRecords,
			simclock.MeasurementStart.Add(simclock.Days(45)), 200)
	})
	return s.pot
}

func (s *Suite) collectVisibleNS() []int {
	// VisibleNS is collected during pass 2 by the Collector; the
	// pipeline does not expose the collector, so recompute from record
	// sizes is not possible — instead the pipeline stores it.
	return s.Study.VisibleNS
}

// --- small helpers ----------------------------------------------------------

func firstDay(days map[int]int) int {
	first := 1 << 60
	for d := range days {
		if d < first {
			first = d
		}
	}
	return first
}

func decimate(vals []float64, n int) []float64 {
	if len(vals) <= n {
		return vals
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, vals[i*len(vals)/n])
	}
	return out
}

// modality estimates the number of modes of a size sample via histogram
// peaks (512-byte bins).
func modality(sizes []int) int {
	h := stats.NewHistogram(0, 512)
	for _, s := range sizes {
		h.Observe(float64(s))
	}
	modes := 0
	thresh := h.N / 20
	for i, c := range h.Bins {
		if c <= thresh {
			continue
		}
		left := 0
		if i > 0 {
			left = h.Bins[i-1]
		}
		right := 0
		if i+1 < len(h.Bins) {
			right = h.Bins[i+1]
		}
		if c >= left && c > right || c > left && c >= right {
			modes++
		}
	}
	return modes
}

func histString(h map[int]int) string {
	var keys []int
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var vals []float64
	for _, k := range keys {
		vals = append(vals, float64(h[k]))
	}
	return sparkline(vals)
}

func meanClusterSpread(cl *analysis.ClusteringResult) float64 {
	byCluster := make(map[int][]int)
	for i, l := range cl.EmbeddingLabels {
		if l >= 0 {
			byCluster[l] = append(byCluster[l], i)
		}
	}
	var sum float64
	n := 0
	for _, idx := range byCluster {
		if len(idx) < 2 {
			continue
		}
		sum += cluster.Spread(cl.Embedding, idx)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
