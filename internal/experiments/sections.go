package experiments

import (
	"slices"

	"dnsamp/internal/analysis"
)

// Section5 reproduces the §5 headline: IXP and honeypot observe mostly
// disjoint attack sets.
func (s *Suite) Section5() *Report {
	r := &Report{ID: "section5", Title: "IXP vs honeypot attack overlap"}
	ov := analysis.Overlap(s.Study.Detections, s.Study.HoneypotAttacks)
	r.addf("paper: 25.7k IXP attacks, 31k honeypot attacks, 1.1k mutual (4.2%% / 3.5%%); 24.6k new at IXP; 96%% invisible to honeypot")
	r.addf("measured (scale %.2f): IXP %d, honeypot %d, mutual %d (%.1f%% of IXP, %.1f%% of honeypot)",
		s.Scale, ov.IXPAttacks, ov.HoneypotAttacks, ov.Mutual,
		100*ov.MutualShareIXP, 100*ov.MutualShareHoneypot)
	r.addf("new at IXP: %d; unique IXP victims: %d (paper: 19k at scale 1)", ov.NewAtIXP, ov.UniqueVictims)
	r.addf("IXP attacks invisible to honeypot: %.1f%% (paper: 96%%)", 100*float64(ov.NewAtIXP)/float64(max(1, ov.IXPAttacks)))
	r.addf("ground truth found at IXP for %.0f%% of honeypot attacks (paper: 16%%)",
		100*float64(len(s.Study.VisibleGroundTruth))/float64(max(1, len(s.Study.HoneypotAttacks))))
	return r
}

// Section6 reproduces the §6 headlines: the major entity's share,
// fingerprint structure, and relocations.
func (s *Suite) Section6() *Report {
	r := &Report{ID: "section6", Title: "tracing the major attack entity"}
	ent := s.Entity()
	r.addf("paper: entity behind 59%% of IXP attacks; 91%% pure odd/even TXIDs; two relocations; requests reach ~85%% after relocation 1")
	r.addf("fingerprinted share of main-window attacks: %.0f%% (ground-truth entity share: %.0f%%)",
		100*ent.ShareOfAttacks, 100*s.groundTruthEntityShare())
	r.addf("pure-parity TXID events: %.0f%%; 48h rhythm score %.2f", 100*ent.PureParityShare, ent.ParityRhythmScore)
	r.addf("detected relocations: %d (paper: 2)", len(ent.Relocations))
	for i, rl := range ent.Relocations {
		r.addf("  relocation %d at %s: ingress AS %d -> %d", i+1, rl.Day.Date(), rl.FromAS, rl.ToAS)
	}
	truth := s.Study.Campaign.Entity
	r.addf("ground truth: reloc1 %s (ingress AS%d), reloc2 %s (ingress AS%d)",
		truth.Reloc1.Date(), truth.Ingress1, truth.Reloc2.Date(), truth.Ingress2)
	var phases []int
	for p := range ent.RequestShareByPhase {
		phases = append(phases, p)
	}
	slices.Sort(phases)
	for _, p := range phases {
		r.addf("request share in phase %d: %.0f%%", p, 100*ent.RequestShareByPhase[p])
	}
	return r
}

// Section7 reproduces the §7 headlines: amplifier ecosystem efficiency.
func (s *Suite) Section7() *Report {
	r := &Report{ID: "section7", Title: "DNS attack practice"}
	eco := s.ampEco()
	cl := s.clusters()
	pot := s.potential()
	r.addf("paper: 45k abused amplifiers; 908 authoritative (2%%); 95%% Shodan-known; 2%% abused pre-discovery; 2%% fixed lists; 45%% day-overlap; 20%% first/last; 14x headroom")
	r.addf("abused amplifiers: %d; authoritative: %d (%.1f%%)",
		eco.TotalAmplifiers, eco.AuthoritativeCount,
		100*float64(eco.AuthoritativeCount)/float64(max(1, eco.TotalAmplifiers)))
	ratio := 0.0
	if eco.NonRootAuthShare > 0 {
		ratio = eco.RootAuthShare / eco.NonRootAuthShare
	}
	r.addf("authoritative share in root-query attacks: %.1f%% vs %.1f%% otherwise (%.1fx, paper 4x)",
		100*eco.RootAuthShare, 100*eco.NonRootAuthShare, ratio)
	r.addf("scanner-known: %.1f%%; abused before discovery: %d", 100*eco.ShodanKnownShare, eco.AbusedBeforeDiscovery)
	r.addf("fixed-list events: %.1f%%; clusters: %d; noise: %.0f%%", 100*cl.FixedListShare, cl.Clusters, 100*cl.NoiseShare)
	r.addf("day-over-day amplifier overlap: %.0f%% (paper 45%%); first/last-day overlap: %.0f%% (paper 20%%)",
		100*eco.DayOverlapMean, 100*eco.FirstLastOverlap)
	r.addf("amplification headroom: %.1fx (paper 14x)", pot.Headroom)
	return r
}
