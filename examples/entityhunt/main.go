// Entityhunt walks through the §6 fingerprinting workflow: detect
// attacks, profile their DNS transaction IDs, link the .gov rotation to
// one entity, and recover its relocations — all from observable wire
// data, then scored against the generator's ground truth.
package main

import (
	"fmt"
	"slices"

	"dnsamp/internal/analysis"
	"dnsamp/internal/pipeline"
	"dnsamp/internal/simclock"
)

func main() {
	cfg := pipeline.DefaultConfig(0.04)
	st := pipeline.Run(cfg)

	ent := analysis.AnalyzeEntity(st.Records, len(st.Detections))

	fmt.Printf("attack records analyzed: %d; attributed to one entity: %d (%.0f%% of main-window attacks)\n",
		len(st.Records), len(ent.Records), 100*ent.ShareOfAttacks)

	fmt.Println("\n-- TXID structure (Fig. 10) --")
	fmt.Printf("single-parity events: %.0f%% (paper: 91%%)\n", 100*ent.PureParityShare)
	fmt.Printf("48-hour odd/even rhythm score: %.2f, phase %d\n", ent.ParityRhythmScore, ent.RhythmPhase)

	fmt.Println("\n-- name rotation (Fig. 8a) --")
	type span struct {
		name        string
		first, last int
	}
	var spans []span
	for name, days := range ent.NameSeries {
		s := span{name: name, first: 1 << 60}
		for d := range days {
			if d < s.first {
				s.first = d
			}
			if d > s.last {
				s.last = d
			}
		}
		spans = append(spans, s)
	}
	slices.SortFunc(spans, func(a, b span) int { return int(a.first - b.first) })
	for _, s := range spans {
		fmt.Printf("  %-26s %s .. %s\n", s.name,
			(simclock.Time(s.first) * simclock.Time(simclock.Day)).Date(),
			(simclock.Time(s.last) * simclock.Time(simclock.Day)).Date())
	}

	fmt.Println("\n-- relocations (network-layer observables) --")
	for i, r := range ent.Relocations {
		fmt.Printf("  relocation %d detected %s: ingress AS%d -> AS%d\n", i+1, r.Day.Date(), r.FromAS, r.ToAS)
	}
	truth := st.Campaign.Entity
	fmt.Printf("  ground truth:          %s -> AS%d, %s -> AS%d\n",
		truth.Reloc1.Date(), truth.Ingress1, truth.Reloc2.Date(), truth.Ingress2)

	fmt.Println("\n-- request/response mix per phase --")
	var phases []int
	for p := range ent.RequestShareByPhase {
		phases = append(phases, p)
	}
	slices.Sort(phases)
	for _, p := range phases {
		fmt.Printf("  phase %d: %.0f%% requests (paper: ~0%% before, ~85%% after relocation 1)\n",
			p, 100*ent.RequestShareByPhase[p])
	}
}
