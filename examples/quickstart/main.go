// Quickstart: plan a small synthetic campaign, run the §4 detection
// pipeline end to end, and print the headline numbers. This is the
// minimal end-to-end use of the public pipeline API.
package main

import (
	"fmt"

	"dnsamp/internal/analysis"
	"dnsamp/internal/core"
	"dnsamp/internal/pipeline"
)

func main() {
	// Scale 0.03 finishes in a few seconds. 0.2 approximates the paper
	// within a few minutes; 1.0 is full paper scale. The Runner keeps
	// its staged state around so we can re-run late stages below;
	// pipeline.Run(cfg) is the one-shot equivalent.
	cfg := pipeline.DefaultConfig(0.03)
	r := pipeline.NewRunner(cfg)
	st := r.Study()

	fmt.Println("== misused-name identification (§4.1) ==")
	fmt.Printf("selector consensus point: %d names per selector (paper: 29)\n", st.ConsensusN)
	fmt.Printf("final list: %d names, %.0f%% under .gov (paper: 34 names, 50%%)\n",
		len(st.NameList.Names), 100*st.NameList.GovShare())

	fmt.Println("\n== attack detection (§4.2) ==")
	fmt.Printf("attacks at the IXP: %d (victim, day) pairs\n", len(st.Detections))

	ov := analysis.Overlap(st.Detections, st.HoneypotAttacks)
	fmt.Println("\n== IXP vs honeypot (§5) ==")
	fmt.Printf("honeypot attacks: %d; mutual: %d (%.1f%% of IXP, paper: 4.2%%)\n",
		ov.HoneypotAttacks, ov.Mutual, 100*ov.MutualShareIXP)
	fmt.Printf("attacks invisible to the honeypot: %.0f%% (paper: 96%%)\n",
		100*float64(ov.NewAtIXP)/float64(ov.IXPAttacks))

	ent := analysis.AnalyzeEntity(st.Records, len(st.Detections))
	fmt.Println("\n== major attack entity (§6) ==")
	fmt.Printf("fingerprinted share of attacks: %.0f%% (paper: 59%%)\n", 100*ent.ShareOfAttacks)
	fmt.Printf("events with single-parity TXIDs: %.0f%% (paper: 91%%)\n", 100*ent.PureParityShare)
	fmt.Printf("detected relocations: %d (paper: 2)\n", len(ent.Relocations))

	// Staged API: re-run detection under stricter thresholds without
	// re-aggregating (the expensive pass-1 traffic replay is reused).
	base := len(st.Detections)
	r.Cfg.Thresholds = core.Thresholds{MinShare: 0.99, MinPackets: 50}
	r.Detect()
	fmt.Println("\n== threshold sensitivity (staged re-Detect) ==")
	fmt.Printf("attacks at share>=0.99, packets>=50: %d (vs %d at the defaults)\n",
		len(st.Detections), base)
}
