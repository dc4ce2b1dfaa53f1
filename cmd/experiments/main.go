// Command experiments regenerates every table and figure of the paper's
// evaluation from a synthetic campaign and prints paper-vs-measured
// reports (the rows recorded in EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-scale 0.2] [-seed 1] [-run figure14] [-concurrency 0]
//
// Scale 0.2 takes a few minutes and ~2 GB; 0.05 finishes in well under a
// minute with slightly noisier shares.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/experiments"
	"dnsamp/internal/pipeline"
)

// checkFlags refuses flag values that name no run before anything is
// planned: a -scale outside (0, 1].
func checkFlags(scale float64) error {
	if err := ecosystem.CheckScale(scale); err != nil {
		return fmt.Errorf("-scale %w", err)
	}
	return nil
}

func main() {
	scale := flag.Float64("scale", 0.2, "campaign scale, in (0, 1] (1.0 = paper scale)")
	seed := flag.Int64("seed", 1, "campaign seed")
	run := flag.String("run", "", "only experiments whose id contains this substring (e.g. figure14, table2, section5)")
	concurrency := flag.Int("concurrency", 0, "pipeline worker count (0 = all cores, 1 = serial; results are identical)")
	flag.Parse()
	if err := checkFlags(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if len(experiments.Match(*run)) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q\n", *run)
		os.Exit(1)
	}

	start := time.Now()
	cfg := pipeline.DefaultConfig(*scale)
	cfg.Campaign.Seed = *seed
	cfg.Concurrency = *concurrency
	fmt.Fprintf(os.Stderr, "planning and materializing campaign at scale %.2f (seed %d)...\n", *scale, *seed)
	suite := experiments.NewSuiteWithConfig(cfg)
	fmt.Fprintf(os.Stderr, "pipeline complete in %s; running experiments\n\n", time.Since(start).Round(time.Second))

	for _, r := range suite.Run(*run) {
		fmt.Println(r)
	}
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Second))
}
