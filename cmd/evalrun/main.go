// Command evalrun runs the adversarial scenario catalog through the
// detection pipeline and reports per-scenario precision/recall/F1/
// time-to-detect across a Thresholds grid.
//
// Each scenario overlays a parameterized attack (or benign confounder)
// on the synthetic IXP background, aggregates once through the staged
// pipeline, and re-Detects per grid point — so a full sweep costs one
// aggregation per scenario regardless of grid size.
//
// Usage:
//
//	evalrun [-days 8] [-scale 0.05] [-procedural-names 50000]
//	        [-campaign-seed 1] [-traffic-seed 11] [-seed 42]
//	        [-scenario pulse-wave,slow-drip] [-list]
//	        [-shares 0.5,0.9] [-minpkts 5,10,20]
//	        [-out -] [-json FILE] [-sflow-dir DIR] [-pcap-dir DIR]
//	        [-concurrency N]
//
// -sflow-dir / -pcap-dir additionally export every selected scenario's
// full wire stream (background + overlay) as <scenario>.sflowlog /
// <scenario>.pcap — captures that re-ingest (dnsampdetect -replay-sflow,
// ixpmon -sflow) to identical detection scores.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/eval"
	"dnsamp/internal/scenario"
)

func main() {
	days := flag.Int("days", 8, "scenario window length in days, at least 1")
	scale := flag.Float64("scale", 0.05, "background campaign scale, in (0, 1]")
	procNames := flag.Int("procedural-names", 50_000, "procedural namespace size")
	campaignSeed := flag.Int64("campaign-seed", 1, "background campaign seed")
	trafficSeed := flag.Int64("traffic-seed", 11, "background traffic seed")
	seed := flag.Int64("seed", 42, "scenario seed")
	scenarios := flag.String("scenario", "", "comma-separated scenario names (empty = full catalog)")
	list := flag.Bool("list", false, "list catalog scenarios and exit")
	shares := flag.String("shares", "0.5,0.9", "comma-separated MinShare grid values")
	minpkts := flag.String("minpkts", "5,10,20", "comma-separated MinPackets grid values")
	out := flag.String("out", "-", "text table output (- = stdout)")
	jsonOut := flag.String("json", "", "also write the full result as JSON to this file (- = stdout)")
	sflowDir := flag.String("sflow-dir", "", "export each scenario's wire stream as an sFlow log into this directory")
	pcapDir := flag.String("pcap-dir", "", "export each scenario's wire stream as a pcap into this directory")
	conc := flag.Int("concurrency", 0, "pipeline worker width (0 = all cores)")
	flag.Parse()

	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}

	if *list {
		for _, sc := range scenario.Catalog() {
			fmt.Printf("%-18s %-7s %s\n", sc.Name, sc.Kind, sc.Description)
		}
		return
	}
	if err := checkWindow(*days, *scale); err != nil {
		usage(err)
	}

	grid, err := parseGrid(*shares, *minpkts)
	if err != nil {
		usage(err)
	}
	var names []string
	if *scenarios != "" {
		for _, n := range strings.Split(*scenarios, ",") {
			if n = strings.TrimSpace(n); n != "" {
				// Fail on unknown names before the expensive env build.
				if _, err := scenario.ByName(n); err != nil {
					usage(err)
				}
				names = append(names, n)
			}
		}
	}
	for _, dir := range []string{*sflowDir, *pcapDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}

	p := scenario.Params{
		Days:            *days,
		Scale:           *scale,
		ProceduralNames: *procNames,
		CampaignSeed:    *campaignSeed,
		TrafficSeed:     *trafficSeed,
	}
	env := scenario.NewEnv(p)
	opt := eval.Options{Grid: grid, Concurrency: *conc}
	res := &eval.Result{Params: env.P, Seed: *seed, Grid: grid}

	cat := scenario.Catalog()
	if len(names) > 0 {
		cat = cat[:0:0]
		for _, n := range names {
			sc, _ := scenario.ByName(n)
			cat = append(cat, sc)
		}
	}
	for _, sc := range cat {
		bt := env.Build(sc, *seed)
		res.Scores = append(res.Scores, eval.EvalBuilt(bt, opt)...)
		if *sflowDir != "" || *pcapDir != "" {
			sp, pp := "", ""
			if *sflowDir != "" {
				sp = filepath.Join(*sflowDir, sc.Name+".sflowlog")
			}
			if *pcapDir != "" {
				pp = filepath.Join(*pcapDir, sc.Name+".pcap")
			}
			n, err := bt.ExportWire(sp, pp)
			if err != nil {
				fatal(fmt.Errorf("export %s: %w", sc.Name, err))
			}
			fmt.Fprintf(os.Stderr, "exported %s: %d sampled frames\n", sc.Name, n)
		}
	}

	if err := writeOut(*out, func(w *bufio.Writer) error {
		return eval.WriteTable(w, res)
	}); err != nil {
		fatal(err)
	}
	if *jsonOut != "" {
		if err := writeOut(*jsonOut, func(w *bufio.Writer) error {
			return eval.WriteJSON(w, res)
		}); err != nil {
			fatal(err)
		}
	}
}

// parseGrid parses the comma-separated share and packet lists.
func parseGrid(shares, minpkts string) (eval.Grid, error) {
	var g eval.Grid
	for _, f := range strings.Split(shares, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 || v > 1 {
			return g, fmt.Errorf("evalrun: bad -shares value %q (want 0 < share <= 1)", f)
		}
		g.Shares = append(g.Shares, v)
	}
	for _, f := range strings.Split(minpkts, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return g, fmt.Errorf("evalrun: bad -minpkts value %q (want >= 1)", f)
		}
		g.MinPackets = append(g.MinPackets, v)
	}
	if len(g.Shares) == 0 || len(g.MinPackets) == 0 {
		return g, fmt.Errorf("evalrun: empty thresholds grid (-shares %q -minpkts %q)", shares, minpkts)
	}
	return g, nil
}

// writeOut opens path (or stdout for "-"), runs fn over a buffered
// writer, and flushes.
func writeOut(path string, fn func(*bufio.Writer) error) error {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		defer f.Close()
	}
	w := bufio.NewWriter(f)
	if err := fn(w); err != nil {
		return err
	}
	return w.Flush()
}

// checkWindow refuses a scenario window that plans no campaign: fewer
// than one day, or a -scale outside (0, 1].
func checkWindow(days int, scale float64) error {
	if days < 1 {
		return fmt.Errorf("-days %d: want at least 1", days)
	}
	if err := ecosystem.CheckScale(scale); err != nil {
		return fmt.Errorf("-scale %w", err)
	}
	return nil
}

// usage refuses a malformed command line with exit status 2, as the
// flag package refuses an unknown flag.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "evalrun:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evalrun:", err)
	os.Exit(1)
}
