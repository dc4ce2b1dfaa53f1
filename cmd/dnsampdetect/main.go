// Command dnsampdetect runs the complete offline detection pipeline of
// §4: selector-based misused-name discovery, threshold detection, and
// a per-day attack summary. Traffic comes from the synthetic campaign
// by default, or from a real capture: an sFlow v5 datagram log
// (-replay-sflow), a classic pcap file (-replay-pcap), or a persisted
// batch snapshot (-snapshot-in). -snapshot-out records whichever
// source the run streams into a snapshot file that a later process can
// serve with -snapshot-in; detection over the snapshot is byte-
// identical to detection over the live source.
//
// Usage:
//
//	dnsampdetect [-scale 0.05] [-seed 1] [-concurrency 0]
//	             [-replay-sflow FILE | -replay-pcap FILE | -snapshot-in FILE]
//	             [-snapshot-out FILE] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/pipeline"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
)

// loadSource builds the replay source selected by the ingestion flags,
// nil when the run is synthetic.
func loadSource(sflowPath, pcapPath, snapPath string) (source.Source, error) {
	set := 0
	for _, p := range []string{sflowPath, pcapPath, snapPath} {
		if p != "" {
			set++
		}
	}
	if set == 0 {
		return nil, nil
	}
	if set > 1 {
		return nil, fmt.Errorf("-replay-sflow, -replay-pcap and -snapshot-in are mutually exclusive")
	}
	path, ingest := sflowPath, (*source.Replay).IngestSFlowLog
	switch {
	case snapPath != "":
		f, err := os.Open(snapPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return source.OpenSnapshot(f)
	case pcapPath != "":
		path, ingest = pcapPath, (*source.Replay).IngestPCAP
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep := source.NewReplay(nil)
	n, err := ingest(rep, f)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "ingested %d frames from %s (%d days; malformed datagrams skipped: %d)\n",
		n, path, len(rep.Days()), rep.Skipped())
	return rep, nil
}

// checkFlags refuses flag values that name no run before anything is
// planned: a -scale outside (0, 1].
func checkFlags(scale float64) error {
	if err := ecosystem.CheckScale(scale); err != nil {
		return fmt.Errorf("-scale %w", err)
	}
	return nil
}

func main() {
	scale := flag.Float64("scale", 0.05, "campaign scale, in (0, 1]")
	seed := flag.Int64("seed", 1, "campaign seed")
	verbose := flag.Bool("v", false, "print every detection")
	concurrency := flag.Int("concurrency", 0, "pipeline worker count (0 = all cores, 1 = serial; results are identical)")
	replaySFlow := flag.String("replay-sflow", "", "replay an sFlow v5 datagram log instead of synthesizing traffic")
	replayPCAP := flag.String("replay-pcap", "", "replay a classic pcap capture instead of synthesizing traffic")
	snapIn := flag.String("snapshot-in", "", "stream traffic from a persisted batch snapshot")
	snapOut := flag.String("snapshot-out", "", "record the traffic stream to a batch snapshot file before detecting")
	flag.Parse()
	if err := checkFlags(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "dnsampdetect:", err)
		os.Exit(2)
	}

	start := time.Now()
	cfg := pipeline.DefaultConfig(*scale)
	cfg.Campaign.Seed = *seed
	cfg.ExtendedWindow = false // detection only needs the main window
	cfg.Concurrency = *concurrency

	// Drive the staged Runner explicitly to report per-stage timings;
	// the result is byte-identical to pipeline.Run(cfg).
	var r *pipeline.Runner
	src, err := loadSource(*replaySFlow, *replayPCAP, *snapIn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsampdetect:", err)
		os.Exit(1)
	}
	if src != nil {
		// The campaign still supplies ground truth, topology, and the
		// tracked zones; only the traffic stream is replaced.
		r = pipeline.NewRunnerWithSource(cfg, ecosystem.NewCampaign(cfg.Campaign), src)
	} else {
		r = pipeline.NewRunner(cfg)
	}
	if *snapOut != "" {
		t0 := time.Now()
		r.Plan()
		rec := source.Record(r.Src)
		f, err := os.Create(*snapOut)
		if err == nil {
			err = rec.WriteSnapshot(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnsampdetect: writing snapshot:", err)
			os.Exit(1)
		}
		// The study streams the freshly recorded days instead of
		// regenerating them (identical results, guaranteed by
		// TestSnapshotStudyMatchesLive).
		r.Src = rec
		fmt.Fprintf(os.Stderr, "%-9s %s (%d days -> %s)\n", "snapshot", time.Since(t0).Round(time.Millisecond), len(rec.Days()), *snapOut)
	}
	for _, stage := range []struct {
		name string
		run  func() *pipeline.Runner
	}{
		{"plan", r.Plan}, {"aggregate", r.Aggregate}, {"select", r.Select},
		{"detect", r.Detect}, {"collect", r.Collect},
	} {
		t0 := time.Now()
		stage.run()
		fmt.Fprintf(os.Stderr, "%-9s %s\n", stage.name, time.Since(t0).Round(time.Millisecond))
	}
	st := r.Study()

	fmt.Printf("sanitized DNS samples: %d (%d dropped as malformed)\n",
		st.CaptureStats.Accepted, st.CaptureStats.Malformed)
	fmt.Printf("selector consensus: N=%d; final misused-name list: %d names\n",
		st.ConsensusN, len(st.NameList.Names))
	for _, n := range st.NameList.Sorted() {
		tag := ""
		if dnswire.TLD(n) == "gov" {
			tag = "  [.gov]"
		}
		fmt.Printf("  %s%s\n", n, tag)
	}

	fmt.Printf("\ndetected attacks: %d ((victim IP, day) pairs)\n", len(st.Detections))
	byDay := map[int]int{}
	for _, d := range st.Detections {
		byDay[d.Day]++
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	slices.Sort(days)
	fmt.Println("\nday          attacks")
	for _, d := range days {
		fmt.Printf("%s %8d\n", (simclock.Time(d) * simclock.Time(simclock.Day)).Date(), byDay[d])
	}

	if *verbose {
		fmt.Println("\nvictim            day         packets  share")
		for _, d := range st.Detections {
			fmt.Printf("%-16v %s %8d  %.2f\n",
				fmt.Sprintf("%d.%d.%d.%d", d.Victim[0], d.Victim[1], d.Victim[2], d.Victim[3]),
				(simclock.Time(d.Day) * simclock.Time(simclock.Day)).Date(), d.Packets, d.Share)
		}
	}
	fmt.Fprintf(os.Stderr, "\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
}
