// Command ixpmon is the live-monitoring side of §4.3: sampled IXP
// traffic streams through a detector that keeps the open day's
// client-day profiles and cumulative per-name statistics, refreshes the
// misused-name list periodically (at most 5 minutes of delay in the
// paper), detects over each day as it closes, and reports daily victim
// aggregates and name-list churn. It is one service run two ways, plus
// a sender:
//
// Service mode (-serve): an always-on daemon ingesting sFlow v5
// datagrams from its configured inputs, aggregating them in the live
// window, and serving /detections, /stages, /sources, /metrics,
// /window, and /healthz over HTTP. Inputs are source specs — UDP
// listeners, log tails, replay files, pcap, synthetic fill — given by
// repeatable -input flags or an -inputs spec file; -listen ADDR is
// shorthand for -input udp://ADDR (and the default when nothing else
// is configured), -tail PATH for -input tail:PATH. Every input runs
// under its own supervisor with restart/backoff and fault isolation,
// merged by the -policy scheduler (round-robin or arrival-time
// merge-replay). With -state it checkpoints
// its running state periodically and at shutdown, and -resume
// continues from the newest valid checkpoint after a crash or restart
// without double-counting a sample — per-input cursors included.
// SIGINT/SIGTERM shuts it down gracefully (the backlog is drained,
// the day in progress finalized, the summary printed). See
// docs/OPERATIONS.md for the full surface and the failure-handling
// semantics.
//
// One-shot (no -serve): the same service on exactly one input, which
// returns by itself when the stream ends and prints the same summary.
// The input is synthetic:scale=S,days=D from -scale/-days by default,
// replay:FILE with -sflow FILE, and tail:FILE with -sflow FILE -follow
// (which, like any tail, ends only on SIGINT/SIGTERM). The window,
// state and HTTP flags apply as in service mode, except that the
// control surface binds an ephemeral port unless -http is given. A
// finite input that fails — a missing file, a log cut mid-entry — ends
// the stream at once and the exit status is 1.
//
// Sender mode (-send): replays a recorded datagram log over UDP to a
// service-mode instance, carrying each entry's capture time in the
// datagram Uptime field (pair with -serve -timestamps uptime).
//
// Usage:
//
//	ixpmon [-scale 0.05] [-days 14] | -sflow FILE [-follow]
//	       [-interval 5m] [-names 29] [-window 7] [-http ADDR] [-state DIR ...]
//	ixpmon -serve [-input SPEC]... [-inputs FILE] [-listen ADDR] [-tail FILE]
//	       [-policy round-robin|arrival] [-http ADDR] [-window 7]
//	       [-timestamps wall|uptime] [-state DIR [-resume] [-checkpoint-every 1m]]
//	ixpmon -send FILE -to ADDR [-burst 64] [-pause 2ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsamp/internal/ingest"
	"dnsamp/internal/server"
	"dnsamp/internal/simclock"
)

// printStages writes accumulated per-stage timings to stderr.
func printStages(stages []server.StageTiming) {
	for _, st := range stages {
		fmt.Fprintf(os.Stderr, "stage %-8s %8d calls  total %-14v mean %-12v max %v\n",
			st.Stage, st.Count, st.Total.Round(time.Microsecond),
			st.Mean().Round(time.Microsecond), st.Max.Round(time.Microsecond))
	}
}

// serveFlags are the flag values serveInputs maps to ingest sources.
type serveFlags struct {
	serve      bool
	inputsFile string        // -inputs FILE
	fromFile   []ingest.Spec // the specs FILE holds
	inputs     []ingest.Spec // -input, in command-line order
	listen     string        // -listen (its default when not explicit)
	tail       string        // -tail
	policy     string
	timestamps string

	// The one-shot input: -sflow [-follow], else -scale/-days.
	sflow  string
	follow bool
	scale  float64
	days   int
}

// serveInputs maps the ingest flags to the service's source list. With
// -serve: the -inputs file's specs, then every -input, then -listen as
// udp://ADDR (when given, or when nothing else configures a source —
// the default daemon is one UDP listener) and -tail as tail:PATH.
// Without: exactly one source, synthetic:scale=S,days=D by default,
// replay:FILE for -sflow FILE and tail:FILE for -sflow FILE -follow.
// explicit holds the names of the flags present on the command line.
// It rejects combinations that would silently do nothing or contradict
// each other: -follow with no log to follow, -sflow beside -serve or
// beside the synthetic input's -scale/-days, multi-source flags
// outside -serve, an -inputs file that configures nothing, a
// scheduling policy with nothing to schedule, and uptime timestamps on
// durable inputs (their datagram logs carry capture time in the entry
// header; the Uptime field is zero there, so the combination would
// collapse every sample onto second 0).
func serveInputs(explicit map[string]bool, f serveFlags) ([]ingest.Spec, error) {
	switch {
	case f.follow && f.sflow == "":
		return nil, fmt.Errorf("-follow needs -sflow: there is no log to follow")
	case f.sflow != "" && f.serve:
		return nil, fmt.Errorf("-sflow has no effect with -serve: use -input replay:%s or -tail %[1]s", f.sflow)
	case f.sflow != "" && (explicit["scale"] || explicit["days"]):
		return nil, fmt.Errorf("-scale and -days have no effect with -sflow: they size the synthetic input")
	}
	if !f.serve {
		for _, name := range []string{"input", "inputs", "policy"} {
			if explicit[name] {
				return nil, fmt.Errorf("-%s has no effect without -serve", name)
			}
		}
	}
	specs := append(append([]ingest.Spec(nil), f.fromFile...), f.inputs...)
	if f.inputsFile != "" && len(specs) == 0 {
		return nil, fmt.Errorf("-inputs %s configures no sources: the file is empty", f.inputsFile)
	}
	switch f.policy {
	case "":
	case ingest.PolicyRoundRobin, ingest.PolicyArrival:
		if len(specs) == 0 {
			return nil, fmt.Errorf("-policy needs -input or -inputs: there is nothing to schedule")
		}
	default:
		return nil, fmt.Errorf("-policy %q: want %s or %s", f.policy, ingest.PolicyRoundRobin, ingest.PolicyArrival)
	}
	var short []string
	switch {
	case !f.serve && f.sflow == "":
		short = append(short, fmt.Sprintf("synthetic:scale=%g,days=%d", f.scale, f.days))
	case !f.serve && f.follow:
		short = append(short, "tail:"+f.sflow)
	case !f.serve:
		short = append(short, "replay:"+f.sflow)
	default:
		if explicit["listen"] || (len(specs) == 0 && f.tail == "") {
			short = append(short, "udp://"+f.listen)
		}
		if f.tail != "" {
			short = append(short, "tail:"+f.tail)
		}
	}
	for _, spec := range short {
		sp, err := ingest.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	switch f.timestamps {
	case "wall":
	case "uptime":
		for _, sp := range specs {
			if sp.Durable() {
				return nil, fmt.Errorf("-timestamps uptime contradicts durable input %s: file-backed sources carry capture time natively", sp.ID)
			}
		}
	default:
		return nil, fmt.Errorf("-timestamps must be wall or uptime")
	}
	return specs, nil
}

// runServe runs the service and writes its summary to out. With stay it
// runs until SIGINT/SIGTERM. Without, it also returns when the stream
// ends by itself (cfg has one input), and an input that ended by
// failing is the error; a finite input's first failure is final there,
// not backed off and retried, since nothing will repair the file
// meanwhile.
func runServe(cfg server.Config, stay bool, out io.Writer) error {
	if !stay && cfg.Inputs[0].Kind != ingest.KindTail {
		cfg.IngestTuning.MaxRestarts = 1
	}
	svc := server.NewService(cfg)
	if err := svc.Start(); err != nil {
		return err
	}
	if from := svc.ResumedFrom(); from != "" {
		fmt.Fprintf(os.Stderr, "ixpmon: resumed from %s\n", from)
	}
	pol := cfg.Policy
	if pol == "" {
		pol = ingest.PolicyRoundRobin
	}
	fmt.Fprintf(os.Stderr, "ixpmon: driving %d supervised sources (%s policy), control surface on http://%s (window %dd, refresh %v)\n",
		len(cfg.Inputs), pol, svc.HTTPAddr(), cfg.Window.Days, time.Duration(cfg.Window.Refresh)*time.Second)
	for _, in := range svc.InputsSnapshot() {
		if in.Addr != "" {
			fmt.Fprintf(os.Stderr, "ixpmon:   input %s (listening on udp %s)\n", in.ID, in.Addr)
		} else {
			fmt.Fprintf(os.Stderr, "ixpmon:   input %s\n", in.ID)
		}
	}
	if cfg.StateDir != "" {
		fmt.Fprintf(os.Stderr, "ixpmon: crash-safe state in %s (checkpoint every %v)\n", cfg.StateDir, cfg.CheckpointEvery)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	var ended <-chan struct{} // nil with stay: a daemon outlives its inputs
	if !stay {
		ended = svc.Done()
	}
	select {
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "ixpmon: %v: shutting down\n", sig)
	case <-ended:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	printSummary(out, svc)
	if !stay {
		for _, in := range svc.InputsSnapshot() {
			if in.State == ingest.StateQuarantined.String() {
				return fmt.Errorf("input %s failed: %s", in.ID, in.QuarantineReason)
			}
		}
	}
	return nil
}

// printSummary reports a stopped service: totals and stage timings on
// stderr; on out one row per closed day (the §4.3 daily victim
// aggregates and the name list's day-over-day similarity), then every
// retained detection. "shed" is every datagram dropped under load: a
// full queue or per-source share of it, the 1-in-2 thinning of overload
// tier 2 and the shed-everything of tier 3.
func printSummary(out io.Writer, svc *server.Service) {
	ws, a := svc.WindowSnapshot(), svc.Accounting()
	fmt.Fprintf(os.Stderr, "ixpmon: %d datagrams received, %d consumed, %d shed; %d days closed, %d client-days released\n",
		a.Received, a.Consumed, a.QueueDrops+a.SampledOut+a.ShedAll, ws.ClosedDays, ws.Evicted)
	printStages(svc.StagesSnapshot())

	fmt.Fprintln(out, "day          victims  /24s  /16s  /8s  names  Jaccard vs prev close")
	var sum float64
	n := 0
	for _, d := range svc.DaysSnapshot() {
		j := "   -" // the first close of a process has no predecessor
		if d.HasPrev {
			j = fmt.Sprintf("%.2f", d.Jaccard)
			sum += d.Jaccard
			n++
		}
		fmt.Fprintf(out, "%s %8d %5d %5d %4d %6d  %s\n",
			simclock.Time(simclock.Days(d.Day)).Date(), d.Victims, d.Prefixes24, d.Prefixes16, d.Prefixes8, d.ListNames, j)
	}
	if n > 0 {
		fmt.Fprintf(out, "mean day-over-day name-list Jaccard: %.2f (paper: 0.96)\n", sum/float64(n))
	}
	dets := svc.DetectionsSnapshot()
	fmt.Fprintf(out, "detections: %d\n", len(dets))
	for _, d := range dets {
		fmt.Fprintf(out, "  %s  %-15s %6d pkts  %5.1f%% misused\n", d.Date, d.Victim, d.Packets, 100*d.Share)
	}
}

// runSend replays a datagram log over UDP.
func runSend(path, to string, burst int, pause time.Duration) error {
	conn, err := net.Dial("udp", to)
	if err != nil {
		return err
	}
	defer conn.Close()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := server.SendLog(conn, f, burst, pause)
	fmt.Fprintf(os.Stderr, "ixpmon: sent %d datagrams from %s to %s\n", n, path, to)
	return err
}

func main() {
	scale := flag.Float64("scale", 0.05, "without -serve or -sflow: campaign scale of the synthetic input")
	days := flag.Int("days", 14, "without -serve or -sflow: days of synthetic traffic to monitor")
	interval := flag.Duration("interval", 5*time.Minute, "name-list refresh interval")
	listSize := flag.Int("names", 29, "per-selector name list size")
	sflowPath := flag.String("sflow", "", "without -serve: monitor an sFlow v5 datagram log (replay:FILE) instead of synthesizing traffic, and exit at its end")
	follow := flag.Bool("follow", false, "with -sflow: keep tailing the log for appended datagrams (tail:FILE) until interrupted")

	serve := flag.Bool("serve", false, "run as an always-on sFlow service: stay up until SIGINT/SIGTERM")
	listen := flag.String("listen", "127.0.0.1:6343", "with -serve: UDP listen address for sFlow datagrams, shorthand for -input udp://ADDR (the default source when no other is configured)")
	httpAddr := flag.String("http", "127.0.0.1:8080", "HTTP listen address for the control surface (without -serve, an ephemeral port unless given)")
	windowDays := flag.Int("window", 7, "lateness horizon in days: a sample this many days or more behind the open day is dropped and counted late; a younger straggler still feeds the name list")
	timestamps := flag.String("timestamps", "wall", "with -serve: datagram time source, wall|uptime (uptime = replayed capture time)")
	stateDir := flag.String("state", "", "directory for checkpoints and poison files (enables crash-safe state)")
	resume := flag.Bool("resume", false, "with -state: resume from the newest valid checkpoint and continue mid-stream")
	ckptEvery := flag.Duration("checkpoint-every", time.Minute, "with -state: periodic checkpoint cadence (<= 0 keeps only the shutdown checkpoint)")
	tailPath := flag.String("tail", "", "with -serve: tail an sFlow datagram log, shorthand for -input tail:PATH")
	var inputSpecs []ingest.Spec
	flag.Func("input", "with -serve: add a supervised ingest source (udp://ADDR, tail:PATH, replay:PATH, pcap:PATH, synthetic:[k=v,...]); repeatable", func(v string) error {
		sp, err := ingest.ParseSpec(v)
		if err != nil {
			return err
		}
		inputSpecs = append(inputSpecs, sp)
		return nil
	})
	inputsFile := flag.String("inputs", "", "with -serve: read supervised ingest sources from FILE, one spec per line (#-comments allowed); combines with -input")
	policy := flag.String("policy", "", "with -serve -input/-inputs: source scheduling policy: round-robin (default) or arrival (capture-time merge-replay)")

	sendPath := flag.String("send", "", "replay a datagram log over UDP to a -serve instance and exit")
	sendTo := flag.String("to", "127.0.0.1:6343", "with -send: destination address")
	burst := flag.Int("burst", 64, "with -send: datagrams per pacing burst (<= 0 sends flat out)")
	pause := flag.Duration("pause", 2*time.Millisecond, "with -send: pause between bursts")
	flag.Parse()

	var fromFile []ingest.Spec
	if *inputsFile != "" {
		var err error
		if fromFile, err = ingest.ParseSpecFile(*inputsFile); err != nil {
			fmt.Fprintln(os.Stderr, "ixpmon: -inputs:", err)
			os.Exit(2)
		}
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	inputs, err := serveInputs(explicit, serveFlags{
		serve: *serve, inputsFile: *inputsFile, fromFile: fromFile, inputs: inputSpecs,
		listen: *listen, tail: *tailPath, policy: *policy, timestamps: *timestamps,
		sflow: *sflowPath, follow: *follow, scale: *scale, days: *days,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ixpmon:", err)
		os.Exit(2)
	}

	if !*serve && *sendPath != "" {
		if err := runSend(*sendPath, *sendTo, *burst, *pause); err != nil {
			fmt.Fprintln(os.Stderr, "ixpmon:", err)
			os.Exit(1)
		}
		return
	}

	if *resume && *stateDir == "" {
		fmt.Fprintln(os.Stderr, "ixpmon: -resume needs -state")
		os.Exit(2)
	}
	ce := *ckptEvery
	if ce <= 0 {
		ce = -1 // disable the timer; the shutdown checkpoint remains
	}
	cfg := server.Config{
		HTTPAddr:       *httpAddr,
		TimeFromUptime: *timestamps == "uptime",
		Window: server.WindowConfig{
			Days:     *windowDays,
			ListSize: *listSize,
			Refresh:  simclock.Duration(interval.Seconds()),
		},
		StateDir:        *stateDir,
		Resume:          *resume,
		CheckpointEvery: ce,
		Inputs:          inputs,
		Policy:          *policy,
	}
	if !*serve && !explicit["http"] {
		cfg.HTTPAddr = "127.0.0.1:0" // two one-shot runs never fight over a port
	}
	if err := runServe(cfg, *serve, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ixpmon:", err)
		os.Exit(1)
	}
}
