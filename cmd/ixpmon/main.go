// Command ixpmon is the live-monitoring side of §4.3. It runs in three
// modes:
//
// Batch monitor (default, and with -sflow): streams sampled IXP
// traffic through the online monitor, which refreshes the misused-name
// list periodically (at most 5 minutes of delay in the paper) and
// reports daily victim aggregates and name-list churn. Traffic comes
// from the synthetic campaign by default; with -sflow it is read from
// an sFlow v5 datagram log in arrival order the way a collector socket
// would deliver it. -follow keeps the monitor attached after the last
// complete entry, tailing the file for appended datagrams with a
// capped exponential backoff (a partially flushed write is picked up
// once complete, and a log truncated or rotated out from under the
// tail is reopened cleanly); interrupt it to get the summary,
// including time spent waiting in the per-stage timings.
//
// Service mode (-serve): an always-on daemon ingesting sFlow v5
// datagrams from its configured inputs, aggregating them in a sliding
// window, and serving /detections, /stages, /sources, /metrics,
// /window, and /healthz over HTTP. Inputs are source specs — UDP
// listeners, log tails, replay files, pcap, synthetic fill — given by
// repeatable -input flags or an -inputs spec file; -listen ADDR is
// shorthand for -input udp://ADDR (and the default when nothing else
// is configured), -tail PATH for -input tail:PATH. Every input runs
// under its own supervisor with restart/backoff and fault isolation,
// merged by the -policy scheduler (round-robin, backlog, or
// arrival-time merge-replay). With -state it checkpoints
// its running state periodically and at shutdown, and -resume
// continues from the newest valid checkpoint after a crash or restart
// without double-counting a sample — per-input cursors included.
// SIGINT/SIGTERM shuts it down gracefully (the backlog is drained,
// the day in progress finalized, detections reported). See
// docs/OPERATIONS.md for the full surface and the failure-handling
// semantics.
//
// Sender mode (-send): replays a recorded datagram log over UDP to a
// service-mode instance, carrying each entry's capture time in the
// datagram Uptime field (pair with -serve -timestamps uptime).
//
// Usage:
//
//	ixpmon [-scale 0.05] [-days 14] [-interval 5m] [-concurrency 0]
//	ixpmon -sflow FILE [-follow] [-interval 5m] [-names 29]
//	ixpmon -serve [-input SPEC]... [-inputs FILE] [-listen ADDR] [-tail FILE]
//	       [-policy round-robin|backlog|arrival] [-http ADDR] [-window 7]
//	       [-timestamps wall|uptime] [-state DIR [-resume] [-checkpoint-every 1m]]
//	ixpmon -send FILE -to ADDR [-burst 64] [-pause 2ms]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsamp/internal/core"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ingest"
	"dnsamp/internal/ixp"
	"dnsamp/internal/server"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
)

// Tail backoff bounds: reset to min whenever data arrives, double up
// to max while the log is idle — a tailer of a quiet log costs a
// couple of wakeups per second instead of a constant busy-poll.
const (
	tailWaitMin = 50 * time.Millisecond
	tailWaitMax = 5 * time.Second
)

// tailLog feeds a datagram log through the monitor in arrival order,
// through sflow.Tailer — so a log that is truncated or rotated out
// from under the tail is reopened cleanly instead of wedging the
// monitor. With follow, end-of-input waits for the file to grow
// instead of finishing; a signal on stop ends the tail and flushes the
// summary. Wait and processing time accumulate in stages.
func tailLog(mon *core.Monitor, path string, follow bool, stop <-chan os.Signal, stages *server.Stages) error {
	tl, err := sflow.NewTailer(path, 0)
	if err != nil {
		return err
	}
	defer tl.Close()
	// No routing substrate for a raw capture: origin/peer stay
	// unmapped unless the flow sample carries an ingress port.
	cp := ixp.NewCapturePoint(nil, mon.Table())
	var last simclock.Time
	n, dayN := 0, 0
	curDay := simclock.Time(-1)
	wait := tailWaitMin
	var reopens uint64
	for {
		stopProcess := stages.Track("process")
		rec, input, err := tl.Next()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			stopProcess()
			if follow {
				select {
				case sig := <-stop:
					fmt.Fprintf(os.Stderr, "ixpmon: %v: closing tail\n", sig)
				case <-time.After(wait):
					stages.Add("wait", wait)
					if wait *= 2; wait > tailWaitMax {
						wait = tailWaitMax
					}
					continue
				}
			} else if errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("log truncated mid-entry after %d samples", n)
			}
			break
		}
		if err != nil {
			stopProcess()
			return err
		}
		wait = tailWaitMin // data arrived: the log is live again
		if r := tl.Reopens(); r != reopens {
			reopens = r
			fmt.Fprintf(os.Stderr, "ixpmon: %s truncated or rotated; reopened (offset %d)\n", path, tl.Offset())
		}
		if day := rec.Time.StartOfDay(); day != curDay {
			if curDay >= 0 {
				fmt.Fprintf(os.Stderr, "%s: %d samples processed\n", curDay.Date(), dayN)
			}
			curDay, dayN = day, 0
		}
		if s, ok := cp.Process(rec); ok {
			if input != 0 {
				s.PeerAS = input
			}
			mon.Observe(&s)
			n++
			dayN++
		}
		last = rec.Time
		stopProcess()
	}
	if curDay >= 0 {
		fmt.Fprintf(os.Stderr, "%s: %d samples processed\n", curDay.Date(), dayN)
	}
	fmt.Fprintf(os.Stderr, "%d DNS samples processed from %s (%d sampled frames)\n", n, path, cp.Stats.Frames)
	printStages(stages.Snapshot())
	if n > 0 {
		mon.Close(last.Add(simclock.Day))
	}
	return nil
}

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
}

// serveInputs maps the ingest flags to the service's source list: the
// -inputs file's specs, then every -input, then -listen as udp://ADDR
// (when given, or when nothing else configures a source — the default
// daemon is one UDP listener) and -tail as tail:PATH. explicit holds
// the names of the flags present on the command line. It rejects
// combinations that would silently do nothing or contradict each
// other: multi-source flags outside -serve, an -inputs file that
// configures nothing, a scheduling policy with nothing to schedule,
// and uptime timestamps on durable inputs (their datagram logs carry
// capture time in the entry header; the Uptime field is zero there,
// so the combination would collapse every sample onto second 0).
func serveInputs(explicit map[string]bool, f serveFlags) ([]ingest.Spec, error) {
	if !f.serve {
		for _, name := range []string{"input", "inputs", "policy"} {
			if explicit[name] {
				return nil, fmt.Errorf("-%s has no effect without -serve", name)
			}
		}
		return nil, nil
	}
	specs := append(append([]ingest.Spec(nil), f.fromFile...), f.inputs...)
	if f.inputsFile != "" && len(specs) == 0 {
		return nil, fmt.Errorf("-inputs %s configures no sources: the file is empty", f.inputsFile)
	}
	switch f.policy {
	case "":
	case ingest.PolicyRoundRobin, ingest.PolicyBacklog, ingest.PolicyArrival:
		if len(specs) == 0 {
			return nil, fmt.Errorf("-policy needs -input or -inputs: there is nothing to schedule")
		}
	default:
		return nil, fmt.Errorf("-policy %q: want %s, %s, or %s", f.policy, ingest.PolicyRoundRobin, ingest.PolicyBacklog, ingest.PolicyArrival)
	}
	var short []string
	if explicit["listen"] || (len(specs) == 0 && f.tail == "") {
		short = append(short, "udp://"+f.listen)
	}
	if f.tail != "" {
		short = append(short, "tail:"+f.tail)
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

// runServe runs the always-on service until interrupted.
func runServe(cfg server.Config) error {
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
	sig := <-stop
	fmt.Fprintf(os.Stderr, "ixpmon: %v: shutting down\n", sig)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}

	ws := svc.WindowSnapshot()
	fmt.Fprintf(os.Stderr, "ixpmon: %d datagrams received, %d consumed, %d shed; %d days closed, %d client-days evicted\n",
		svc.Received(), svc.Consumed(), svc.QueueDrops(), ws.ClosedDays, ws.Evicted)
	printStages(svc.StagesSnapshot())
	dets := svc.DetectionsSnapshot()
	fmt.Printf("detections: %d\n", len(dets))
	for _, d := range dets {
		fmt.Printf("  %s  %-15s %6d pkts  %5.1f%% misused\n", d.Date, d.Victim, d.Packets, 100*d.Share)
	}
	return nil
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
	scale := flag.Float64("scale", 0.05, "campaign scale")
	days := flag.Int("days", 14, "days of traffic to monitor")
	interval := flag.Duration("interval", 5*time.Minute, "name-list refresh interval")
	listSize := flag.Int("names", 29, "per-selector name list size")
	concurrency := flag.Int("concurrency", 0, "day-traffic prefetch width (0 = all cores, 1 = serial; output is identical)")
	sflowPath := flag.String("sflow", "", "monitor an sFlow v5 datagram log instead of synthesizing traffic")
	follow := flag.Bool("follow", false, "with -sflow: keep tailing the log for appended datagrams")

	serve := flag.Bool("serve", false, "run as an always-on sFlow service")
	listen := flag.String("listen", "127.0.0.1:6343", "with -serve: UDP listen address for sFlow datagrams, shorthand for -input udp://ADDR (the default source when no other is configured)")
	httpAddr := flag.String("http", "127.0.0.1:8080", "with -serve: HTTP listen address for the control surface")
	windowDays := flag.Int("window", 7, "with -serve: sliding window width in days")
	timestamps := flag.String("timestamps", "wall", "with -serve: datagram time source, wall|uptime (uptime = replayed capture time)")
	stateDir := flag.String("state", "", "with -serve: directory for checkpoints and poison files (enables crash-safe state)")
	resume := flag.Bool("resume", false, "with -serve -state: resume from the newest valid checkpoint and continue mid-stream")
	ckptEvery := flag.Duration("checkpoint-every", time.Minute, "with -serve -state: periodic checkpoint cadence (<= 0 keeps only the shutdown checkpoint)")
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
	policy := flag.String("policy", "", "with -serve -input/-inputs: source scheduling policy: round-robin (default), backlog, or arrival (capture-time merge-replay)")

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
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ixpmon:", err)
		os.Exit(2)
	}

	switch {
	case *serve:
		if *resume && *stateDir == "" {
			fmt.Fprintln(os.Stderr, "ixpmon: -resume needs -state")
			os.Exit(2)
		}
		ce := *ckptEvery
		if ce <= 0 {
			ce = -1 // disable the timer; the shutdown checkpoint remains
		}
		err := runServe(server.Config{
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
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ixpmon:", err)
			os.Exit(1)
		}
		return
	case *sendPath != "":
		if err := runSend(*sendPath, *sendTo, *burst, *pause); err != nil {
			fmt.Fprintln(os.Stderr, "ixpmon:", err)
			os.Exit(1)
		}
		return
	}

	mon := core.NewMonitor(*listSize, simclock.Duration(interval.Seconds()), core.DefaultThresholds())
	if *sflowPath != "" {
		stop := make(chan os.Signal, 1)
		if *follow {
			signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		}
		if err := tailLog(mon, *sflowPath, *follow, stop, server.NewStages()); err != nil {
			fmt.Fprintln(os.Stderr, "ixpmon:", err)
			os.Exit(1)
		}
	} else {
		fmt.Fprintf(os.Stderr, "building campaign (scale %.2f)...\n", *scale)
		c := ecosystem.NewCampaign(ecosystem.DefaultCampaignConfig(*scale))
		window := simclock.Window{
			Start: simclock.MeasurementStart,
			End:   simclock.MeasurementStart.Add(simclock.Days(*days)),
		}
		src := source.NewSynthetic(ecosystem.NewGenerator(c, 11), window)

		// Monitor.Consume prefetches day traffic in parallel while the
		// (stateful, order-dependent) monitor consumes days in order.
		mon.Consume(src, c.Topo, *concurrency, func(day simclock.Time, n int) {
			fmt.Fprintf(os.Stderr, "%s: %d samples processed\n", day.Date(), n)
		})
	}

	fmt.Println("day          victims  /24s  /16s  /8s   name-list Jaccard vs prev day")
	for _, d := range mon.Days() {
		fmt.Printf("%s %8d %5d %5d %4d   %.2f\n",
			d.Day.Date(), d.Victims, d.Prefixes24, d.Prefixes16, d.Prefixes8, d.NameListJaccard)
	}
	fmt.Printf("\nmean day-over-day name-list Jaccard: %.2f (paper: 0.96)\n", mon.MeanNameListJaccard())
	fmt.Printf("current list (%d names):\n", len(mon.CurrentNames))
	for _, n := range sortedKeys(mon.CurrentNames) {
		fmt.Println("  " + n)
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
