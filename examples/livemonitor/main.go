// Livemonitor demonstrates the §4.3 online deployment: sampled traffic
// streams into the service from one input (synthetic here; a UDP
// listener or a tailed log in production), the window keeps a rolling
// aggregate, refreshes the misused-name list every five minutes of
// traffic time, detects over each day as it closes, and emits per-day
// victim statistics. It is what `ixpmon` without -serve does.
//
// Unlike the offline pipeline, the monitor never sees the future: name
// lists adapt as attacks change.
package main

import (
	"context"
	"fmt"
	"os"

	"dnsamp/internal/ingest"
	"dnsamp/internal/server"
	"dnsamp/internal/simclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livemonitor:", err)
		os.Exit(1)
	}
}

func run() error {
	week, err := ingest.ParseSpec("synthetic:scale=0.03,days=7")
	if err != nil {
		return err
	}
	// The zero window: one day of client state, and the paper's 29 names
	// per selector and refresh every 5 minutes of stream time.
	svc := server.NewService(server.Config{Inputs: []ingest.Spec{week}})
	if err := svc.Start(); err != nil {
		return err
	}
	<-svc.Done() // the input is finite: the stream ends by itself
	if err := svc.Shutdown(context.Background()); err != nil {
		return err
	}

	fmt.Println("day          victims  /24s  list-Jaccard vs previous day (paper: 0.96 on average)")
	for _, d := range svc.DaysSnapshot() {
		j := "-"
		if d.HasPrev {
			j = fmt.Sprintf("%.2f", d.Jaccard)
		}
		fmt.Printf("%s %8d %5d  %s\n", simclock.Time(simclock.Days(d.Day)).Date(), d.Victims, d.Prefixes24, j)
	}
	fmt.Printf("\nname-list refreshes: %d (every 5 traffic-minutes)\n", svc.WindowSnapshot().Refreshes)
	return nil
}
