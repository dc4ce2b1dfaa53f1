package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv names the job file of a repetition. Every repetition runs in
// a fresh child process of this binary, so heap, peak RSS and CPU time
// belong to that repetition alone; the parent only sets up and collects.
const childEnv = "DNSAMP_BENCH_JOB"

// job is everything one repetition needs; the parent writes it as JSON
// next to the inputs and the child reads it back.
type job struct {
	Workload string
	Seed     int64
	// Traced turns the repetition into the traced run: spans around the
	// harness's calls, the extra probes, and the direct-driven layer pass.
	Traced bool
	// UntracedWallS is the median wall time of the untraced repetitions
	// of the same invocation, the base of trace.overhead_ratio.
	UntracedWallS float64
	TracePath     string

	// Serve workloads.
	Full      string
	Logs      []string
	Datagrams int // entries across Logs
	Samples   int
	Days      int
	RefPath   string
	StateDir  string

	// batch-study.
	StudyScale float64
}

// repResult is what one repetition reports back on its standard output.
type repResult struct {
	WallS     float64
	CPUS      float64
	PeakRSSMB float64
	Samples   int // sampled packets the timed phase ingested
	Attempted int
	Failed    int
	// Errors are the correctness checks that failed; any entry fails
	// the run.
	Errors []string
	// Layer holds per-layer metrics (traced repetitions only).
	Layer map[string]float64
}

func (r *repResult) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runChild executes one repetition in a fresh process and decodes its
// result. A child that dies or prints no result is an error, not a
// failed check.
func runChild(ctx context.Context, dir string, j *job) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "job.json")
	if err := writeJSONFile(path, j); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+path)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition of %s: %w", j.Workload, err)
	}
	res := &repResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("repetition of %s: decoding result: %w", j.Workload, err)
	}
	return res, nil
}

// runAsChild reports whether this process is a repetition's child; if
// so it runs the job and exits.
func runAsChild() {
	path := os.Getenv(childEnv)
	if path == "" {
		return
	}
	if err := childMain(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// childMain is the child side: run the job named by childEnv, print the
// result as one JSON object.
func childMain(path string) error {
	j := &job{}
	if err := readJSONFile(path, j); err != nil {
		return err
	}
	w := findWorkload(j.Workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", j.Workload)
	}
	var (
		res *repResult
		err error
	)
	if w.batch {
		res, err = runStudyRep(j)
	} else {
		res, err = runServeRep(j, w)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// usage samples the process's CPU time and peak resident set.
type usage struct {
	cpu     time.Duration
	peakRSS float64 // MiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), peakRSS: vmHWM()}
}

// vmHWM is the peak resident set of this process's own address space in
// MiB. ru_maxrss will not do: across the vfork+exec that starts a child
// it keeps the parent's peak, so every repetition would report the
// set-up's memory.
func vmHWM() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
