// Command benchpoint compares two commits on the repository benchmark
// (bench/, BENCHMARK.json) in alternating pairs and records the result
// as one point of the trajectory; `make bench-pairs` runs it from the
// module root:
//
//	go run ./scripts/benchpoint -base REV [-head REV] [-seeds 501-510] [-workloads a,b] -point N
//
// Each commit is exported with `git archive` into a temporary directory
// and its ./bench built there once. For every workload and seed both
// binaries run `-workload W -seed S -trace 0` from their own tree, the
// side that goes first alternating from seed to seed. Per workload it
// prints each end-to-end metric's median and quartiles on both sides,
// the relative change of the medians, how many pairs the head won, and
// whether the medians differ by more than the base's interquartile
// range; -point N writes the same table to BENCH_N.json with both
// commit ids and a host fingerprint (nproc, the CPU model, the Go
// version). Workloads, metrics and the run length come from
// BENCHMARK.json. Run nothing else on the host meanwhile.
//
//	go run ./scripts/benchpoint -report
//
// prints the trajectory the committed points make instead (`make
// bench-report`): per workload and end-to-end metric, each point's
// head-over-base median ratio and those ratios chained (report.go).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json a point needs.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line a bench run prints.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one commit under comparison.
type side struct {
	Rev    string `json:"rev"`
	Commit string `json:"commit"`
	tree   string
}

type stats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type metricRow struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Base   stats   `json:"base"`
	Head   stats   `json:"head"`
	// Change is head's median relative to base's; HeadWon counts the
	// pairs where head was better; Resolved is whether the medians differ
	// by more than base's interquartile range.
	Change   float64 `json:"change"`
	HeadWon  int     `json:"head_won"`
	Pairs    int     `json:"pairs"`
	Resolved bool    `json:"resolved"`
}

type workloadRow struct {
	Name string `json:"name"`
	// Failed counts runs per side that exited non-zero or reported
	// incorrect results; their pairs are left out of the metrics.
	FailedBase int         `json:"failed_base"`
	FailedHead int         `json:"failed_head"`
	Metrics    []metricRow `json:"metrics"`
}

type host struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

type point struct {
	Point     int           `json:"point"`
	Base      side          `json:"base"`
	Head      side          `json:"head"`
	Host      host          `json:"host"`
	Seeds     []int64       `json:"seeds"`
	Seconds   int           `json:"seconds"`
	Workloads []workloadRow `json:"workloads"`
}

func main() {
	base := flag.String("base", "", "the commit compared against (required)")
	head := flag.String("head", "HEAD", "the commit measured")
	seeds := flag.String("seeds", "501-510", "seeds, as FROM-TO or a comma list; one pair per seed")
	only := flag.String("workloads", "", "comma-separated workloads (default: every one in BENCHMARK.json)")
	pointN := flag.Int("point", 0, "write BENCH_<point>.json in the current directory")
	reportOnly := flag.Bool("report", false, "print the committed points' chained ratios, run nothing")
	flag.Parse()
	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fail(fmt.Errorf("reading BENCHMARK.json: %w", err))
	}
	if *reportOnly {
		if err := printTrajectory(sp); err != nil {
			fail(err)
		}
		return
	}
	if *base == "" {
		fail(fmt.Errorf("-base is required"))
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fail(err)
	}
	names := []string{}
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}

	tmp, err := os.MkdirTemp("", "benchpoint-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)
	sides := [2]*side{{Rev: *base}, {Rev: *head}}
	for i, s := range sides {
		if err := s.build(filepath.Join(tmp, []string{"base", "head"}[i])); err != nil {
			fail(err)
		}
	}

	pt := point{Point: *pointN, Base: *sides[0], Head: *sides[1], Host: fingerprint(),
		Seeds: seedList, Seconds: sp.RunSeconds}
	for _, w := range names {
		row := workloadRow{Name: w}
		var vals [2][]map[string]float64 // per side, per kept pair
		for k, seed := range seedList {
			var got [2]map[string]float64
			for j := range 2 {
				i := (j + k) % 2 // base first on even pairs, head first on odd
				m, err := sides[i].run(w, seed, sp.RunSeconds, filepath.Join(tmp, "out"))
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchpoint: %s seed %d on %s: %v\n", w, seed, sides[i].Rev, err)
				}
				got[i] = m
			}
			if got[0] == nil {
				row.FailedBase++
			}
			if got[1] == nil {
				row.FailedHead++
			}
			if got[0] != nil && got[1] != nil {
				vals[0] = append(vals[0], got[0])
				vals[1] = append(vals[1], got[1])
			}
			fmt.Fprintf(os.Stderr, "benchpoint: %s pair %d/%d done\n", w, k+1, len(seedList))
		}
		for _, m := range sp.EndToEnd {
			r := metricRow{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Pairs: len(vals[0])}
			var b, h []float64
			for p := range vals[0] {
				bv, hv := vals[0][p][m.Name], vals[1][p][m.Name]
				b, h = append(b, bv), append(h, hv)
				if (m.Better == "lower" && hv < bv) || (m.Better == "higher" && hv > bv) {
					r.HeadWon++
				}
			}
			r.Base, r.Head = summarize(b), summarize(h)
			if r.Base.Median != 0 {
				r.Change = r.Head.Median/r.Base.Median - 1
			}
			d := r.Head.Median - r.Base.Median
			r.Resolved = len(b) > 0 && (d > r.Base.Q3-r.Base.Q1 || -d > r.Base.Q3-r.Base.Q1)
			row.Metrics = append(row.Metrics, r)
		}
		pt.Workloads = append(pt.Workloads, row)
	}

	report(&pt)
	if *pointN > 0 {
		out, err := json.MarshalIndent(&pt, "", "  ")
		if err != nil {
			fail(err)
		}
		name := fmt.Sprintf("BENCH_%d.json", *pointN)
		if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", name)
	}
}

// build exports the side's commit into dir and builds its bench there.
func (s *side) build(dir string) error {
	out, err := exec.Command("git", "rev-parse", "--verify", s.Rev+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("resolving %s: %w", s.Rev, err)
	}
	s.Commit, s.tree = strings.TrimSpace(string(out)), dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	arch := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", s.Commit, dir)
	arch.Stderr = os.Stderr
	if err := arch.Run(); err != nil {
		return fmt.Errorf("exporting %s: %w", s.Rev, err)
	}
	b := exec.Command("go", "build", "-o", "bench.bin", "./bench")
	b.Dir, b.Stdout, b.Stderr = dir, os.Stderr, os.Stderr
	if err := b.Run(); err != nil {
		return fmt.Errorf("building %s's bench: %w", s.Rev, err)
	}
	return nil
}

// run runs one untraced bench run and returns its end-to-end metrics,
// or nil and the reason when it failed.
func (s *side) run(workload string, seed int64, seconds int, out string) (map[string]float64, error) {
	cmd := exec.Command("./bench.bin", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", out)
	cmd.Dir = s.tree
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line (%v)", runErr)
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("incorrect run (%v)", runErr)
	}
	m := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// summarize gives the median and quartiles (linear interpolation).
func summarize(v []float64) stats {
	s := stats{Values: v}
	if len(v) == 0 {
		return s
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		x := p * float64(len(sorted)-1)
		i := int(x)
		if i+1 >= len(sorted) {
			return sorted[i]
		}
		return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
	}
	s.Q1, s.Median, s.Q3 = q(0.25), q(0.5), q(0.75)
	return s
}

func report(pt *point) {
	fmt.Printf("base %s (%s)  head %s (%s)\n", pt.Base.Rev, short(pt.Base.Commit), pt.Head.Rev, short(pt.Head.Commit))
	fmt.Printf("host: %d CPUs, %s, %s; seeds %v, %d s per run\n", pt.Host.NProc, pt.Host.CPU, pt.Host.Go, pt.Seeds, pt.Seconds)
	for _, w := range pt.Workloads {
		fmt.Printf("\n%s (failed runs: base %d, head %d)\n", w.Name, w.FailedBase, w.FailedHead)
		fmt.Printf("  %-18s %32s %32s %8s %6s  %s\n", "metric", "base median [q1–q3]", "head median [q1–q3]", "change", "won", "resolved")
		for _, m := range w.Metrics {
			fmt.Printf("  %-18s %32s %32s %+7.1f%% %3d/%-2d  %v\n", m.Name, cell(m.Base), cell(m.Head), 100*m.Change, m.HeadWon, m.Pairs, m.Resolved)
		}
	}
}

func cell(s stats) string { return fmt.Sprintf("%.4g [%.4g–%.4g]", s.Median, s.Q1, s.Q3) }

func short(c string) string { return c[:min(len(c), 12)] }

// fingerprint describes the host a point was measured on.
func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// parseSeeds reads "FROM-TO" or "a,b,c".
func parseSeeds(s string) ([]int64, error) {
	if from, to, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.ParseInt(from, 10, 64)
		b, err2 := strconv.ParseInt(to, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		var out []int64
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, x)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchpoint:", err)
	os.Exit(1)
}
