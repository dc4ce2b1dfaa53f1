package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// recorded is one committed point with the commit that added its file.
type recorded struct {
	point
	file string
	// by is the commit that added the file, empty when it is not
	// committed yet.
	by string
}

// printTrajectory prints the trajectory of the committed BENCH_*.json
// points: one table per workload, one row per point, each end-to-end
// metric as the point's head median over its base median and the pairs
// the head won, and a last row chaining those ratios from the first
// point.
//
// Only ratios within a point compare: one host fingerprint has read the
// same code 20 % apart in two sessions, and each point's base medians
// calibrate its own session. So no absolute median is compared across
// points. A point continues the chain when its base is the previous
// point's head, or the commit that recorded the previous point (a head
// measured before it was committed is a tree that no longer exists);
// any other base is flagged, since the ratio then spans commits no
// point measured. In a tree without the history (a git archive copy) no
// point's recording commit is known and, since heads are measured
// before they are committed, no base can be checked: that is said once,
// and the ratios still chain in point order.
func printTrajectory(sp spec) error {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return err
	}
	var pts []recorded
	for _, f := range files {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(f, "BENCH_"), ".json"))
		if err != nil {
			continue // not a numbered point
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		r := recorded{file: f}
		if err := json.Unmarshal(raw, &r.point); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		r.Point = n
		out, _ := exec.Command("git", "log", "--diff-filter=A", "--format=%H", "-1", "--", f).Output()
		r.by = strings.TrimSpace(string(out))
		pts = append(pts, r)
	}
	if len(pts) == 0 {
		return fmt.Errorf("no BENCH_<n>.json in the current directory")
	}
	slices.SortFunc(pts, func(a, b recorded) int { return a.Point - b.Point })
	history := slices.ContainsFunc(pts, func(p recorded) bool { return p.by != "" })

	fmt.Printf("%d points, %s to %s: head median / base median per point, pairs the head won\n",
		len(pts), pts[0].file, pts[len(pts)-1].file)
	if !history {
		fmt.Println("  ! no point's commit is in the git history (an exported tree?): bases are not checked, ratios chain in point order")
	}
	for i := 1; i < len(pts); i++ {
		if note := chainBreak(pts[i-1], pts[i], history); note != "" {
			fmt.Printf("  ! %s: %s\n", pts[i].file, note)
		}
	}
	for _, w := range sp.Workloads {
		fmt.Printf("\n%s\n  %-6s %-12s", w.Name, "point", "base")
		for _, m := range sp.EndToEnd {
			fmt.Printf("  %-20s", m.Name)
		}
		fmt.Println()
		chain := make([]float64, len(sp.EndToEnd))
		for i := range chain {
			chain[i] = 1
		}
		for _, p := range pts {
			row := p.workload(w.Name)
			fmt.Printf("  %-6d %-12s", p.Point, short(p.Base.Commit))
			for i, m := range sp.EndToEnd {
				mr := row.metric(m.Name)
				if mr == nil || mr.Base.Median == 0 {
					fmt.Printf("  %-20s", "not measured")
					continue
				}
				ratio := mr.Head.Median / mr.Base.Median
				chain[i] *= ratio
				fmt.Printf("  %-20s", fmt.Sprintf("×%.3f %d/%d", ratio, mr.HeadWon, mr.Pairs))
			}
			fmt.Println()
		}
		fmt.Printf("  %-6s %-12s", "chain", fmt.Sprintf("%d→%d", pts[0].Point, pts[len(pts)-1].Point))
		for i := range sp.EndToEnd {
			fmt.Printf("  %-20s", fmt.Sprintf("×%.3f", chain[i]))
		}
		fmt.Println()
	}
	return nil
}

// chainBreak says why cur's base does not continue the chain from
// prev, or returns "" when it does, when the commits between change no
// code (touchesCode), or, without history, when it cannot tell: a base
// that is prev's recording commit looks like any other.
func chainBreak(prev, cur recorded, history bool) string {
	base := cur.Base.Commit
	if base == prev.Head.Commit || (prev.by != "" && base == prev.by) || !history {
		return ""
	}
	if prev.by == "" {
		return fmt.Sprintf("base %s is not %s's head %s, which is not committed", short(base), prev.file, short(prev.Head.Commit))
	}
	if out, err := exec.Command("git", "diff", "--name-only", prev.by, base).Output(); err == nil &&
		!touchesCode(strings.Fields(string(out))) {
		return ""
	}
	between := "an unknown number of commits"
	if out, err := exec.Command("git", "rev-list", "--count", prev.by+".."+base).Output(); err == nil {
		between = strings.TrimSpace(string(out)) + " commit(s)"
	}
	return fmt.Sprintf("base %s is not %s's head (recorded at %s): %s between, measured by no point",
		short(base), prev.file, short(prev.by), between)
}

// touchesCode reports whether a diff's paths include anything the
// benchmark builds from: a Go file, go.mod or go.sum (the module embeds
// no other file). A range of documentation commits measures the same
// program as its base.
func touchesCode(paths []string) bool {
	return slices.ContainsFunc(paths, func(p string) bool {
		return strings.HasSuffix(p, ".go") || p == "go.mod" || p == "go.sum"
	})
}

// workload returns the point's row for name, nil when it was not run.
func (p *recorded) workload(name string) *workloadRow {
	for i := range p.Workloads {
		if p.Workloads[i].Name == name {
			return &p.Workloads[i]
		}
	}
	return nil
}

// metric returns the row's metric called name, nil when it has none.
func (w *workloadRow) metric(name string) *metricRow {
	if w == nil {
		return nil
	}
	for i := range w.Metrics {
		if w.Metrics[i].Name == name {
			return &w.Metrics[i]
		}
	}
	return nil
}
