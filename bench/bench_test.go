package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when a
// repetition re-executes it as a child.
func TestMain(m *testing.M) {
	runAsChild()
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	for _, c := range []struct {
		values []float64
		p      float64
		want   float64
	}{
		{nil, 50, 0},
		{[]float64{42}, 1, 42},
		{[]float64{42}, 100, 42},
		{ten, 50, 5},   // ceil(0.50*10) = 5th smallest
		{ten, 95, 10},  // ceil(9.5) = 10th
		{ten, 90, 9},   // ceil(9.0) = 9th
		{ten, 99, 10},  // ceil(9.9) = 10th
		{ten, 100, 10}, // the maximum
		{ten, 10, 1},   // ceil(1.0) = 1st
		{ten, 11, 2},   // ceil(1.1) = 2nd
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 75, 3},
		{[]float64{1, 2, 3, 4}, 76, 4},
	} {
		if got := percentile(c.values, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.values, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.values); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.values, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	names := []string{"root", "a", "b", "leaf"}
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100}, // 0 root
		{name: 1, parent: 0, start: 10, end: 40},  // 1 a: nested, with a child of its own
		{name: 3, parent: 1, start: 15, end: 25},  // 2 leaf under a
		{name: 2, parent: 0, start: 30, end: 60},  // 3 b: overlaps a on [30,40)
		{name: 2, parent: 0, start: 90, end: 120}, // 4 b: sticks out of root, clipped to [90,100)
		{name: 3, parent: 3, start: 35, end: 36},  // 5 leaf under the first b
	}
	got := selfTimes(names, spans)
	// root: 100 long; children cover [10,60) and [90,100) = 60 → self 40.
	// a: 30 long, leaf covers 10 → self 20.
	// b: 30 + 30 long; first has a 1-long leaf → self 29 + 30.
	// leaf: 10 + 1, no children.
	for name, want := range map[string]spanTotals{
		"root": {count: 1, total: 100, self: 40},
		"a":    {count: 1, total: 30, self: 20},
		"b":    {count: 2, total: 60, self: 59},
		"leaf": {count: 2, total: 11, self: 11},
	} {
		g := got[name]
		if g == nil || g.count != want.count || g.total != want.total || g.self != want.self {
			t.Errorf("%s: got %+v, want count %d total %d self %d", name, g, want.count, want.total, want.self)
		}
	}
}

// TestTracerNil pins the contract the untraced pass relies on: a nil
// tracer accepts every call and records nothing.
func TestTracerNil(t *testing.T) {
	var tr *tracer
	sp := tr.begin(tr.id("x"), -1)
	tr.rename(sp, tr.id("y"))
	tr.end(sp)
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := newTracer(4)
	root := tr.begin(tr.id("root"), -1)
	tr.end(tr.begin(tr.id("kid"), root))
	tr.end(root)
	path := t.TempDir() + "/trace.json"
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Names   []string
		Columns []string
		Spans   [][4]int64
	}
	if err := readJSONFile(path, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Names, []string{"root", "kid"}) || len(back.Spans) != 2 || back.Spans[1][1] != 0 {
		t.Errorf("trace file read back as %+v", back)
	}
}

// TestRecordingDeterminism: the recording is a pure function of the
// seed, and a shorter recording is a byte prefix of a longer one (which
// is how serve-default's two-day input relates to the ten-day log).
func TestRecordingDeterminism(t *testing.T) {
	sz := smokeSizes
	gen := func(seed int64, days int) ([sha256.Size]byte, []byte) {
		t.Helper()
		rec, err := writeRecording(t.TempDir(), seed, sz.recordScale, days, 1, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(rec.Full)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Datagrams == 0 || rec.Samples < rec.Datagrams {
			t.Fatalf("recording holds %d datagrams, %d samples", rec.Datagrams, rec.Samples)
		}
		return sha256.Sum256(raw), raw
	}
	full, fullBytes := gen(7, 2)
	again, _ := gen(7, 2)
	if full != again {
		t.Errorf("same seed, different recordings: %x vs %x", full, again)
	}
	prefix, prefixBytes := gen(7, 1)
	prefixAgain, _ := gen(7, 1)
	if prefix != prefixAgain {
		t.Errorf("same seed, different prefix recordings: %x vs %x", prefix, prefixAgain)
	}
	if !bytes.HasPrefix(fullBytes, prefixBytes) {
		t.Error("the one-day recording is not a byte prefix of the two-day recording")
	}
	if other, _ := gen(8, 2); other == full {
		t.Error("different seeds gave the same recording")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness's own tables
// and to the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if !reflect.DeepEqual(bm.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bm.Command, bm.Paths)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bm.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bm.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness %q: %q", i, got, w.name, w.why)
		}
		name(w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("why of %s is not one line of at most 200 characters", w.name)
		}
	}

	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bm.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := bm.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, harness %+v", i, got, m)
		}
		name(m.name)
		if !unitRE.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: unit %q, bound %g", m.name, m.unit, m.bound)
		}
		hasSetup = hasSetup || m.name == "setup_s" && m.unit == "s" && m.better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bm.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bm.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, harness %+v", i, got, m)
		}
		name(m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.name, m.unit, m.better)
		}
	}
}

func TestWorseBy(t *testing.T) {
	lower, higher := metric{better: "lower"}, metric{better: "higher"}
	for _, c := range []struct {
		m             metric
		first, second float64
		want          float64
	}{
		{lower, 10, 11, 0.1},
		{lower, 10, 9, -0.1},
		{higher, 10, 9, 0.1},
		{higher, 10, 12, -0.2},
		{lower, 0, 5, 0},
	} {
		if got := worseBy(c.m, c.first, c.second); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%s, %g, %g) = %g, want %g", c.m.better, c.first, c.second, got, c.want)
		}
	}
}

// TestSmokeEndToEnd runs every workload at smoke size through the real
// parent/child machinery: the traced run (which starts with an untraced
// repetition of the same job) for all five, and the untraced run's
// medians for one serve workload and the batch study. It asserts
// correctness and shape, never a time.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five smoke workloads in child processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	o := options{seed: 7, seconds: 1, smoke: true, outDir: t.TempDir()}

	// Which layers a workload must show work in, and which it bypasses.
	serveLayers := []string{
		"sflow.parse.ns_per_datagram", "sflow.logreader.ns_per_entry", "ixp.process.ns_per_sample",
		"core.observe.ns_per_sample", "core.selectors.ms_per_refresh", "core.observe_batch.ns_per_sample",
		"server.window.refresh_s", "server.window.close_ms", "server.datagrams_per_s",
		"server.consumer.busy_share", "ingest.dispatch.items_per_s", "metrics.families",
		"ecosystem.campaign_s", "trace.overhead_ratio", "trace.direct.overhead_ratio",
	}
	batchLayers := []string{
		"pipeline.plan_s", "pipeline.aggregate_s", "pipeline.collect_s", "pipeline.serial_s",
		"pipeline.study_s", "pipeline.speedup", "trace.overhead_ratio",
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(ctx, o, w, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("correct %v, %d of %d operations failed: %v", res.correct, res.failed, res.attempted, res.errors)
			}
			known := make(map[string]bool)
			for _, m := range perLayer {
				known[m.name] = true
			}
			for name := range res.metrics {
				if !known[name] {
					t.Errorf("traced run emitted %q, which BENCHMARK.json does not list", name)
				}
			}
			worked, idle := serveLayers, batchLayers[:len(batchLayers)-1]
			if w.batch {
				worked, idle = batchLayers, serveLayers[:len(serveLayers)-2]
			}
			for _, name := range worked {
				if res.metrics[name] <= 0 {
					t.Errorf("%s = %g, want work there", name, res.metrics[name])
				}
			}
			for _, name := range idle {
				if res.metrics[name] != 0 {
					t.Errorf("%s = %g on a workload that bypasses the layer", name, res.metrics[name])
				}
			}
			if res.metrics["server.loss_ratio"] != 0 || res.metrics["ingest.restarts"] != 0 || res.metrics["ingest.parse_errors"] != 0 {
				t.Errorf("loss %g, restarts %g, parse errors %g", res.metrics["server.loss_ratio"], res.metrics["ingest.restarts"], res.metrics["ingest.parse_errors"])
			}
			for _, f := range []string{"trace-" + w.name + ".json", "trace-" + w.name + "-setup.json"} {
				if _, err := os.Stat(o.outDir + "/" + f); err != nil {
					t.Errorf("trace file: %v", err)
				}
			}
		})
	}

	for _, name := range []string{"serve-coarse", "batch-study"} {
		t.Run(name+"/untraced", func(t *testing.T) {
			res, err := runWorkload(ctx, o, findWorkload(name), false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 {
				t.Fatalf("correct %v, %d operations failed: %v", res.correct, res.failed, res.errors)
			}
			var out bytes.Buffer
			res.print(&out)
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatalf("last output line is not the result object: %v", err)
			}
			if len(last.Metrics) != len(endToEnd) {
				t.Errorf("result carries %d metrics, want %d", len(last.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if got := last.Metrics[m.name]; got.Value <= 0 || got.Unit != m.unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
		})
	}

	left, err := os.ReadDir(o.outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("temporary directory %s was left behind", e.Name())
		}
	}
}
