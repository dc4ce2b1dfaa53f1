package pipeline

import (
	"reflect"
	"testing"

	"dnsamp/internal/core"
)

// runnerConfig is a fast configuration for the staged-vs-wrapper golden
// runs (main window only; the full-window path is covered by
// TestParallelMatchesSerial).
func runnerConfig() Config {
	cfg := determinismConfig()
	cfg.ExtendedWindow = false
	return cfg
}

// checkStudiesEqual compares every Study field except Cfg (which may
// legitimately differ in engine knobs like Concurrency that must not
// affect results).
func checkStudiesEqual(t *testing.T, label string, a, b *Study) {
	t.Helper()
	check := func(field string, x, y interface{}) {
		t.Helper()
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s: %s differs", label, field)
		}
	}
	check("CaptureStats", a.CaptureStats, b.CaptureStats)
	check("AggMain", a.AggMain, b.AggMain)
	check("AggExt", a.AggExt, b.AggExt)
	check("HoneypotAttacks", a.HoneypotAttacks, b.HoneypotAttacks)
	check("Sel1", a.Sel1, b.Sel1)
	check("Sel2", a.Sel2, b.Sel2)
	check("Sel3", a.Sel3, b.Sel3)
	check("ConsensusN", a.ConsensusN, b.ConsensusN)
	check("ConsensusCurve", a.ConsensusCurve, b.ConsensusCurve)
	check("VisibleGroundTruth", a.VisibleGroundTruth, b.VisibleGroundTruth)
	check("NameList", a.NameList, b.NameList)
	check("Detections", a.Detections, b.Detections)
	check("DetectionsExt", a.DetectionsExt, b.DetectionsExt)
	check("Records", a.Records, b.Records)
	check("VisibleNS", a.VisibleNS, b.VisibleNS)
}

// TestRunnerMatchesRun is the API-redesign golden test: driving the
// staged Runner stage by stage must reproduce pipeline.Run's Study
// exactly — serial and worker-pooled.
func TestRunnerMatchesRun(t *testing.T) {
	for _, conc := range []int{1, 8} {
		cfg := runnerConfig()
		cfg.Concurrency = conc
		want := Run(cfg)

		r := NewRunner(cfg)
		r.Plan().Aggregate().Select().Detect().Collect()
		got := r.Study()
		if got.Cfg != want.Cfg {
			t.Errorf("concurrency %d: Cfg differs", conc)
		}
		checkStudiesEqual(t, "staged", want, got)
	}
}

// TestRunnerRedetect re-runs Detect and Collect under new thresholds on
// an existing runner; the refreshed outputs must match a from-scratch
// run at those thresholds, and upstream stages must be untouched.
func TestRunnerRedetect(t *testing.T) {
	cfg := runnerConfig()
	cfg.Concurrency = 8

	r := NewRunner(cfg)
	first := r.Study()
	baseDetections := len(first.Detections)
	aggBefore := first.AggMain

	strict := core.Thresholds{MinShare: 0.99, MinPackets: 50}
	r.Cfg.Thresholds = strict
	r.Detect().Collect()

	fresh := cfg
	fresh.Thresholds = strict
	want := Run(fresh)

	got := r.Study()
	if got.AggMain != aggBefore {
		t.Error("re-Detect must not rebuild pass-1 aggregates")
	}
	if got.Cfg.Thresholds != strict {
		t.Errorf("Study.Cfg.Thresholds not refreshed: %+v", got.Cfg.Thresholds)
	}
	checkStudiesEqual(t, "redetect", want, got)
	if len(want.Detections) >= baseDetections {
		t.Skipf("strict thresholds did not reduce detections (%d -> %d); config too small to exercise the sweep",
			baseDetections, len(want.Detections))
	}
}
