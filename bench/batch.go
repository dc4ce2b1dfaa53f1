package main

import (
	"fmt"
	"time"

	"dnsamp/internal/pipeline"
	"dnsamp/internal/simclock"
)

// studyConfig is the batch-study configuration: the main window only,
// the shared small topology, traffic a function of seed.
func studyConfig(scale float64, seed int64, concurrency int) pipeline.Config {
	cfg := pipeline.DefaultConfig(scale)
	cfg.Campaign.Zones.ProceduralNames = proceduralNames
	cfg.Campaign.Topology = benchTopology
	cfg.ExtendedWindow = false
	cfg.TrafficSeed = seed
	cfg.Concurrency = concurrency
	return cfg
}

// studySummary is what two study runs are compared on: every detection
// key with its packet count, grouped by day, and the sample count.
type studySummary struct {
	Samples int
	// Days maps a study day to its detections, "victim" → packets.
	Days map[int]map[string]int
}

func summarize(st *pipeline.Study) studySummary {
	sum := studySummary{Samples: st.CaptureStats.Frames, Days: make(map[int]map[string]int)}
	for _, d := range st.Detections {
		day := sum.Days[d.Day]
		if day == nil {
			day = make(map[string]int)
			sum.Days[d.Day] = day
		}
		day[fmt.Sprintf("%d.%d.%d.%d", d.Victim[0], d.Victim[1], d.Victim[2], d.Victim[3])] = d.Packets
	}
	return sum
}

// detections counts the summary's detection keys.
func (s studySummary) detections() int {
	n := 0
	for _, day := range s.Days {
		n += len(day)
	}
	return n
}

// studyReference is batch-study's set-up: the same study on one worker,
// stage by stage. Its detections are what every repetition on all
// cores must reproduce, and its stage times are the single-threaded
// baseline the traced run reports.
type studyReference struct {
	Summary studySummary
	Stages  map[string]float64 // stage → seconds at Concurrency=1
	SerialS float64
}

func runStudyStages(cfg pipeline.Config, tr *tracer) (*pipeline.Study, map[string]float64) {
	r := pipeline.NewRunner(cfg)
	root := tr.begin(tr.id("pipeline.study"), -1)
	defer tr.end(root)
	stages := make(map[string]float64)
	for _, st := range []struct {
		name string
		run  func() *pipeline.Runner
	}{
		{"plan", r.Plan}, {"aggregate", r.Aggregate}, {"select", r.Select}, {"detect", r.Detect}, {"collect", r.Collect},
	} {
		sp := tr.begin(tr.id("pipeline."+st.name), root)
		t0 := time.Now()
		st.run()
		stages[st.name] = time.Since(t0).Seconds()
		tr.end(sp)
	}
	return r.Study(), stages
}

func computeStudyReference(scale float64, seed int64, tr *tracer) (*studyReference, error) {
	t0 := time.Now()
	st, stages := runStudyStages(studyConfig(scale, seed, 1), tr)
	ref := &studyReference{Summary: summarize(st), Stages: stages, SerialS: time.Since(t0).Seconds()}
	if ref.Summary.detections() == 0 {
		return nil, fmt.Errorf("serial study at scale %g found no detections; the comparison would be vacuous", scale)
	}
	return ref, nil
}

// runStudyRep is one repetition of batch-study: pipeline.Run on all
// cores, timed, and compared day by day with the serial reference. The
// traced repetition runs the same study stage by stage under spans.
func runStudyRep(j *job) (*repResult, error) {
	ref := &studyReference{}
	if err := readJSONFile(j.RefPath, ref); err != nil {
		return nil, err
	}
	cfg := studyConfig(j.StudyScale, j.Seed, 0)
	var tr *tracer
	if j.Traced {
		tr = newTracer(16)
	}

	u0, t0 := readUsage(), time.Now()
	var st *pipeline.Study
	if j.Traced {
		st, _ = runStudyStages(cfg, tr)
	} else {
		st = pipeline.Run(cfg)
	}
	wall, u1 := time.Since(t0), readUsage()

	days := simclock.MainPeriod().Days()
	got := summarize(st)
	res := &repResult{
		WallS: wall.Seconds(), CPUS: (u1.cpu - u0.cpu).Seconds(), PeakRSSMB: u1.peakRSS,
		Samples: got.Samples, Attempted: days, Layer: map[string]float64{},
	}
	start := simclock.MeasurementStart.Day()
	for day := start; day < start+days; day++ {
		if !sameDay(got.Days[day], ref.Summary.Days[day]) {
			res.Failed++
		}
	}
	if res.Failed > 0 {
		res.fail("%d of %d study days differ from the serial reference (%d vs %d detections)",
			res.Failed, days, got.detections(), ref.Summary.detections())
	}
	if got.Samples != ref.Summary.Samples {
		res.fail("study ingested %d samples, serial reference %d", got.Samples, ref.Summary.Samples)
	}
	if !j.Traced {
		return res, nil
	}

	L := res.Layer
	for name, s := range ref.Stages {
		L["pipeline."+name+"_s"] = s
	}
	L["pipeline.serial_s"] = ref.SerialS
	L["pipeline.study_s"] = j.UntracedWallS
	L["pipeline.study_cpu_s"] = res.CPUS
	if j.UntracedWallS > 0 {
		L["pipeline.speedup"] = ref.SerialS / j.UntracedWallS
		L["pipeline.days_per_s"] = float64(days) / j.UntracedWallS
		L["trace.overhead_ratio"] = wall.Seconds() / j.UntracedWallS
	}
	L["trace.spans"] = float64(len(tr.spans))
	if j.TracePath != "" {
		if err := tr.writeFile(j.TracePath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func sameDay(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
