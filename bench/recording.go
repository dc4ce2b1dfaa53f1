package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dnsamp/internal/core"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/server"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
	"dnsamp/internal/topology"
)

// benchTopology is the small fixed topology every workload shares (the
// one the server goldens use), so only the traffic seed varies.
var benchTopology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}

func campaignConfig(scale float64) ecosystem.CampaignConfig {
	cfg := ecosystem.DefaultCampaignConfig(scale)
	cfg.Zones.ProceduralNames = proceduralNames
	cfg.Topology = benchTopology
	return cfg
}

// recording is what set-up leaves on disk for one serve workload: the
// input logs, how much they hold, and the detections a correct run over
// them must report.
type recording struct {
	Full      string   // the whole recording as one log (agent 192.0.2.1); "" when not written
	Parts     []string // the same records split by second mod len(Parts)
	Datagrams int      // entries in Full, or across Parts when only those were written
	Samples   int      // flow samples in the recording
}

// writeRecording generates days of sampled IXP traffic as a pure
// function of seed and streams it, day by day in capture order, into
// dir/full.sflow (when full is set) and, when parts > 1, into part logs
// split by capture second (agents 192.0.2.1, .2, ...). A prefix of a
// longer recording is the same bytes as a shorter recording, because
// each day depends only on (campaign, seed, day).
func writeRecording(dir string, seed int64, scale float64, days, parts int, full bool, tr *tracer) (*recording, error) {
	root := tr.begin(tr.id("setup.recording"), -1)
	defer tr.end(root)

	sp := tr.begin(tr.id("ecosystem.campaign"), root)
	gen := ecosystem.NewGenerator(ecosystem.NewCampaign(campaignConfig(scale)), seed)
	tr.end(sp)

	// writers[0] is the full log (nil when not wanted); the rest are parts.
	rec := &recording{}
	paths := []string{""}
	if full {
		rec.Full = filepath.Join(dir, "full.sflow")
		paths[0] = rec.Full
	}
	if parts > 1 {
		for i := 0; i < parts; i++ {
			p := filepath.Join(dir, fmt.Sprintf("part%d.sflow", i))
			rec.Parts = append(rec.Parts, p)
			paths = append(paths, p)
		}
	}
	type logFile struct {
		f  *os.File
		bw *bufio.Writer
		lw *sflow.LogWriter
	}
	writers := make([]*logFile, len(paths))
	defer func() {
		for _, w := range writers {
			if w != nil {
				w.f.Close() // a no-op after the checked Close below
			}
		}
	}()
	for i, p := range paths {
		if p == "" {
			continue
		}
		f, err := os.Create(p)
		if err != nil {
			return nil, err
		}
		w := &logFile{f: f, bw: bufio.NewWriterSize(f, 1<<20)}
		writers[i] = w
		agent := [4]byte{192, 0, 2, byte(max(i, 1))}
		if w.lw, err = sflow.NewLogWriter(w.bw, agent, sflow.DefaultRate); err != nil {
			return nil, err
		}
	}

	wireID := tr.id("ecosystem.wireday")
	day := simclock.MeasurementStart
	for d := 0; d < days; d++ {
		sp := tr.begin(wireID, root)
		recs := gen.WireDay(day).IXP
		tr.end(sp)
		slices.SortStableFunc(recs, func(a, b ecosystem.TaggedRecord) int {
			return int(a.Rec.Time.Sub(b.Rec.Time))
		})
		for _, r := range recs {
			if w := writers[0]; w != nil {
				if err := w.lw.Add(r.Rec, r.Ingress); err != nil {
					return nil, err
				}
			}
			if parts > 1 {
				if err := writers[1+int(int64(r.Rec.Time)%int64(parts))].lw.Add(r.Rec, r.Ingress); err != nil {
					return nil, err
				}
			}
		}
		rec.Samples += len(recs)
		day = day.Add(simclock.Day)
	}
	for _, w := range writers {
		if w == nil {
			continue
		}
		if err := w.lw.Flush(); err != nil {
			return nil, err
		}
		if err := w.bw.Flush(); err != nil {
			return nil, err
		}
		if err := w.f.Close(); err != nil {
			return nil, err
		}
	}

	count := rec.Parts
	if full {
		count = []string{rec.Full}
	}
	for _, p := range count {
		n, err := countEntries(p)
		if err != nil {
			return nil, err
		}
		rec.Datagrams += n
	}
	return rec, nil
}

// openLog opens a datagram log for reading; the caller closes the file.
func openLog(path string) (*sflow.LogReader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	lr, err := sflow.NewLogReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return lr, f, nil
}

// countEntries re-reads a finished log and counts its datagrams: the
// offered load, counted independently of the service under test.
func countEntries(path string) (int, error) {
	lr, f, err := openLog(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	for n := 0; ; n++ {
		if _, _, err := lr.NextEntry(); err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, fmt.Errorf("%s: entry %d: %w", path, n, err)
		}
	}
}

// referenceDetections is the offline study over a recording — whole
// days ingested columnar, selector state cumulative, each day detected
// as it closes — that any service run over the same recording must
// reproduce exactly (the batchReference recipe of the server goldens).
// Given several logs it ingests them one after another: a day's
// aggregate does not depend on the order its records arrive in. It
// records the core-layer timings the traced run reports.
func referenceDetections(paths []string, tr *tracer) ([]server.Detection, *refStats, error) {
	root := tr.begin(tr.id("setup.reference"), -1)
	defer tr.end(root)

	rep := source.NewReplay(nil)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		_, err = rep.IngestSFlowLog(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("reference: ingesting %s: %w", path, err)
		}
	}
	tab := rep.Table()
	agg := core.NewAggregator(tab, nil)
	agg.SetTrackAll(true)
	cp := ixp.NewCapturePoint(nil, tab)
	th := core.DefaultThresholds()

	st := &refStats{}
	var out []server.Detection
	for _, day := range rep.Days() {
		batch := cp.RemapBatch(rep.Day(day))
		t0 := time.Now()
		agg.ObserveBatch(batch)
		st.ObserveBatch += time.Since(t0)
		st.BatchSamples += batch.N

		t0 = time.Now()
		nl := core.BuildNameList(listSize, core.Selector1MaxSize(agg), core.Selector2ANYCount(agg))
		st.Selectors += time.Since(t0)
		st.Refreshes++

		t0 = time.Now()
		dets := core.Detect(agg, nl.Names, th)
		st.Detect += time.Since(t0)
		st.Days++
		for _, det := range dets {
			if det.Day == day.Day() {
				out = append(out, detectionJSON(det))
			}
		}
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("reference over %v found no detections; the comparison would be vacuous", paths)
	}
	return out, st, nil
}

// refStats are the core-layer timings of one reference computation.
type refStats struct {
	ObserveBatch, Selectors, Detect time.Duration
	BatchSamples, Refreshes, Days   int
}

// detectionJSON renders a core.Detection the way /detections and
// Service.DetectionsSnapshot do, so the two compare with DeepEqual.
func detectionJSON(d *core.Detection) server.Detection {
	return server.Detection{
		Victim:           fmt.Sprintf("%d.%d.%d.%d", d.Victim[0], d.Victim[1], d.Victim[2], d.Victim[3]),
		Day:              d.Day,
		Date:             d.First.Date(),
		Packets:          d.Packets,
		CandidatePackets: d.CandidatePackets,
		Share:            d.Share,
		First:            d.First.String(),
		Last:             d.Last.String(),
	}
}

func writeJSONFile(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readJSONFile(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}
