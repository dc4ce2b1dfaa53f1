package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"dnsamp/internal/ingest"
	"dnsamp/internal/ixp"
	"dnsamp/internal/server"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// layerProbes is the part of a traced serve repetition that times each
// layer's public functions from outside: the direct-driven pass (the
// harness itself runs log reader → parse → process → observe → close on
// a bare server.Window), allocation counts for the parser and the
// capture point, and the bare ingest scheduler.
func layerProbes(j *job, w *workload, cfg server.Config, want []server.Detection, tr *tracer, res *repResult) error {
	L := res.Layer
	runtime.GC()

	// The untraced pass is the base of the direct overhead ratio and
	// warms the page cache for the traced one.
	base, err := directDrive(j.Full, cfg.Window, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	tr.spans = slices.Grow(tr.spans, 4*j.Datagrams+16) // four spans per datagram
	d, err := directDrive(j.Full, cfg.Window, tr)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(d.detections, want) {
		res.fail("direct-driven window: detections differ from the reference (%d vs %d)", len(d.detections), len(want))
	}
	L["trace.direct.overhead_ratio"] = d.wall.Seconds() / base.wall.Seconds()

	tot := selfTimes(tr.names, tr.spans)
	get := func(name string) *spanTotals {
		if t := tot[name]; t != nil {
			return t
		}
		return &spanTotals{}
	}
	// What the layer spans leave uncovered is the harness's own loop
	// (re-encoding, span bookkeeping): the layers account for the rest.
	if run := get("direct.run"); run.total > 0 {
		L["trace.direct.unattributed_ratio"] = float64(run.self) / float64(run.total)
	}
	samples, grams := float64(max(d.samples, 1)), float64(max(d.datagrams, 1))
	L["sflow.logreader.ns_per_entry"] = float64(get("sflow.logreader").total) / grams
	L["sflow.parse.ns_per_datagram"] = float64(get("sflow.parse").total) / grams
	L["sflow.samples_per_datagram"] = samples / grams
	L["ixp.process.ns_per_sample"] = float64(get("ixp.process").total) / samples
	L["ixp.process.accept_ratio"] = float64(d.accepted) / samples
	if plain := get("core.observe"); d.plainSamples > 0 {
		L["core.observe.ns_per_sample"] = float64(plain.total) / float64(d.plainSamples)
	}
	L["core.arena.client_days"] = float64(d.stats.ClientDays)
	L["core.names.count"] = float64(d.stats.Names)
	L["server.window.close_ms"] = float64(get("server.window.close").total) / 1e6

	// Window-internal stages, from the window's own accounting: observe
	// self time is what the observe calls took minus what the window
	// spent refreshing, detecting and evicting inside them.
	observe := get("core.observe").total + get("server.window.observe+refresh").total
	var inner time.Duration
	for _, st := range d.stages {
		switch st.Stage {
		case "refresh":
			L["server.window.refresh_s"] = st.Total.Seconds()
			L["server.window.refresh_count"] = float64(st.Count)
			L["server.window.refresh_ms_max"] = float64(st.Max) / 1e6
		case "detect":
			L["server.window.detect_s"] = st.Total.Seconds()
		case "evict":
			L["server.window.evict_s"] = st.Total.Seconds()
			if st.Count > 0 {
				L["core.evict.ms_per_day"] = float64(st.Total) / 1e6 / float64(st.Count)
			}
		}
		inner += st.Total
	}
	// Close runs its refresh, detect and evict outside any observe span.
	L["server.window.observe_self_s"] = max(0, (observe - (inner - d.closeInner)).Seconds())
	L["server.window.refresh_ms_p50"] = percentile(d.refreshMs, 50)

	if err := allocProbes(j, L); err != nil {
		return err
	}
	return dispatchProbes(j, w, cfg, L)
}

// directResult is what one direct-driven pass observed.
type directResult struct {
	wall         time.Duration
	datagrams    int
	samples      int // flow samples attempted
	accepted     int
	plainSamples int // accepted samples in observe calls that neither refreshed nor closed a day
	refreshMs    []float64
	closeInner   time.Duration // refresh+detect+evict time spent inside Close
	stats        server.WindowStats
	stages       []server.StageTiming
	detections   []server.Detection
}

// directDrive pushes a recorded log through a bare server.Window the way
// the service's consumer does, but from the harness's own loop, so each
// layer call can carry a span. Process and Observe run per datagram
// (all of a datagram's samples sanitized, then all observed); the
// window sees the same samples in the same order as the service's.
func directDrive(path string, wcfg server.WindowConfig, tr *tracer) (*directResult, error) {
	lr, f, err := openLog(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	stages := server.NewStages()
	win := server.NewWindow(wcfg, stages)
	cp := win.Capture()

	idRun, idLog, idParse := tr.id("direct.run"), tr.id("sflow.logreader"), tr.id("sflow.parse")
	idProc, idObs, idObsRefresh := tr.id("ixp.process"), tr.id("core.observe"), tr.id("server.window.observe+refresh")
	idClose := tr.id("server.window.close")

	d := &directResult{}
	var (
		raw      []byte
		smps     []ixp.DNSSample
		last     server.WindowStats
		stageSum = func() (sum time.Duration) {
			for _, st := range stages.Snapshot() {
				sum += st.Total
			}
			return sum
		}
	)
	t0 := time.Now()
	root := tr.begin(idRun, -1)
	for {
		sp := tr.begin(idLog, root)
		at, dg, err := lr.NextEntry()
		tr.end(sp)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		// The service's UDP path parses wire bytes; re-encode outside the
		// span so the parser is timed on exactly what it would receive.
		raw = sflow.AppendDatagram(raw[:0], dg)
		sp = tr.begin(idParse, root)
		dg, err = sflow.ParseDatagram(raw)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("re-parsing datagram %d: %w", d.datagrams, err)
		}
		d.datagrams++
		d.samples += len(dg.Samples)

		smps = smps[:0]
		sp = tr.begin(idProc, root)
		for i := range dg.Samples {
			fs := &dg.Samples[i]
			smp, ok := cp.Process(record(at, fs))
			if !ok {
				continue
			}
			if smp.PeerAS == 0 && fs.Input != 0 {
				smp.PeerAS = fs.Input // the replay convention, as in the service's consumer
			}
			smps = append(smps, smp)
		}
		tr.end(sp)

		sp = tr.begin(idObs, root)
		for i := range smps {
			win.Observe(&smps[i])
		}
		tr.end(sp)
		if tr != nil {
			st := win.Stats()
			if st.Refreshes != last.Refreshes || st.ClosedDays != last.ClosedDays {
				tr.rename(sp, idObsRefresh)
				if st.Refreshes == last.Refreshes+1 && st.ClosedDays == last.ClosedDays {
					// One refresh and nothing else: the span is that refresh
					// plus a few samples' microseconds.
					s := tr.spans[sp]
					d.refreshMs = append(d.refreshMs, float64(s.end-s.start)/1e6)
				}
			} else {
				d.plainSamples += len(smps)
			}
			last = st
		}
	}
	before := stageSum()
	sp := tr.begin(idClose, root)
	win.Close()
	tr.end(sp)
	tr.end(root)
	d.wall = time.Since(t0)
	d.closeInner = stageSum() - before
	d.accepted = cp.Stats.Accepted
	d.stats = win.Stats()
	d.stages = stages.Snapshot()
	for _, det := range win.Detections() {
		d.detections = append(d.detections, detectionJSON(det))
	}
	return d, nil
}

// record is the capture point's view of one flow sample, as the
// service's consumer builds it.
func record(at simclock.Time, fs *sflow.FlowSample) sflow.Record {
	return sflow.Record{Time: at, Frame: fs.Header, FrameLen: int(fs.FrameLen), Seq: uint64(fs.Seq)}
}

// allocProbes counts heap allocations per parsed datagram and per
// processed sample over the head of the recording.
func allocProbes(j *job, L map[string]float64) error {
	raws, err := encodeHead(j.Full, 20_000)
	if err != nil || len(raws) == 0 {
		return err
	}
	parsed := make([]*sflow.Datagram, len(raws))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, raw := range raws {
		if parsed[i], err = sflow.ParseDatagram(raw); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	L["sflow.parse.allocs_per_datagram"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(raws))

	cp := server.NewWindow(server.WindowConfig{}, nil).Capture()
	samples := 0
	runtime.ReadMemStats(&m0)
	for _, dg := range parsed {
		for k := range dg.Samples {
			cp.Process(record(simclock.Time(dg.Uptime), &dg.Samples[k]))
		}
		samples += len(dg.Samples)
	}
	runtime.ReadMemStats(&m1)
	L["ixp.process.allocs_per_sample"] = float64(m1.Mallocs-m0.Mallocs) / float64(max(samples, 1))
	return nil
}

// dispatchProbes runs a bare ingest.Scheduler over the workload's
// inputs (and over its first input alone), drained by a loop that does
// nothing, so the rate is the dispatcher's own ceiling.
func dispatchProbes(j *job, w *workload, cfg server.Config, L map[string]float64) error {
	rate, err := dispatchRate(j, w, cfg.Inputs, cfg.Policy)
	if err != nil {
		return err
	}
	L["ingest.dispatch.items_per_s"] = rate
	L["ingest.dispatch.single.items_per_s"] = rate
	if len(cfg.Inputs) > 1 {
		if rate, err = dispatchRate(j, w, cfg.Inputs[:1], ""); err != nil {
			return err
		}
		L["ingest.dispatch.single.items_per_s"] = rate
	}
	return nil
}

func dispatchRate(j *job, w *workload, specs []ingest.Spec, policy string) (float64, error) {
	sched, err := ingest.New(ingest.Config{Specs: specs, Policy: policy, TimeFromUptime: w.udp})
	if err != nil {
		return 0, err
	}
	var drained atomic.Uint64
	var side sideLoad
	t0 := time.Now()
	sched.Start()
	defer sched.Stop()
	if w.udp {
		// A UDP source never ends: feed it the recording with the same
		// in-flight bound, and stop draining at the offered count.
		addr := ""
		for deadline := time.Now().Add(stallAfter); addr == "" && time.Now().Before(deadline); time.Sleep(pollEvery) {
			addr = sched.Snapshot()[0].Addr
		}
		if addr == "" {
			return 0, errors.New("dispatch probe: UDP source never bound")
		}
		t0 = time.Now()
		side.start(func(stop <-chan struct{}) error {
			_, err := sendClosedLoop(addr, j.Full, j.Datagrams, drained.Load, stop)
			return err
		})
	}
	stall := time.NewTimer(time.Minute) // only a guard against a hung source
	defer stall.Stop()
drain:
	for {
		select {
		case _, ok := <-sched.Items():
			if !ok {
				break drain
			}
			if n := drained.Add(1); w.udp && n >= uint64(j.Datagrams) {
				break drain
			}
		case <-stall.C:
			break drain
		}
	}
	wall := time.Since(t0)
	if err := side.stop(); err != nil {
		return 0, err
	}
	return float64(drained.Load()) / wall.Seconds(), nil
}

// openLoopProbe is the extra leg of serve-udp's traced run: a fresh
// service offered the head of the recording at a fixed rate, whatever
// its progress, each datagram timed from when it was due to be sent.
func openLoopProbe(j *job, cfg server.Config, L map[string]float64) error {
	const rate = 20_000 // datagrams per second
	n := min(j.Datagrams, 2*rate)
	interval := time.Second / rate

	svc := server.NewService(cfg)
	if err := svc.Start(); err != nil {
		return err
	}
	defer shutdownService(svc)
	addr, err := udpInputAddr(svc)
	if err != nil {
		return err
	}
	raws, err := encodeHead(j.Full, n)
	if err != nil {
		return err
	}
	n = len(raws)
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	// The generator is one goroutine on a fixed schedule; this one
	// watches the consumed count and stamps each datagram's completion.
	// The generator spins up to each due time: a sleep overshoots by a
	// millisecond or more, and the catch-up burst that follows overruns
	// the input socket's receive buffer.
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	var lateMax atomic.Int64
	var side sideLoad
	side.start(func(stop <-chan struct{}) error {
		time.Sleep(time.Until(start) - time.Millisecond)
		for i, raw := range raws {
			late := time.Since(due(i))
			for ; late < 0; late = time.Since(due(i)) {
				runtime.Gosched()
			}
			if int64(late) > lateMax.Load() {
				lateMax.Store(int64(late))
			}
			if _, err := conn.Write(raw); err != nil {
				return err
			}
		}
		return nil
	})

	lagMs := make([]float64, 0, n)
	done, lastMove := 0, time.Now()
	for done < n {
		c := int(min(svc.Consumed(), uint64(n)))
		now := time.Now()
		for ; done < c; done++ {
			lagMs = append(lagMs, float64(now.Sub(due(done)))/1e6)
			lastMove = now
		}
		if done+int(lost(svc)) >= n || now.Sub(lastMove) > 3*time.Second && now.After(due(n)) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := side.stop(); err != nil {
		return err
	}
	L["server.lag_ms_p50"] = percentile(lagMs, 50)
	L["server.lag_ms_p99"] = percentile(lagMs, 99)
	L["server.loadgen.late_ms_max"] = float64(lateMax.Load()) / 1e6
	L["server.openloop.loss_ratio"] = float64(n-done) / float64(n)
	return nil
}

// encodeHead returns the first n datagrams of a log as wire bytes with
// the capture time in Uptime.
func encodeHead(path string, n int) ([][]byte, error) {
	lr, f, err := openLog(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raws := make([][]byte, 0, n)
	for len(raws) < n {
		at, dg, err := lr.NextEntry()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		dg.Uptime = uint32(at)
		raws = append(raws, sflow.EncodeDatagram(dg))
	}
	return raws, nil
}
