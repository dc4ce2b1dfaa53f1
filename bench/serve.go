package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"dnsamp/internal/ingest"
	"dnsamp/internal/server"
	"dnsamp/internal/sflow"
)

const (
	pollEvery = time.Millisecond
	// stallAfter ends a repetition whose counters stopped moving: what
	// was offered and never consumed is then counted as lost.
	stallAfter = 10 * time.Second

	// The read side of serve-multi-mixed. A repetition lasts well under
	// a second, so the cadences are short enough that a checkpoint is
	// being encoded under the writer's mutex for a good part of it and
	// a few dozen scrapes land beside it.
	scrapeEvery     = 50 * time.Millisecond
	checkpointEvery = 100 * time.Millisecond
)

var scrapePaths = []string{"/metrics", "/detections", "/window"}

// serviceConfig builds the server.Config of a serve workload. It sets
// only Inputs, Policy, Window, StateDir, CheckpointEvery and
// TimeFromUptime (and Resume for the resume probe) — the surface the
// planned ingest refactor keeps.
func serviceConfig(j *job, w *workload) (server.Config, error) {
	cfg := server.Config{
		Window:         server.WindowConfig{Days: windowDays, ListSize: listSize, Refresh: w.refresh},
		TimeFromUptime: w.udp,
	}
	if w.udp {
		sp, err := ingest.ParseSpec("udp://127.0.0.1:0")
		if err != nil {
			return cfg, err
		}
		cfg.Inputs = []ingest.Spec{sp}
	} else {
		for _, p := range j.Logs {
			sp, err := ingest.ParseSpec("replay:" + p)
			if err != nil {
				return cfg, err
			}
			cfg.Inputs = append(cfg.Inputs, sp)
		}
	}
	if len(cfg.Inputs) > 1 {
		cfg.Policy = ingest.PolicyArrival
	}
	if w.readers {
		cfg.StateDir = j.StateDir
		cfg.CheckpointEvery = checkpointEvery
		if j.Traced {
			// The traced run issues the checkpoints itself, to time them.
			cfg.CheckpointEvery = -1
		}
	}
	return cfg, nil
}

// runServeRep is one repetition of a serve workload: start the service,
// offer it the whole input (closed loop), stop timing when every
// datagram is consumed or accounted lost, shut down outside the timed
// phase, and check what the service reports against the reference.
func runServeRep(j *job, w *workload) (*repResult, error) {
	var want []server.Detection
	if err := readJSONFile(j.RefPath, &want); err != nil {
		return nil, err
	}
	cfg, err := serviceConfig(j, w)
	if err != nil {
		return nil, err
	}
	res := &repResult{Attempted: j.Datagrams, Samples: j.Samples, Layer: map[string]float64{}}
	var tr *tracer
	if j.Traced {
		// Room for the direct-driven pass is reserved later: a large
		// live heap now would make the service's collector run less
		// often than in the untraced repetitions it is compared with.
		tr = newTracer(16)
	}

	svc := server.NewService(cfg)
	u0, t0 := readUsage(), time.Now()
	root := tr.begin(tr.id("server.service.run"), -1)
	if err := svc.Start(); err != nil {
		return nil, err
	}
	var side sideLoad
	if w.udp {
		addr, err := udpInputAddr(svc)
		if err != nil {
			shutdownService(svc)
			return nil, err
		}
		side.start(func(stop <-chan struct{}) error {
			_, err := sendClosedLoop(addr, j.Full, j.Datagrams, svc.Consumed, stop)
			return err
		})
	}
	var rd *readers
	if w.readers {
		rd = newReaders("http://" + svc.HTTPAddr().String())
		side.start(rd.scrape)
		if j.Traced {
			side.start(func(stop <-chan struct{}) error { return rd.checkpoint(svc, stop) })
		}
	}

	var depths []float64
	if j.Traced {
		depths = make([]float64, 0, 1<<16)
	}
	consumed := waitDrained(svc, uint64(j.Datagrams), func() {
		if j.Traced {
			depths = append(depths, float64(svc.Received()-svc.Consumed()))
		}
	})
	tr.end(root)
	wall, u1 := time.Since(t0), readUsage()
	res.WallS, res.CPUS, res.PeakRSSMB = wall.Seconds(), (u1.cpu - u0.cpu).Seconds(), u1.peakRSS
	res.Failed = j.Datagrams - int(consumed)

	if err := side.stop(); err != nil {
		res.fail("side load: %v", err)
	}
	var metricsText bytes.Buffer
	tm := time.Now()
	if err := svc.Registry().WriteText(&metricsText); err != nil {
		res.fail("metrics: %v", err)
	}
	writeTextMs := float64(time.Since(tm)) / 1e6

	sp := tr.begin(tr.id("server.service.shutdown"), -1)
	ts := time.Now()
	if err := shutdownService(svc); err != nil {
		res.fail("shutdown: %v", err)
	}
	shutdownMs := float64(time.Since(ts)) / 1e6
	tr.end(sp)

	checkService(res, svc, want, j, metricsText.String())
	if !j.Traced {
		return res, nil
	}

	// Per-layer numbers of the real service.
	L := res.Layer
	L["server.datagrams_per_s"] = float64(consumed) / wall.Seconds()
	L["server.cpu_us_per_datagram"] = res.CPUS * 1e6 / float64(max(consumed, 1))
	L["server.loss_ratio"] = float64(res.Failed) / float64(j.Datagrams)
	L["server.shutdown_ms"] = shutdownMs
	L["server.queue.depth_p50"] = percentile(depths, 50)
	L["server.queue.depth_max"] = percentile(depths, 100)
	for _, st := range svc.StagesSnapshot() {
		if st.Stage == "observe" {
			L["server.consumer.busy_share"] = st.Total.Seconds() / wall.Seconds()
		}
	}
	for _, in := range svc.InputsSnapshot() {
		L["ingest.restarts"] += float64(in.Restarts)
		L["ingest.parse_errors"] += float64(in.ParseErrors)
	}
	L["metrics.write_text.ms"] = writeTextMs
	L["metrics.write_text.bytes"] = float64(metricsText.Len())
	L["metrics.families"] = float64(strings.Count(metricsText.String(), "# TYPE "))
	if j.UntracedWallS > 0 {
		L["trace.overhead_ratio"] = wall.Seconds() / j.UntracedWallS
	}
	if rd != nil {
		rd.report(L)
		if err := resumeProbe(cfg, L); err != nil {
			// A probe, not a gate: the metric stays 0 and the run goes on.
			fmt.Fprintf(os.Stderr, "bench: %s: resume probe: %v\n", w.name, err)
		}
	}
	if w.udp {
		if err := openLoopProbe(j, cfg, L); err != nil {
			res.fail("open loop: %v", err)
		}
	}
	if err := layerProbes(j, w, cfg, want, tr, res); err != nil {
		return nil, err
	}
	L["trace.spans"] = float64(len(tr.spans))
	if j.TracePath != "" {
		if err := tr.writeFile(j.TracePath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// shutdownService stops a service, giving it half a minute to drain.
func shutdownService(svc *server.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return svc.Shutdown(ctx)
}

// sideLoad runs the goroutines that work beside the service during the
// timed phase (the UDP sender, the scraper, the traced checkpointer)
// and stops them together.
type sideLoad struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

func (s *sideLoad) start(fn func(stop <-chan struct{}) error) {
	if s.stopCh == nil {
		s.stopCh = make(chan struct{})
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := fn(s.stopCh); err != nil {
			s.mu.Lock()
			s.errs = append(s.errs, err)
			s.mu.Unlock()
		}
	}()
}

func (s *sideLoad) stop() error {
	if s.stopCh == nil {
		return nil
	}
	close(s.stopCh)
	s.wg.Wait()
	return errors.Join(s.errs...)
}

// lost sums every way the service can account for a datagram other than
// consuming it.
func lost(svc *server.Service) uint64 {
	n := svc.QueueDrops() + svc.SampledOut() + svc.ShedAll() + svc.ReplaySkipped()
	for _, in := range svc.InputsSnapshot() {
		n += in.ParseErrors + in.Panics
	}
	return n
}

// waitDrained polls until the service has consumed, or accounted as
// lost, everything offered, and returns the consumed count. It gives up
// when no counter has moved for stallAfter (a datagram the kernel
// dropped is never accounted by anyone).
func waitDrained(svc *server.Service, offered uint64, each func()) uint64 {
	lastMove, lastSum := time.Now(), uint64(0)
	for i := 0; ; i++ {
		c := svc.Consumed()
		if c >= offered {
			return c
		}
		each()
		if i%128 == 127 {
			if c+lost(svc) >= offered {
				return c
			}
			if sum := c + svc.Received(); sum != lastSum {
				lastMove, lastSum = time.Now(), sum
			} else if time.Since(lastMove) > stallAfter {
				return c
			}
		}
		time.Sleep(pollEvery)
	}
}

// udpInputAddr waits for the service's UDP input to bind and returns
// its address.
func udpInputAddr(svc *server.Service) (string, error) {
	deadline := time.Now().Add(stallAfter)
	for time.Now().Before(deadline) {
		for _, in := range svc.InputsSnapshot() {
			if in.Addr != "" {
				return in.Addr, nil
			}
		}
		time.Sleep(pollEvery)
	}
	return "", errors.New("UDP input never bound")
}

// sendClosedLoop replays the first limit datagrams of a log over
// loopback UDP from one goroutine, capture time in the Uptime field
// (the server.SendLog convention). It never lets more than udpWindow
// datagrams, nor more than udpWindowBytes of estimated socket-buffer
// memory, be in flight ahead of consumed(): what is sent and not yet
// consumed may all be sitting in the input socket's receive buffer.
func sendClosedLoop(addr, logPath string, limit int, consumed func() uint64, stop <-chan struct{}) (int, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	lr, f, err := openLog(logPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var (
		raw      []byte
		cost     [udpWindow]int // socket-buffer charge of datagram i, at i % udpWindow
		inFlight int            // sum of cost over sent-but-unconsumed datagrams
		retired  uint64         // datagrams whose cost has been released
	)
	for sent := 0; sent < limit; sent++ {
		at, dg, err := lr.NextEntry()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return sent, nil
			}
			return sent, err
		}
		dg.Uptime = uint32(at)
		raw = sflow.AppendDatagram(raw[:0], dg)
		charge := 2*len(raw) + 1024 // the kernel rounds buffers up and adds its own headers
		for {
			for c := consumed(); retired < c; retired++ {
				inFlight -= cost[retired%udpWindow]
			}
			if n := uint64(sent) - retired; n == 0 || n < udpWindow && inFlight+charge <= udpWindowBytes {
				break
			}
			select {
			case <-stop:
				return sent, nil
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
		cost[sent%udpWindow] = charge
		inFlight += charge
		if _, err := conn.Write(raw); err != nil {
			return sent, fmt.Errorf("sending datagram %d: %w", sent, err)
		}
	}
	return limit, nil
}

// readers is the read side of serve-multi-mixed: one scraper on one
// HTTP connection, and in the traced run the checkpointer too, each
// call timed from outside.
type readers struct {
	base   string
	client *http.Client

	mu        sync.Mutex
	scrapeMs  map[string][]float64
	ckptMs    []float64
	ckptBytes int64
}

func newReaders(base string) *readers {
	return &readers{
		base:     base,
		client:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		scrapeMs: make(map[string][]float64),
	}
}

func (r *readers) scrape(stop <-chan struct{}) error {
	defer r.client.CloseIdleConnections()
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for {
		for _, p := range scrapePaths {
			t0 := time.Now()
			resp, err := r.client.Get(r.base + p)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", p, resp.StatusCode)
			}
			ms := float64(time.Since(t0)) / 1e6
			r.mu.Lock()
			r.scrapeMs[p] = append(r.scrapeMs[p], ms)
			r.mu.Unlock()
		}
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
	}
}

func (r *readers) checkpoint(svc *server.Service, stop <-chan struct{}) error {
	tick := time.NewTicker(checkpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		t0 := time.Now()
		path, err := svc.Checkpoint()
		if err != nil {
			return err
		}
		ms := float64(time.Since(t0)) / 1e6
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.ckptMs = append(r.ckptMs, ms)
		r.ckptBytes = fi.Size()
		r.mu.Unlock()
	}
}

func (r *readers) report(L map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range scrapePaths {
		name := "server.http." + strings.TrimPrefix(p, "/") + "_ms"
		L[name+"_p50"] = percentile(r.scrapeMs[p], 50)
		L[name+"_p95"] = percentile(r.scrapeMs[p], 95)
	}
	L["server.checkpoint.write_ms_p50"] = percentile(r.ckptMs, 50)
	L["server.checkpoint.bytes"] = float64(r.ckptBytes)
}

// resumeProbe times a fresh service restoring the shutdown checkpoint
// the repetition just wrote.
func resumeProbe(cfg server.Config, L map[string]float64) error {
	cfg.Resume = true
	cfg.CheckpointEvery = -1
	svc := server.NewService(cfg)
	t0 := time.Now()
	if err := svc.Start(); err != nil {
		return err
	}
	ms := float64(time.Since(t0)) / 1e6
	if err := shutdownService(svc); err != nil {
		return err
	}
	if svc.ResumedFrom() == "" {
		return errors.New("service started cold: no checkpoint restored")
	}
	L["server.checkpoint.resume_ms"] = ms
	return nil
}

// scrapeValue reads one unlabelled sample out of a /metrics exposition.
func scrapeValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// checkService is the correctness gate of a serve repetition: nothing
// lost, detections equal to the reference, the datagram conservation
// equation closed service-wide and per input, and eviction exercised
// when the recording outlasts the window.
func checkService(res *repResult, svc *server.Service, want []server.Detection, j *job, metricsText string) {
	if res.Failed != 0 {
		res.fail("%d of %d datagrams were not consumed (drops %d, sampled out %d, shed %d, replay-skipped %d)",
			res.Failed, j.Datagrams, svc.QueueDrops(), svc.SampledOut(), svc.ShedAll(), svc.ReplaySkipped())
	}
	snap := svc.DetectionsSnapshot()
	got := make([]server.Detection, len(snap))
	for i, d := range snap {
		got[i] = *d
	}
	if !reflect.DeepEqual(got, want) {
		res.fail("detections differ from the reference: service %d, reference %d", len(got), len(want))
	}

	parseErrors, ok := scrapeValue(metricsText, "ixpmon_parse_errors_total")
	if !ok {
		res.fail("ixpmon_parse_errors_total missing from /metrics")
	}
	accounted := uint64(parseErrors) + svc.ReplaySkipped() + svc.SampledOut() + svc.ShedAll() + svc.QueueDrops() + svc.Consumed()
	if svc.Received() != accounted {
		res.fail("conservation: received %d, accounted %d", svc.Received(), accounted)
	}
	for _, in := range svc.InputsSnapshot() {
		if in.Received != in.ParseErrors+in.Panics+in.Emitted {
			res.fail("conservation on %s: received %d != parse errors %d + panics %d + emitted %d",
				in.ID, in.Received, in.ParseErrors, in.Panics, in.Emitted)
		}
	}
	if st := svc.WindowSnapshot(); j.Days > windowDays && st.Evicted == 0 {
		res.fail("a %d-day window over %d days must evict: %+v", windowDays, j.Days, st)
	}
}
