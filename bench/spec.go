package main

import (
	"dnsamp/internal/simclock"
)

// workload is one benchmark input mix. The table below is the
// authoritative list; BENCHMARK.json repeats name and why, and
// bench_test.go holds the two in step.
type workload struct {
	name, why string
	batch     bool // pipeline.Run instead of a server.Service

	// Serve workloads: how many recording days the input covers, how
	// many replay files it is split into, whether it arrives over
	// loopback UDP instead, the name-list refresh cadence, and whether
	// checkpoints and an HTTP scraper run beside the consumer.
	days    int
	parts   int
	udp     bool
	refresh simclock.Duration
	readers bool
}

var workloads = []workload{
	{
		name: "serve-default", days: 2, parts: 1, refresh: 5 * simclock.Minute,
		why: "ixpmon -serve defaults (7-day window, 5-minute refresh) over a replay file: Window.refresh does most of the work, the per-sample path little",
	},
	{
		name: "serve-coarse", days: 10, parts: 1, refresh: simclock.Day,
		why: "same service, refresh only at day close, 10 days through a 7-day window: CapturePoint.Process, Window.Observe and the queue hand-off do the work, refresh under 5%",
	},
	{
		name: "serve-udp", days: 10, parts: 1, udp: true, refresh: simclock.Day,
		why: "same consumer fed over loopback UDP: kernel socket, sflow.ParseDatagram and shed-tier admission instead of LogReader and blocking enqueue",
	},
	{
		name: "serve-multi-mixed", days: 10, parts: 3, refresh: simclock.Day, readers: true,
		why: "three replay files merged by capture time while checkpoints and an HTTP scraper read under the writer's mutex: reader/writer contention and the ingest dispatcher show",
	},
	{
		name: "batch-study", batch: true,
		why: "pipeline.Run on all cores: columnar ObserveBatch, Detect and Collect only, bypassing sflow, ingest and server, so service-only changes must leave it unmoved",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric describes one reported number. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are measured with tracing off, one value per run, folded
// from the run's repetitions (see runWorkload). Every workload reports every one
// of them, in the same unit, so the serve path and the batch study are
// both counted in sampled packets: a flow sample inside a consumed
// datagram on serve-*, a record pass 1 aggregated on batch-study.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_sample", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer come from the separate traced run. A layer the workload
// bypasses reports 0 — that the layer did no work there is the point
// of the bypass workloads.
var perLayer = []metric{
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.direct.overhead_ratio", "ratio", "lower", 0},
	{"trace.direct.unattributed_ratio", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},

	{"sflow.parse.ns_per_datagram", "ns", "lower", 0},
	{"sflow.parse.allocs_per_datagram", "count", "lower", 0},
	{"sflow.logreader.ns_per_entry", "ns", "lower", 0},
	{"sflow.samples_per_datagram", "ratio", "higher", 0},

	{"ixp.process.ns_per_sample", "ns", "lower", 0},
	{"ixp.process.allocs_per_sample", "count", "lower", 0},
	{"ixp.process.accept_ratio", "ratio", "higher", 0},

	{"core.observe.ns_per_sample", "ns", "lower", 0},
	{"core.selectors.ms_per_refresh", "ms", "lower", 0},
	{"core.detect.ms_per_day", "ms", "lower", 0},
	{"core.evict.ms_per_day", "ms", "lower", 0},
	{"core.observe_batch.ns_per_sample", "ns", "lower", 0},
	{"core.arena.client_days", "count", "lower", 0},
	{"core.names.count", "count", "lower", 0},

	{"server.window.observe_self_s", "s", "lower", 0},
	{"server.window.refresh_s", "s", "lower", 0},
	{"server.window.refresh_count", "count", "lower", 0},
	{"server.window.refresh_ms_p50", "ms", "lower", 0},
	{"server.window.refresh_ms_max", "ms", "lower", 0},
	{"server.window.detect_s", "s", "lower", 0},
	{"server.window.evict_s", "s", "lower", 0},
	{"server.window.close_ms", "ms", "lower", 0},
	{"server.datagrams_per_s", "1/s", "higher", 0},
	{"server.cpu_us_per_datagram", "us", "lower", 0},
	{"server.loss_ratio", "ratio", "lower", 0},
	{"server.consumer.busy_share", "ratio", "lower", 0},
	{"server.queue.depth_p50", "count", "lower", 0},
	{"server.queue.depth_max", "count", "lower", 0},
	{"server.shutdown_ms", "ms", "lower", 0},
	{"server.checkpoint.write_ms_p50", "ms", "lower", 0},
	{"server.checkpoint.bytes", "B", "lower", 0},
	{"server.checkpoint.resume_ms", "ms", "lower", 0},
	{"server.http.metrics_ms_p50", "ms", "lower", 0},
	{"server.http.metrics_ms_p95", "ms", "lower", 0},
	{"server.http.detections_ms_p50", "ms", "lower", 0},
	{"server.http.detections_ms_p95", "ms", "lower", 0},
	{"server.http.window_ms_p50", "ms", "lower", 0},
	{"server.http.window_ms_p95", "ms", "lower", 0},
	{"server.lag_ms_p50", "ms", "lower", 0},
	{"server.lag_ms_p99", "ms", "lower", 0},
	{"server.loadgen.late_ms_max", "ms", "lower", 0},
	{"server.openloop.loss_ratio", "ratio", "lower", 0},

	{"ingest.dispatch.items_per_s", "1/s", "higher", 0},
	{"ingest.dispatch.single.items_per_s", "1/s", "higher", 0},
	{"ingest.restarts", "count", "lower", 0},
	{"ingest.parse_errors", "count", "lower", 0},

	{"metrics.write_text.ms", "ms", "lower", 0},
	{"metrics.write_text.bytes", "B", "lower", 0},
	{"metrics.families", "count", "lower", 0},

	{"pipeline.plan_s", "s", "lower", 0},
	{"pipeline.aggregate_s", "s", "lower", 0},
	{"pipeline.select_s", "s", "lower", 0},
	{"pipeline.detect_s", "s", "lower", 0},
	{"pipeline.collect_s", "s", "lower", 0},
	{"pipeline.serial_s", "s", "lower", 0},
	{"pipeline.study_s", "s", "lower", 0},
	{"pipeline.study_cpu_s", "s", "lower", 0},
	{"pipeline.speedup", "ratio", "higher", 0},
	{"pipeline.days_per_s", "1/s", "higher", 0},

	{"ecosystem.campaign_s", "s", "lower", 0},
	{"ecosystem.wireday.ms_per_day", "ms", "lower", 0},
}

// sizes fixes how much work one repetition does. The full sizes keep a
// repetition near half a second to a second on two cores, so a ten-second run
// holds a dozen; smoke sizes exist only to prove the harness end to end
// inside `go test`.
type sizes struct {
	recordScale float64 // ecosystem campaign scale of the sFlow recording
	studyScale  float64 // pipeline.DefaultConfig scale of batch-study
	dayCap      int     // upper bound on recording days (smoke records 2)
	setups      int     // how many times an untraced run sets up; setup_s is the best quartile
}

var (
	fullSizes  = sizes{recordScale: 0.05, studyScale: 0.03, dayCap: 10, setups: 3}
	smokeSizes = sizes{recordScale: 0.02, studyScale: 0.01, dayCap: 2, setups: 1}
)

const (
	proceduralNames = 20_000
	listSize        = 29
	windowDays      = 7

	// udpWindow and udpWindowBytes bound what the closed-loop UDP sender
	// keeps in flight. The count stays below the service's default
	// per-source queue share (256), so nothing is shed; the byte budget
	// stays below half the input socket's default receive buffer
	// (208 KiB), because a datagram of an attack second carries up to 64
	// samples (11 KiB) and a run of those overran the buffer whenever
	// the reader goroutine was descheduled — a loss the service cannot
	// account.
	udpWindow      = 96
	udpWindowBytes = 96 << 10
)
