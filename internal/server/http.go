package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"dnsamp/internal/core"
	"dnsamp/internal/ingest"
	"dnsamp/internal/metrics"
)

// Detection is the JSON form of a core.Detection served by
// /detections: addresses dotted, days dated, timestamps RFC 3339.
type Detection struct {
	Victim           string  `json:"victim"`
	Day              int     `json:"day"`
	Date             string  `json:"date"`
	Packets          int     `json:"packets"`
	CandidatePackets int     `json:"candidatePackets"`
	Share            float64 `json:"share"`
	First            string  `json:"first"`
	Last             string  `json:"last"`
}

func newDetection(d *core.Detection) *Detection {
	return &Detection{
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

// SourcesPayload is the /sources response: per-collector accounting
// rows (one per observed sFlow agent, scoped by input) plus per-input
// supervisor state.
type SourcesPayload struct {
	Collectors []SourceStats            `json:"collectors"`
	Inputs     []ingest.SupervisorStats `json:"inputs"`
}

// stageJSON is the /stages row: durations human-readable, mean
// precomputed.
type stageJSON struct {
	Stage string `json:"stage"`
	Count int64  `json:"count"`
	Total string `json:"total"`
	Mean  string `json:"mean"`
	Max   string `json:"max"`
}

// handler builds the control-surface mux.
func (s *Service) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := s.Health()
		if st == HealthDegraded {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, st)
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		path, err := s.Checkpoint()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]string{"checkpoint": path})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WriteText(w)
	})
	mux.HandleFunc("/detections", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.DetectionsSnapshot())
	})
	mux.HandleFunc("/sources", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, SourcesPayload{
			Collectors: s.SourcesSnapshot(),
			Inputs:     s.InputsSnapshot(),
		})
	})
	mux.HandleFunc("/stages", func(w http.ResponseWriter, r *http.Request) {
		snap := s.StagesSnapshot()
		rows := make([]stageJSON, len(snap))
		for i, st := range snap {
			rows[i] = stageJSON{
				Stage: st.Stage,
				Count: st.Count,
				Total: st.Total.String(),
				Mean:  st.Mean().String(),
				Max:   st.Max.String(),
			}
		}
		writeJSON(w, rows)
	})
	mux.HandleFunc("/window", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.WindowSnapshot())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// registerMetrics wires every exported family. Collectors read live
// service state at scrape time: single counters directly, everything
// that sits behind a service lock — the datagram totals included — from
// the per-render snapshot (s.scrape). The family set and order here is
// what docs/OPERATIONS.md documents.
func (s *Service) registerMetrics() {
	counter := func(name, help string, c metrics.Collector) { s.reg.Register(name, help, metrics.Counter, c) }
	gauge := func(name, help string, c metrics.Collector) { s.reg.Register(name, help, metrics.Gauge, c) }
	total := func(f func(a *Accounting) uint64) metrics.Collector {
		return func(emit metrics.Emit) { emit(float64(f(&s.scrape.acct))) }
	}

	counter("ixpmon_datagrams_received_total", "sFlow datagrams read from the inputs (before parsing), all inputs.", total(func(a *Accounting) uint64 { return a.Received }))
	counter("ixpmon_parse_errors_total", "Datagrams that failed sFlow v5 parsing, all inputs.", total(func(a *Accounting) uint64 { return a.ParseErrors }))
	counter("ixpmon_datagrams_consumed_total", "Datagrams fully drained into the window.", total(func(a *Accounting) uint64 { return a.Consumed }))
	counter("ixpmon_queue_drops_total", "Datagrams shed by per-source backpressure.", total(func(a *Accounting) uint64 { return a.QueueDrops }))

	// Robustness families: overload state machine, global sheds, resume
	// accounting, panic isolation, checkpoints.
	gauge("ixpmon_health_state", "Overload state: 0 ok, 1 recovering, 2 degraded.", func(emit metrics.Emit) {
		emit(float64(s.Health()))
	})
	counter("ixpmon_degraded_total", "Transitions into the degraded state.", func(emit metrics.Emit) {
		emit(float64(s.health.degradations.Load()))
	})
	counter("ixpmon_sampled_out_total", "Datagrams shed by tier-2 global sampling-down (1-in-2 above 3/4 queue).", total(func(a *Accounting) uint64 { return a.SampledOut }))
	counter("ixpmon_shed_all_total", "Datagrams shed by tier-3 detection-only mode (above 7/8 queue).", total(func(a *Accounting) uint64 { return a.ShedAll }))
	counter("ixpmon_replay_skipped_total", "Post-resume datagrams skipped at or below the checkpointed cursor.", total(func(a *Accounting) uint64 { return a.ReplaySkipped }))
	counter("ixpmon_consumer_panics_total", "Consumer panics isolated (datagram quarantined, drain continued); an input's delivery panics count on ixpmon_input_panics_total only.", func(emit metrics.Emit) {
		emit(float64(s.panics.Load()))
	})
	counter("ixpmon_checkpoints_total", "Checkpoints written successfully.", func(emit metrics.Emit) {
		emit(float64(s.ckpts.Load()))
	})
	counter("ixpmon_checkpoint_errors_total", "Checkpoint attempts that failed after retries.", func(emit metrics.Emit) {
		emit(float64(s.ckptErrors.Load()))
	})
	gauge("ixpmon_checkpoint_bytes", "Size of the newest checkpoint file.", func(emit metrics.Emit) {
		emit(float64(s.ckptBytes.Load()))
	})

	// Per-source families share the one source snapshot of the scrape.
	perSource := func(f func(st *SourceStats) float64) metrics.Collector {
		return func(emit metrics.Emit) {
			for i := range s.scrape.sources {
				st := &s.scrape.sources[i]
				emit(f(st), "input", st.Input, "agent", st.Agent, "subagent", fmt.Sprint(st.SubAgent))
			}
		}
	}
	counter("ixpmon_source_datagrams_total", "Datagrams received per collector.", perSource(func(st *SourceStats) float64 { return float64(st.Datagrams) }))
	counter("ixpmon_source_samples_total", "Flow samples received per collector.", perSource(func(st *SourceStats) float64 { return float64(st.Samples) }))
	counter("ixpmon_source_sequence_lost_total", "Datagrams presumed lost in flight (sequence gaps, net of late arrivals).", perSource(func(st *SourceStats) float64 { return float64(st.Lost) }))
	counter("ixpmon_source_out_of_order_total", "Datagrams arriving late, reordered, or duplicated.", perSource(func(st *SourceStats) float64 { return float64(st.OutOfOrder) }))
	counter("ixpmon_source_queue_drops_total", "Datagrams shed because this collector exceeded its queue share.", perSource(func(st *SourceStats) float64 { return float64(st.QueueDrops) }))
	counter("ixpmon_source_replay_skipped_total", "Post-resume datagrams skipped per collector (already consumed before the checkpoint).", perSource(func(st *SourceStats) float64 { return float64(st.ReplaySkipped) }))
	gauge("ixpmon_source_sampling_rate", "Current sampling denominator N (1-in-N) per collector.", perSource(func(st *SourceStats) float64 { return float64(st.Rate) }))
	counter("ixpmon_source_rate_changes_total", "Observed sampling-rate switches per collector.", perSource(func(st *SourceStats) float64 { return float64(st.RateChanges) }))
	gauge("ixpmon_source_agent_drops", "Agent-reported cumulative sample drops (flow-sample drops field).", perSource(func(st *SourceStats) float64 { return float64(st.AgentDrops) }))

	// Per-input supervisor families.
	perInput := func(f func(st *ingest.SupervisorStats) float64) metrics.Collector {
		return func(emit metrics.Emit) {
			for i := range s.scrape.inputs {
				st := &s.scrape.inputs[i]
				emit(f(st), "input", st.ID)
			}
		}
	}
	stateCode := map[string]float64{"starting": 0, "healthy": 1, "backoff": 2, "quarantined": 3, "done": 4, "stopped": 5}
	gauge("ixpmon_input_state", "Supervisor state per input: 0 starting, 1 healthy, 2 backoff, 3 quarantined, 4 done, 5 stopped.", perInput(func(st *ingest.SupervisorStats) float64 { return stateCode[st.State] }))
	counter("ixpmon_input_datagrams_total", "Datagrams read per input (before parsing).", perInput(func(st *ingest.SupervisorStats) float64 { return float64(st.Received) }))
	counter("ixpmon_input_parse_errors_total", "Datagrams that failed parsing per input.", perInput(func(st *ingest.SupervisorStats) float64 { return float64(st.ParseErrors) }))
	counter("ixpmon_input_emitted_total", "Datagrams delivered into the shared window queue per input.", perInput(func(st *ingest.SupervisorStats) float64 { return float64(st.Emitted) }))
	counter("ixpmon_input_restarts_total", "Supervisor restarts per input (failure or stall).", perInput(func(st *ingest.SupervisorStats) float64 { return float64(st.Restarts) }))
	counter("ixpmon_input_stalls_total", "Watchdog-detected stalls per input.", perInput(func(st *ingest.SupervisorStats) float64 { return float64(st.Stalls) }))
	counter("ixpmon_input_panics_total", "Delivery panics contained per input (datagram quarantined).", perInput(func(st *ingest.SupervisorStats) float64 { return float64(st.Panics) }))
	gauge("ixpmon_input_buffered", "Datagrams parked in the input's reorder buffer awaiting the merge policy.", perInput(func(st *ingest.SupervisorStats) float64 { return float64(st.Buffered) }))
	gauge("ixpmon_input_cursor", "Resume cursor of the newest datagram emitted per input (bytes or records; kind-specific).", perInput(func(st *ingest.SupervisorStats) float64 { return float64(st.Cursor) }))

	window := func(f func(ws *WindowStats) float64) metrics.Collector {
		return func(emit metrics.Emit) { emit(f(&s.scrape.window)) }
	}
	gauge("ixpmon_window_current_day", "Day currently accumulating (days since the unix epoch; -1 before data).", window(func(ws *WindowStats) float64 { return float64(ws.CurDay) }))
	gauge("ixpmon_window_client_days", "Client-day profiles held: the open day's, plus stragglers' since the last close.", window(func(ws *WindowStats) float64 { return float64(ws.ClientDays) }))
	gauge("ixpmon_window_arena_cap", "Client-day arena capacity in whole 512-profile chunks: each close keeps its chunks for the next day, so it settles at the largest day's size rounded up to a chunk.", window(func(ws *WindowStats) float64 { return float64(ws.ArenaCap) }))
	gauge("ixpmon_window_names", "DNS names held: those a selector ranking can still reach, plus the ones first seen since the last close.", window(func(ws *WindowStats) float64 { return float64(ws.Names) }))
	counter("ixpmon_window_names_released_total", "Names forgotten at day closes: no ANY packet and a max size below the full max-size ranking's last score.", window(func(ws *WindowStats) float64 { return float64(ws.NamesReleased) }))
	gauge("ixpmon_window_list_names", "Current misused-name list size.", window(func(ws *WindowStats) float64 { return float64(ws.ListNames) }))
	counter("ixpmon_window_refreshes_total", "Name-list refreshes.", window(func(ws *WindowStats) float64 { return float64(ws.Refreshes) }))
	counter("ixpmon_window_closed_days_total", "Day-close detection sweeps.", window(func(ws *WindowStats) float64 { return float64(ws.ClosedDays) }))
	counter("ixpmon_window_evicted_total", "Client-day profiles released at day closes.", window(func(ws *WindowStats) float64 { return float64(ws.Evicted) }))
	counter("ixpmon_window_late_samples_total", "Samples dropped for arriving -window or more days behind the open day.", window(func(ws *WindowStats) float64 { return float64(ws.LateSamples) }))
	counter("ixpmon_window_frames_total", "Sampled frames the window's capture point sanitized, by outcome: accepted, or the drop that removed them.", func(emit metrics.Emit) {
		ws := &s.scrape.window
		emit(float64(ws.Accepted), "outcome", "accepted")
		emit(float64(ws.NonUDP), "outcome", "non_udp")
		emit(float64(ws.NonDNS), "outcome", "non_dns")
		emit(float64(ws.Malformed), "outcome", "malformed")
	})
	counter("ixpmon_detections_total", "Detections emitted (retained plus shed to the cap).", window(func(ws *WindowStats) float64 {
		return float64(uint64(ws.Detections) + ws.DetectionsDropped)
	}))

	counter("ixpmon_stage_seconds_total", "Wall-clock seconds spent per processing stage.", func(emit metrics.Emit) {
		for _, st := range s.scrape.stages {
			emit(st.Total.Seconds(), "stage", st.Stage)
		}
	})
	counter("ixpmon_stage_invocations_total", "Invocations per processing stage; for observe, queue drains of up to 256 datagrams.", func(emit metrics.Emit) {
		for _, st := range s.scrape.stages {
			emit(float64(st.Count), "stage", st.Stage)
		}
	})
	gauge("ixpmon_stage_max_seconds", "Longest single invocation per processing stage; for observe, the longest drain.", func(emit metrics.Emit) {
		for _, st := range s.scrape.stages {
			emit(st.Max.Seconds(), "stage", st.Stage)
		}
	})
}
