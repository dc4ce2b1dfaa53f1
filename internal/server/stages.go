package server

import (
	"sync"
	"time"
)

// Stages accumulates named wall-clock stage timings — the live
// counterpart of the per-stage prints cmd/dnsampdetect emits for the
// batch Runner. The daemon records its processing stages here: parse,
// observe, refresh, detect and evict (idle time is not timed). The
// /stages endpoint and the stage metrics render snapshots, and
// cmd/ixpmon prints one in its exit summary.
//
// Stages is safe for concurrent use.
type Stages struct {
	mu    sync.Mutex
	order []string
	stats map[string]*StageTiming
}

// StageTiming is the accumulated cost of one stage.
type StageTiming struct {
	Stage string        `json:"stage"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total"`
	Max   time.Duration `json:"max"`
}

// Mean returns the average duration per invocation.
func (s StageTiming) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// NewStages returns an empty accumulator.
func NewStages() *Stages {
	return &Stages{stats: make(map[string]*StageTiming)}
}

// Add records one invocation of stage taking d. A nil *Stages records
// nothing, so a holder of optional stages (NewWindow(cfg, nil)) calls
// Add and Track unguarded.
func (st *Stages) Add(stage string, d time.Duration) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats[stage]
	if s == nil {
		s = &StageTiming{Stage: stage}
		st.stats[stage] = s
		st.order = append(st.order, stage)
	}
	s.Count++
	s.Total += d
	if d > s.Max {
		s.Max = d
	}
}

// Track starts timing one invocation of stage and returns the function
// that stops it: `defer st.Track("detect")()`. On a nil *Stages the stop
// records nothing (see Add).
func (st *Stages) Track(stage string) func() {
	t0 := time.Now()
	return func() { st.Add(stage, time.Since(t0)) }
}

// Snapshot returns the accumulated timings in first-seen stage order.
func (st *Stages) Snapshot() []StageTiming {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]StageTiming, 0, len(st.order))
	for _, name := range st.order {
		out = append(out, *st.stats[name])
	}
	return out
}
