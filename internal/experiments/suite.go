// Package experiments regenerates every table and figure of the paper's
// evaluation from a synthetic campaign. Each experiment returns a
// textual report stating the paper's value next to the measured one, so
// `cmd/experiments` (and EXPERIMENTS.md) can show the reproduction
// side by side. One shared Suite carries the expensive pipeline run.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"dnsamp/internal/analysis"
	"dnsamp/internal/core"
	"dnsamp/internal/openintel"
	"dnsamp/internal/pipeline"
	"dnsamp/internal/resolver"
	"dnsamp/internal/scanner"
	"dnsamp/internal/simclock"
)

// Suite bundles one study run plus the auxiliary feeds.
type Suite struct {
	Scale float64
	Study *pipeline.Study
	Feed  *openintel.Feed
	Scans *scanner.Index

	// MainRecords are pass-2 records within the main window.
	MainRecords []*core.AttackRecord

	entityOnce    sync.Once
	entity        *analysis.EntityResult
	ampOnce       sync.Once
	amp           *analysis.AmplifierEcosystem
	clusterOnce   sync.Once
	cluster       *analysis.ClusteringResult
	potentialOnce sync.Once
	pot           *analysis.PotentialResult
}

// NewSuiteWithConfig runs a suite from an explicit configuration.
func NewSuiteWithConfig(cfg pipeline.Config) *Suite {
	s := &Suite{Scale: cfg.Campaign.Scale}
	s.Study = pipeline.Run(cfg)

	s.Feed = openintel.New(s.Study.Campaign.DB)
	pool := s.Study.Campaign.Pool
	for i := 0; i < pool.Len(); i++ {
		a := pool.Get(i)
		if a.Kind == resolverAuthoritative {
			s.Feed.RegisterNS(a.Addr, fmt.Sprintf("zone-%d.example.", a.ID))
		}
	}
	s.Scans = scanner.Build(scanner.DefaultConfig(), pool, simclock.EntityPeriod())

	for _, r := range s.Study.Records {
		day := simclock.Time(r.Day) * simclock.Time(simclock.Day)
		if simclock.MainPeriod().Contains(day) {
			s.MainRecords = append(s.MainRecords, r)
		}
	}
	return s
}

// Entity lazily computes the §6 analysis (shared by several figures).
func (s *Suite) Entity() *analysis.EntityResult {
	s.entityOnce.Do(func() {
		s.entity = analysis.AnalyzeEntity(s.Study.Records, len(s.Study.Detections), analysis.DefaultFingerprint())
	})
	return s.entity
}

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	Lines []string
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString("  " + l + "\n")
	}
	return b.String()
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// All runs every experiment in order.
func (s *Suite) All() []*Report {
	return []*Report{
		s.Table2(),
		s.Figure3(),
		s.Figure4(),
		s.Figure5(),
		s.Figure6(),
		s.Figure7(),
		s.Figure8a(),
		s.Figure8b(),
		s.Figure9(),
		s.Figure10(),
		s.Figure11(),
		s.Figure12(),
		s.Figure13(),
		s.Figure14(),
		s.Figure15(),
		s.Figure16(),
		s.Figure17(),
		s.Figure18(),
		s.Section5(),
		s.Section6(),
		s.Section7(),
		s.Section8(),
		s.AppendixB(),
		s.FutureWork(),
	}
}

// Run executes the experiments whose IDs contain the given substring
// (case-insensitive); empty matches all.
func (s *Suite) Run(filter string) []*Report {
	all := s.All()
	if filter == "" {
		return all
	}
	f := strings.ToLower(filter)
	var out []*Report
	for _, r := range all {
		if strings.Contains(strings.ToLower(r.ID), f) {
			out = append(out, r)
		}
	}
	return out
}

// --- helpers ---------------------------------------------------------------

// resolverAuthoritative aliases the resolver kind used when registering
// the authoritative population with the measurement feed.
const resolverAuthoritative = resolver.Authoritative

// classOf maps an ASN to its class name for the victim-share summary.
func (s *Suite) classOf(asn uint32) string {
	as, ok := s.Study.Campaign.Topo.ASes[asn]
	if !ok {
		return "unknown"
	}
	return as.Type.String()
}

// sparkline renders a compact series for terminal reports.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// groundTruthEntityShare scores fingerprint attribution against ground
// truth (validation only).
func (s *Suite) groundTruthEntityShare() float64 {
	ent := 0
	byDay := make(map[core.ClientDay]bool)
	for _, ev := range s.Study.Campaign.Events {
		if ev.IsEntity {
			byDay[core.ClientDay{Client: ev.VictimKey(), Day: ev.Day().Day()}] = true
		}
	}
	for _, d := range s.Study.Detections {
		if byDay[core.ClientDay{Client: d.Victim, Day: d.Day}] {
			ent++
		}
	}
	if len(s.Study.Detections) == 0 {
		return 0
	}
	return float64(ent) / float64(len(s.Study.Detections))
}
