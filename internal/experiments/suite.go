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
	s.Scans = scanner.Build(pool, simclock.EntityPeriod())

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
		s.entity = analysis.AnalyzeEntity(s.Study.Records, len(s.Study.Detections))
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

// catalog is every experiment in output order, under the ID its report
// carries: a filter is matched here, before anything is computed.
var catalog = []struct {
	id  string
	run func(*Suite) *Report
}{
	{"table2", (*Suite).Table2},
	{"figure3", (*Suite).Figure3},
	{"figure4", (*Suite).Figure4},
	{"figure5", (*Suite).Figure5},
	{"figure6", (*Suite).Figure6},
	{"figure7", (*Suite).Figure7},
	{"figure8a", (*Suite).Figure8a},
	{"figure8b", (*Suite).Figure8b},
	{"figure9", (*Suite).Figure9},
	{"figure10", (*Suite).Figure10},
	{"figure11", (*Suite).Figure11},
	{"figure12", (*Suite).Figure12},
	{"figure13", (*Suite).Figure13},
	{"figure14", (*Suite).Figure14},
	{"figure15", (*Suite).Figure15},
	{"figure16", (*Suite).Figure16},
	{"figure17", (*Suite).Figure17},
	{"figure18", (*Suite).Figure18},
	{"section5", (*Suite).Section5},
	{"section6", (*Suite).Section6},
	{"section7", (*Suite).Section7},
	{"section8", (*Suite).Section8},
	{"appendixB", (*Suite).AppendixB},
	{"futurework", (*Suite).FutureWork},
}

// Match returns, in output order, the IDs of the experiments whose IDs
// contain filter (case-insensitive); empty matches all. It needs no
// suite, so a filter that matches nothing is refused before the study
// runs.
func Match(filter string) []string {
	var ids []string
	for _, e := range catalog {
		if matches(e.id, filter) {
			ids = append(ids, e.id)
		}
	}
	return ids
}

func matches(id, filter string) bool {
	return strings.Contains(strings.ToLower(id), strings.ToLower(filter))
}

// Run executes the experiments Match(filter) names, and only those, in
// order; the empty filter runs every one.
func (s *Suite) Run(filter string) []*Report {
	var out []*Report
	for _, e := range catalog {
		if matches(e.id, filter) {
			out = append(out, e.run(s))
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
