package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"dnsamp/internal/pipeline"
	"dnsamp/internal/topology"
)

var (
	suiteOnce sync.Once
	suite     *Suite
)

// testSuite shares one small study across all experiment tests.
func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		cfg := pipeline.DefaultConfig(0.02)
		cfg.Campaign.Zones.ProceduralNames = 100_000
		cfg.Campaign.Topology = topology.Config{Members: 40, ASesPerClass: 80, Seed: 1}
		suite = NewSuiteWithConfig(cfg)
	})
	return suite
}

func TestAllExperimentsProduceReports(t *testing.T) {
	s := testSuite(t)
	reports := s.Run("")
	if len(reports) != 24 {
		t.Fatalf("reports = %d, want 24 (T2, F3-F18, S5-S8, AppB, FW)", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if r.ID == "" || r.Title == "" {
			t.Errorf("report missing metadata: %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate report id %q", r.ID)
		}
		seen[r.ID] = true
		if len(r.Lines) == 0 {
			t.Errorf("report %s empty", r.ID)
		}
		if !strings.Contains(r.String(), r.ID) {
			t.Errorf("report %s String() malformed", r.ID)
		}
	}
}

// TestRunFilter: a filter is matched against the catalog's IDs, case
// insensitively, before any report is computed.
func TestRunFilter(t *testing.T) {
	if got := Match("Figure8"); !reflect.DeepEqual(got, []string{"figure8a", "figure8b"}) {
		t.Errorf("Match(Figure8) = %v, want figure8a and figure8b", got)
	}
	if got := Match(""); len(got) != len(catalog) {
		t.Errorf("the empty filter matched %d of %d", len(got), len(catalog))
	}
	if got := Match("nonexistent"); len(got) != 0 {
		t.Errorf("a bogus filter matched %v", got)
	}
	if got := testSuite(t).Run("nonexistent"); len(got) != 0 {
		t.Errorf("Run of a bogus filter returned %d reports", len(got))
	}
}

// TestRunMatchesAll: running one experiment by its ID gives exactly its
// report in the full run, so `experiments -run ID` prints the full
// run's section. The singles run first, last to first, so a report
// that leaned on state an earlier one left behind would differ.
func TestRunMatchesAll(t *testing.T) {
	s := testSuite(t)
	single := make([]*Report, len(catalog))
	for i := len(catalog) - 1; i >= 0; i-- {
		got := s.Run(catalog[i].id)
		if len(got) != 1 {
			t.Fatalf("Run(%q) returned %d reports, want 1", catalog[i].id, len(got))
		}
		single[i] = got[0]
	}
	for i, r := range s.Run("") {
		if r.ID != catalog[i].id {
			t.Errorf("report %d carries ID %q, the catalog says %q", i, r.ID, catalog[i].id)
		}
		if !reflect.DeepEqual(single[i], r) {
			t.Errorf("Run(%q) differs from its report in the full run:\n%s\nvs\n%s", catalog[i].id, single[i], r)
		}
	}
}

func TestSection5Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Section5()
	text := r.String()
	if !strings.Contains(text, "mutual") {
		t.Errorf("section 5 report lacks overlap info:\n%s", text)
	}
}

func TestEntityAttributionQuality(t *testing.T) {
	s := testSuite(t)
	ent := s.Entity()
	if ent.ShareOfAttacks < 0.35 || ent.ShareOfAttacks > 0.80 {
		t.Errorf("entity share = %.2f, paper 59%%", ent.ShareOfAttacks)
	}
	if ent.PureParityShare < 0.80 {
		t.Errorf("pure parity = %.2f, paper 91%%", ent.PureParityShare)
	}
	if ent.ParityRhythmScore < 0.85 {
		t.Errorf("rhythm = %.2f, want near 1", ent.ParityRhythmScore)
	}
	if len(ent.Relocations) < 1 || len(ent.Relocations) > 3 {
		t.Errorf("relocations = %d, paper 2", len(ent.Relocations))
	}
	gt := s.groundTruthEntityShare()
	diff := ent.ShareOfAttacks - gt
	if diff < -0.15 || diff > 0.15 {
		t.Errorf("fingerprint share %.2f vs ground truth %.2f", ent.ShareOfAttacks, gt)
	}
}

func TestAmplifierEcosystemShape(t *testing.T) {
	s := testSuite(t)
	eco := s.ampEco()
	if eco.TotalAmplifiers < 100 {
		t.Fatalf("amplifiers = %d", eco.TotalAmplifiers)
	}
	authShare := float64(eco.AuthoritativeCount) / float64(eco.TotalAmplifiers)
	if authShare > 0.08 {
		t.Errorf("authoritative share = %.3f, paper 2%%", authShare)
	}
	if eco.ShodanKnownShare < 0.85 {
		t.Errorf("scanner-known = %.2f, paper 95%%", eco.ShodanKnownShare)
	}
	if eco.MultiAttackShare < 0.3 {
		t.Errorf("multi-attack share = %.2f, paper 50%%", eco.MultiAttackShare)
	}
	if eco.DayOverlapMean < 0.15 || eco.DayOverlapMean > 0.8 {
		t.Errorf("day overlap = %.2f, paper 45%%", eco.DayOverlapMean)
	}
}

func TestPotentialShape(t *testing.T) {
	s := testSuite(t)
	pot := s.potential()
	// The tail maximum grows with the namespace size: at the paper's
	// default (4.4 M names) headroom reaches ~13-14x; the tiny test
	// namespace (100k) can only support a small multiple.
	if pot.Headroom < 1.2 {
		t.Errorf("headroom = %.1f, want > 1 (max estimated must exceed observed)", pot.Headroom)
	}
	if pot.MaxEstimated <= pot.MisusedMax {
		t.Error("namespace maximum should exceed the misused-name maximum")
	}
	if pot.AbovePotential <= 0 {
		t.Error("no names above misused max")
	}
	if pot.AboveEDNS <= pot.AbovePotential {
		t.Error("tail ordering broken")
	}
	shareEDNS := float64(pot.AboveEDNS) / float64(pot.NamesMeasured)
	if shareEDNS < 1e-5 || shareEDNS > 1e-3 {
		t.Errorf(">4096 share = %g, paper 0.02%%", shareEDNS)
	}
}

func TestGovDominatesTable2(t *testing.T) {
	s := testSuite(t)
	r := s.Table2()
	// The first TLD row after the header lines must be gov.
	for _, line := range r.Lines {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "gov" {
			return
		}
		if len(f) == 5 && f[0] != "TLD" && f[0] != "gov" && !strings.Contains(line, "paper") {
			t.Fatalf("top TLD is %q, want gov:\n%s", f[0], r.String())
		}
	}
}
