package pipeline

import (
	"strings"
	"testing"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// smallConfig keeps the integration run fast (a few seconds).
func smallConfig() Config {
	cfg := DefaultConfig(0.02)
	cfg.Campaign.Zones.ProceduralNames = 50_000
	cfg.Campaign.Topology = topology.Config{Members: 40, ASesPerClass: 80, Seed: 1}
	return cfg
}

var study = Run(smallConfig())

func TestStudyDetectsAttacks(t *testing.T) {
	if len(study.Detections) < 100 {
		t.Fatalf("main-window detections = %d, want hundreds", len(study.Detections))
	}
	if len(study.DetectionsExt) <= len(study.Detections) {
		t.Errorf("extended detections = %d, should exceed main (entity escalation)", len(study.DetectionsExt))
	}
	if len(study.Records) != len(study.Detections)+len(study.DetectionsExt) {
		t.Errorf("records = %d, detections = %d+%d", len(study.Records), len(study.Detections), len(study.DetectionsExt))
	}
}

func TestNameListShape(t *testing.T) {
	nl := study.NameList
	if len(nl.Names) < 25 || len(nl.Names) > 40 {
		t.Errorf("final list = %d names, paper has 34", len(nl.Names))
	}
	if study.ConsensusN < 20 || study.ConsensusN > 40 {
		t.Errorf("consensus N = %d, paper finds 29", study.ConsensusN)
	}
	gov := nl.GovShare()
	if gov < 0.35 || gov > 0.65 {
		t.Errorf("gov share = %.2f, paper 50%%", gov)
	}
	// The consensus curve must peak at the consensus point.
	for n := 1; n < len(study.ConsensusCurve); n++ {
		if study.ConsensusCurve[n] > study.ConsensusCurve[study.ConsensusN] {
			t.Fatalf("curve[%d]=%v exceeds consensus point %d=%v",
				n, study.ConsensusCurve[n], study.ConsensusN, study.ConsensusCurve[study.ConsensusN])
		}
	}
}

func TestSelectorsPickAttackedNames(t *testing.T) {
	attacked := map[string]bool{}
	for _, n := range study.Campaign.DB.AttackedNames() {
		attacked[n] = true
	}
	hits := 0
	for _, n := range study.Sel2.Top(20) {
		if attacked[n] {
			hits++
		}
	}
	if hits < 16 {
		t.Errorf("selector 2 top-20 contains only %d attacked names", hits)
	}
}

func TestDetectionAccuracy(t *testing.T) {
	// Detected (victim, day) pairs must overwhelmingly correspond to
	// ground-truth events.
	truth := map[core.ClientDay]bool{}
	for _, ev := range study.Campaign.Events {
		for d := ev.Start.Day(); d <= ev.End().Day(); d++ {
			truth[core.ClientDay{Client: ev.VictimKey(), Day: d}] = true
		}
	}
	tp := 0
	for _, d := range study.Detections {
		if truth[core.ClientDay{Client: d.Victim, Day: d.Day}] {
			tp++
		}
	}
	precision := float64(tp) / float64(len(study.Detections))
	if precision < 0.97 {
		t.Errorf("precision = %.3f, want ~1 (threshold design)", precision)
	}
}

func TestAttackRecordsCarrySignals(t *testing.T) {
	withTXID, withAmps, withSizes := 0, 0, 0
	for _, r := range study.Records {
		if len(r.TXIDs) > 0 {
			withTXID++
		}
		if len(r.Amplifiers) > 0 {
			withAmps++
		}
		if len(r.Sizes) > 0 {
			withSizes++
		}
	}
	n := len(study.Records)
	if withTXID < n*9/10 {
		t.Errorf("records with TXIDs: %d/%d", withTXID, n)
	}
	if withAmps < n/2 {
		t.Errorf("records with amplifiers: %d/%d", withAmps, n)
	}
	if withSizes < n/2 {
		t.Errorf("records with sizes: %d/%d", withSizes, n)
	}
}

func TestCaptureSanitization(t *testing.T) {
	st := study.CaptureStats
	if st.Accepted == 0 {
		t.Fatal("no samples accepted")
	}
	if st.OriginMapped < st.Accepted*95/100 {
		t.Errorf("origin mapping %d/%d, paper maps 99%%", st.OriginMapped, st.Accepted)
	}
	if st.PeerMapped < st.Accepted*90/100 {
		t.Errorf("peer mapping %d/%d, paper maps 96%%", st.PeerMapped, st.Accepted)
	}
}

func TestHoneypotAndGroundTruth(t *testing.T) {
	if len(study.HoneypotAttacks) < 100 {
		t.Fatalf("honeypot attacks = %d", len(study.HoneypotAttacks))
	}
	visShare := float64(len(study.VisibleGroundTruth)) / float64(len(study.HoneypotAttacks))
	if visShare < 0.05 || visShare > 0.45 {
		t.Errorf("visible ground truth share = %.2f, paper 16%%", visShare)
	}
}

func TestRequestsCarryEntityTTL(t *testing.T) {
	// Post-relocation entity records must show the constant request
	// IP TTL of 250.
	found := false
	for _, r := range study.Records {
		if r.Requests > 5 && r.ReqTTLs[250] > 0 &&
			strings.HasSuffix(r.DominantName(), ".gov.") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no entity record with TTL-250 requests found")
	}
}

func TestAggregateANYDominatedByAttacks(t *testing.T) {
	// §7.2: most ANY traffic belongs to attacks.
	ag := study.AggMain
	if ag.ANYPackets == 0 {
		t.Fatal("no ANY packets")
	}
	atkANY := 0
	for _, d := range study.Detections {
		if ca := ag.ClientOf(core.ClientDay{Client: d.Victim, Day: d.Day}); ca != nil {
			atkANY += ca.ANYPackets
		}
	}
	share := float64(atkANY) / float64(ag.ANYPackets)
	if share < 0.4 {
		t.Errorf("attack share of ANY = %.2f, paper 68%%", share)
	}
}

func TestVisibleNSProfile(t *testing.T) {
	// §4.2: no NXNS — responses carry few NS records.
	if len(study.VisibleNS) == 0 {
		t.Fatal("no NS profile collected")
	}
	le10 := 0
	for _, v := range study.VisibleNS {
		if v <= 10 {
			le10++
		}
	}
	if share := float64(le10) / float64(len(study.VisibleNS)); share < 0.9 {
		t.Errorf("responses with <=10 NS = %.2f, paper 90%%", share)
	}
}

func TestEntityNamesDominantInRecords(t *testing.T) {
	byName := map[string]int{}
	for _, r := range study.Records {
		byName[r.DominantName()]++
	}
	govTotal := 0
	for n, c := range byName {
		if dnswire.TLD(n) == "gov" {
			govTotal += c
		}
	}
	if share := float64(govTotal) / float64(len(study.Records)); share < 0.5 {
		t.Errorf("gov-dominant record share = %.2f (entity + gov attacks dominate)", share)
	}
}

func TestMainWindowBoundary(t *testing.T) {
	for _, d := range study.Detections {
		day := simclock.Time(d.Day) * simclock.Time(simclock.Day)
		if !simclock.MainPeriod().Contains(day) {
			t.Fatalf("main detection outside window: %s", day.Date())
		}
	}
	for _, d := range study.DetectionsExt {
		day := simclock.Time(d.Day) * simclock.Time(simclock.Day)
		if simclock.MainPeriod().Contains(day) {
			t.Fatalf("extended detection inside main window: %s", day.Date())
		}
	}
}
