package core

import (
	"fmt"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// mkSample builds a minimal sanitized sample whose name is interned in
// tab (the table shared with the consuming aggregator/collector).
func mkSample(tab *names.Table, client byte, day int, name string, qtype dnswire.Type, size int, isResp bool) *ixp.BatchRecord {
	s := &ixp.BatchRecord{
		Time:    simclock.MeasurementStart.Add(simclock.Days(day)).Add(simclock.Hour),
		Name:    tab.Intern(dnswire.CanonicalName(name)),
		QType:   qtype,
		MsgSize: int32(size),
		Resp:    isResp,
	}
	if isResp {
		s.Dst = [4]byte{11, 0, 0, client}
		s.Src = [4]byte{203, 0, 113, 1}
	} else {
		s.Src = [4]byte{11, 0, 0, client}
		s.Dst = [4]byte{203, 0, 113, 1}
	}
	return s
}

func TestAggregatorClientAttribution(t *testing.T) {
	ag := NewAggregator(nil, []string{"doj.gov."})
	// Query from client and response to client attribute to the same
	// (client, day) pair.
	ag.Observe(mkSample(ag.Table, 1, 0, "doj.gov", dnswire.TypeANY, 40, false))
	ag.Observe(mkSample(ag.Table, 1, 0, "doj.gov", dnswire.TypeANY, 4000, true))
	if ag.NumClients() != 1 {
		t.Fatalf("client pairs = %d, want 1", ag.NumClients())
	}
	tracked := trackedCounts(t, ag, "attribution")
	ag.EachClient(func(key ClientDay, ca *ClientAgg) {
		if ca.Total != 2 || tracked[key]["doj.gov."] != 2 {
			t.Errorf("agg = %+v, tracked %v", ca, tracked[key])
		}
		if ca.Bytes != 4040 {
			t.Errorf("bytes = %d", ca.Bytes)
		}
		if ca.ANYPackets != 2 {
			t.Errorf("ANY packets = %d", ca.ANYPackets)
		}
	})
	if ag.NameStatsOf("doj.gov.").MaxSize != 4000 {
		t.Errorf("max size = %d (responses only)", ag.NameStatsOf("doj.gov.").MaxSize)
	}
	if ag.NameStatsOf("doj.gov.").ANYPackets != 2 {
		t.Errorf("ANY count = %d", ag.NameStatsOf("doj.gov.").ANYPackets)
	}
}

func TestAggregatorDaySeparation(t *testing.T) {
	ag := NewAggregator(nil, nil)
	ag.Observe(mkSample(ag.Table, 1, 0, "a.test", dnswire.TypeA, 100, false))
	ag.Observe(mkSample(ag.Table, 1, 1, "a.test", dnswire.TypeA, 100, false))
	if ag.NumClients() != 2 {
		t.Errorf("pairs = %d, want 2 (separate days)", ag.NumClients())
	}
}

func TestSelector1RanksBySize(t *testing.T) {
	ag := NewAggregator(nil, nil)
	ag.Observe(mkSample(ag.Table, 1, 0, "big.test", dnswire.TypeANY, 9000, true))
	ag.Observe(mkSample(ag.Table, 2, 0, "mid.test", dnswire.TypeANY, 5000, true))
	ag.Observe(mkSample(ag.Table, 3, 0, "small.test", dnswire.TypeA, 200, true))
	r := Selector1MaxSize(ag)
	if r.Ranked[0] != "big.test." || r.Ranked[1] != "mid.test." {
		t.Errorf("ranking = %v", r.Ranked)
	}
	top := r.Top(2)
	if len(top) != 2 {
		t.Errorf("Top(2) = %v", top)
	}
	if got := r.Top(100); len(got) != 3 {
		t.Errorf("Top over-length = %v", got)
	}
}

func TestSelector2RanksByANY(t *testing.T) {
	ag := NewAggregator(nil, nil)
	for i := 0; i < 5; i++ {
		ag.Observe(mkSample(ag.Table, 1, 0, "hot.test", dnswire.TypeANY, 100, false))
	}
	ag.Observe(mkSample(ag.Table, 2, 0, "cold.test", dnswire.TypeANY, 100, false))
	ag.Observe(mkSample(ag.Table, 3, 0, "never.test", dnswire.TypeA, 100, false))
	r := Selector2ANYCount(ag)
	if r.Ranked[0] != "hot.test." {
		t.Errorf("ranking = %v", r.Ranked)
	}
	for _, n := range r.Ranked {
		if n == "never.test." {
			t.Error("zero-ANY name should not rank")
		}
	}
}

func TestSelector3GroundTruth(t *testing.T) {
	ag := NewAggregator(nil, []string{"used.test."})
	// Victim 1 under attack on day 0 with "used.test".
	for i := 0; i < 10; i++ {
		ag.Observe(mkSample(ag.Table, 1, 0, "used.test", dnswire.TypeANY, 3000, true))
	}
	// Unrelated victim 2 traffic.
	ag.Observe(mkSample(ag.Table, 2, 0, "other.test", dnswire.TypeA, 100, false))

	gts := []GroundTruthAttack{
		{Victim: [4]byte{11, 0, 0, 1}, Start: simclock.MeasurementStart, End: simclock.MeasurementStart.Add(2 * simclock.Hour)},
		{Victim: [4]byte{11, 0, 0, 99}, Start: simclock.MeasurementStart, End: simclock.MeasurementStart.Add(simclock.Hour)},
	}
	r, visible := Selector3GroundTruth(ag, gts)
	if len(visible) != 1 {
		t.Fatalf("visible = %d, want 1 (victim 99 has no IXP traffic)", len(visible))
	}
	if r.Ranked[0] != "used.test." {
		t.Errorf("ranking = %v", r.Ranked)
	}
}

func TestConsensusPoint(t *testing.T) {
	mk := func(names ...string) SelectorResult { return SelectorResult{Ranked: names} }
	s1 := mk("a", "b", "c", "x")
	s2 := mk("b", "a", "c", "y")
	s3 := mk("c", "b", "a", "z")
	n, curve := ConsensusPoint(4, s1, s2, s3)
	if n != 3 {
		t.Fatalf("consensus at %d, want 3 (curve %v)", n, curve)
	}
	if curve[3] != 1 {
		t.Errorf("curve[3] = %v, want 1", curve[3])
	}
	if curve[4] >= 1 {
		t.Errorf("curve[4] = %v, should drop below 1", curve[4])
	}
}

func TestBuildNameList(t *testing.T) {
	mk := func(names ...string) SelectorResult { return SelectorResult{Ranked: names} }
	s1 := mk("a", "b", "u1")
	s2 := mk("a", "b", "u2")
	nl := BuildNameList(3, s1, s2)
	if len(nl.Names) != 4 {
		t.Fatalf("union = %d, want 4", len(nl.Names))
	}
	if nl.MutualCount() != 2 {
		t.Errorf("mutual = %d, want 2", nl.MutualCount())
	}
	sorted := nl.Sorted()
	if sorted[0] != "a" || sorted[3] != "u2" {
		t.Errorf("sorted = %v", sorted)
	}
}

func TestGovShare(t *testing.T) {
	nl := &NameList{Names: map[string]bool{"a.gov.": true, "b.gov.": true, "c.com.": true, "d.net.": true}}
	if got := nl.GovShare(); got != 0.5 {
		t.Errorf("gov share = %v", got)
	}
}

func TestDetectThresholds(t *testing.T) {
	ag := NewAggregator(nil, []string{"bad.test."})
	cands := map[string]bool{"bad.test.": true}

	// Victim A: 20 packets, all misused -> detected.
	for i := 0; i < 20; i++ {
		ag.Observe(mkSample(ag.Table, 1, 0, "bad.test", dnswire.TypeANY, 4000, true))
	}
	// Victim B: 20 packets, half misused (share 0.5) -> not detected.
	for i := 0; i < 10; i++ {
		ag.Observe(mkSample(ag.Table, 2, 0, "bad.test", dnswire.TypeANY, 4000, true))
		ag.Observe(mkSample(ag.Table, 2, 0, "ok.test", dnswire.TypeA, 100, false))
	}
	// Victim C: 5 packets all misused -> below min packets.
	for i := 0; i < 5; i++ {
		ag.Observe(mkSample(ag.Table, 3, 0, "bad.test", dnswire.TypeANY, 4000, true))
	}
	// Victim D: 19 misused + 1 benign (share 0.95) -> detected.
	for i := 0; i < 19; i++ {
		ag.Observe(mkSample(ag.Table, 4, 0, "bad.test", dnswire.TypeANY, 4000, true))
	}
	ag.Observe(mkSample(ag.Table, 4, 0, "ok.test", dnswire.TypeA, 100, false))

	dets := Detect(ag, cands, DefaultThresholds())
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2: %+v", len(dets), dets)
	}
	victims := map[byte]bool{}
	for _, d := range dets {
		victims[d.Victim[3]] = true
		if d.Share < 0.9 {
			t.Errorf("share = %v", d.Share)
		}
	}
	if !victims[1] || !victims[4] {
		t.Errorf("wrong victims: %v", victims)
	}
}

func TestDetectDeterministicOrder(t *testing.T) {
	ag := NewAggregator(nil, []string{"bad.test."})
	cands := map[string]bool{"bad.test.": true}
	for _, c := range []byte{9, 3, 7} {
		for i := 0; i < 12; i++ {
			ag.Observe(mkSample(ag.Table, c, 0, "bad.test", dnswire.TypeANY, 4000, true))
		}
	}
	d1 := Detect(ag, cands, DefaultThresholds())
	d2 := Detect(ag, cands, DefaultThresholds())
	for i := range d1 {
		if d1[i].Victim != d2[i].Victim {
			t.Fatal("Detect order unstable")
		}
	}
	if d1[0].Victim[3] != 3 {
		t.Errorf("order = %v", d1)
	}
}

func TestCollector(t *testing.T) {
	tab := names.NewTable()
	ag := NewAggregator(tab, []string{"bad.test."})
	cands := map[string]bool{"bad.test.": true}
	var samples []*ixp.BatchRecord
	for i := 0; i < 15; i++ {
		s := mkSample(tab, 1, 0, "bad.test", dnswire.TypeANY, 4000, true)
		s.TXID = uint16(i % 3)
		s.VisibleNS = 1
		samples = append(samples, s)
	}
	// Requests; the batch below carries their ingress member AS.
	for i := 0; i < 5; i++ {
		s := mkSample(tab, 1, 0, "bad.test", dnswire.TypeANY, 40, false)
		s.IPTTL = 250
		samples = append(samples, s)
	}
	for _, s := range samples {
		ag.Observe(s)
	}
	dets := Detect(ag, cands, DefaultThresholds())
	if len(dets) != 1 {
		t.Fatalf("detections = %d", len(dets))
	}
	col := NewCollector(NewCandidates(tab, cands), dets)
	b := &ixp.SampleBatch{Table: tab}
	for _, s := range append(samples, mkSample(tab, 99, 0, "bad.test", dnswire.TypeANY, 4000, true)) { // the last not wanted
		s.Ingress = 777
		b.Append(*s)
	}
	col.ObserveBatch(b, nil)
	col.SetVictimASN(func([4]byte) uint32 { return 42 })
	recs := col.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Packets != 20 || r.Responses != 15 || r.Requests != 5 {
		t.Errorf("counts: %+v", r)
	}
	if len(r.TXIDs) != 3 {
		t.Errorf("TXIDs = %d, want 3", len(r.TXIDs))
	}
	if len(r.Amplifiers) != 1 {
		t.Errorf("amplifiers = %d", len(r.Amplifiers))
	}
	if r.ReqIngress[777] != 5 {
		t.Errorf("ingress = %v", r.ReqIngress)
	}
	if r.ReqTTLs[250] != 5 {
		t.Errorf("TTLs = %v", r.ReqTTLs)
	}
	if r.VictimASN != 42 {
		t.Errorf("victim ASN = %d", r.VictimASN)
	}
	if r.DominantName() != "bad.test." {
		t.Errorf("dominant = %q", r.DominantName())
	}
	if r.Names["bad.test."] != 20 {
		t.Errorf("name counts = %v", r.Names)
	}
	if len(col.VisibleNS) != 15 {
		t.Errorf("visibleNS = %d", len(col.VisibleNS))
	}
	if r.ANYPackets != 20 {
		t.Errorf("ANY = %d", r.ANYPackets)
	}
}

func TestValidateDetection(t *testing.T) {
	ag := NewAggregator(nil, []string{"bad.test."})
	cands := map[string]bool{"bad.test.": true}
	for i := 0; i < 20; i++ {
		ag.Observe(mkSample(ag.Table, 1, 0, "bad.test", dnswire.TypeANY, 4000, true))
	}
	gt := []GroundTruthAttack{{
		Victim: [4]byte{11, 0, 0, 1},
		Start:  simclock.MeasurementStart,
		End:    simclock.MeasurementStart.Add(2 * simclock.Hour),
	}}
	rate := ValidateDetection(ag, gt, cands, DefaultThresholds())
	if rate != 1 {
		t.Errorf("rate = %v, want 1", rate)
	}
	// With an empty candidate list the attack cannot be detected.
	rate = ValidateDetection(ag, gt, map[string]bool{}, DefaultThresholds())
	if rate != 0 {
		t.Errorf("rate without candidates = %v, want 0", rate)
	}
}

func TestVisibilityCurveMonotone(t *testing.T) {
	ag := NewAggregator(nil, []string{"bad.test."})
	cands := map[string]bool{"bad.test.": true}
	var gts []GroundTruthAttack
	for c := byte(1); c <= 20; c++ {
		n := int(c)
		for i := 0; i < n; i++ {
			ag.Observe(mkSample(ag.Table, c, 0, "bad.test", dnswire.TypeANY, 4000, true))
		}
		gts = append(gts, GroundTruthAttack{
			Victim: [4]byte{11, 0, 0, c},
			Start:  simclock.MeasurementStart,
			End:    simclock.MeasurementStart.Add(2 * simclock.Hour),
		})
	}
	pts := VisibilityCurve(ag, gts, cands, 0.9, []int{1, 5, 10, 20})
	for i := 1; i < len(pts); i++ {
		if pts[i].GroundTruthShare > pts[i-1].GroundTruthShare {
			t.Error("ground-truth visibility must be non-increasing")
		}
		if pts[i].Detections > pts[i-1].Detections {
			t.Error("detections must be non-increasing in the threshold")
		}
	}
	if pts[0].GroundTruthShare != 1 {
		t.Errorf("threshold 1 should see all: %v", pts[0].GroundTruthShare)
	}
	// Threshold 10: 11 of 20 victims have >= 10 packets.
	if got := pts[2].GroundTruthShare; got < 0.5 || got > 0.6 {
		t.Errorf("threshold-10 share = %v, want 0.55", got)
	}
}

func TestThresholdsDefault(t *testing.T) {
	th := DefaultThresholds()
	if th.MinShare != 0.90 || th.MinPackets != 10 {
		t.Errorf("defaults = %+v, want paper values (90%%, 10)", th)
	}
}

func TestDetectionDuration(t *testing.T) {
	d := &Detection{First: 100, Last: 400}
	if got := d.Last.Sub(d.First); got != 300 {
		t.Errorf("duration = %v", got)
	}
}

func ExampleDetect() {
	ag := NewAggregator(nil, []string{"doj.gov."})
	id, _ := ag.Table.Lookup("doj.gov.")
	for i := 0; i < 12; i++ {
		s := &ixp.BatchRecord{
			Time: simclock.MeasurementStart, Name: id,
			QType: dnswire.TypeANY, MsgSize: 4000, Resp: true,
			Dst: [4]byte{11, 0, 0, 1}, Src: [4]byte{203, 0, 113, 1},
		}
		ag.Observe(s)
	}
	dets := Detect(ag, map[string]bool{"doj.gov.": true}, DefaultThresholds())
	fmt.Printf("%d attack(s), share %.2f\n", len(dets), dets[0].Share)
	// Output: 1 attack(s), share 1.00
}
