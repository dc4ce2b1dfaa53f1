package analysis

import (
	"net/netip"
	"slices"
	"testing"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/honeypot"
	"dnsamp/internal/ixp"
	"dnsamp/internal/simclock"
	"dnsamp/internal/zonedb"
)

func det(client byte, day, packets int) *core.Detection {
	return &core.Detection{
		Victim:  [4]byte{11, 0, 0, client},
		Day:     simclock.MeasurementStart.Day() + day,
		Packets: packets,
		First:   simclock.MeasurementStart.Add(simclock.Days(day)),
		Last:    simclock.MeasurementStart.Add(simclock.Days(day)).Add(simclock.Hour),
	}
}

func hpAttack(client byte, day, requests int) *honeypot.Attack {
	start := simclock.MeasurementStart.Add(simclock.Days(day))
	return &honeypot.Attack{
		Victim:   netip.AddrFrom4([4]byte{11, 0, 0, client}),
		Start:    start,
		End:      start.Add(simclock.Hour),
		Requests: requests,
		Sensors:  []int{0, 1},
	}
}

func TestOverlapCounts(t *testing.T) {
	dets := []*core.Detection{det(1, 0, 100), det(2, 0, 50), det(3, 1, 80)}
	hps := []*honeypot.Attack{hpAttack(1, 0, 500), hpAttack(9, 0, 30)}
	ov := Overlap(dets, hps)
	if ov.IXPAttacks != 3 || ov.HoneypotAttacks != 2 {
		t.Fatalf("counts: %+v", ov)
	}
	if ov.Mutual != 1 {
		t.Fatalf("mutual = %d, want 1", ov.Mutual)
	}
	if ov.NewAtIXP != 2 {
		t.Errorf("new = %d, want 2", ov.NewAtIXP)
	}
	if ov.UniqueVictims != 3 {
		t.Errorf("victims = %d", ov.UniqueVictims)
	}
	if ov.MutualShareIXP < 0.3 || ov.MutualShareIXP > 0.34 {
		t.Errorf("IXP share = %v", ov.MutualShareIXP)
	}
	if ov.MutualShareHoneypot != 0.5 {
		t.Errorf("HP share = %v", ov.MutualShareHoneypot)
	}
}

func TestOverlapDeciles(t *testing.T) {
	// 10 IXP attacks with packets 10..100; the mutual one is the
	// largest -> decile 10.
	var dets []*core.Detection
	for i := 1; i <= 10; i++ {
		dets = append(dets, det(byte(i), 0, i*10))
	}
	hps := []*honeypot.Attack{hpAttack(10, 0, 500)}
	ov := Overlap(dets, hps)
	if ov.Mutual != 1 {
		t.Fatal("expected one mutual attack")
	}
	if ov.MeanDecileIXP != 10 {
		t.Errorf("IXP decile = %v, want 10", ov.MeanDecileIXP)
	}
}

func rec(victim byte, day int, name string, txids map[uint16]int, packets int) *core.AttackRecord {
	r := &core.AttackRecord{
		Victim:     [4]byte{11, 0, 0, victim},
		Day:        simclock.MeasurementStart.Day() + day,
		Packets:    packets,
		Names:      map[string]int{name: packets},
		TXIDs:      txids,
		Amplifiers: map[[4]byte]int{{203, 0, 113, victim}: packets},
		ReqIngress: map[uint32]int{},
		ReqTTLs:    map[uint8]int{},
		First:      simclock.MeasurementStart.Add(simclock.Days(day)),
		Last:       simclock.MeasurementStart.Add(simclock.Days(day)).Add(simclock.Hour),
	}
	return r
}

func evenIDs(n, count int) map[uint16]int {
	out := make(map[uint16]int)
	for i := 0; i < n; i++ {
		out[uint16(2*i)] = count / n
	}
	return out
}

func oddIDs(n, count int) map[uint16]int {
	out := make(map[uint16]int)
	for i := 0; i < n; i++ {
		out[uint16(2*i+1)] = count / n
	}
	return out
}

func TestProfileTXIDs(t *testing.T) {
	r := rec(1, 0, "doj.gov.", evenIDs(2, 100), 100)
	p := ProfileTXIDs(r)
	if !p.Pure || p.DominantParity != 0 {
		t.Errorf("profile = %+v", p)
	}
	r = rec(1, 0, "doj.gov.", map[uint16]int{2: 50, 3: 50}, 100)
	p = ProfileTXIDs(r)
	if p.Pure {
		t.Error("50/50 parity should not be pure")
	}
	if !p.TwoPhase {
		t.Error("50/50 should look two-phase")
	}
}

func TestMatchEntity(t *testing.T) {
	// Entity-like: .gov name, 2 even TXIDs across 100 packets.
	if !MatchEntity(rec(1, 0, "doj.gov.", evenIDs(2, 100), 100)) {
		t.Error("entity record rejected")
	}
	// Wrong TLD.
	if MatchEntity(rec(1, 0, "nic.cz.", evenIDs(2, 100), 100)) {
		t.Error("non-gov record accepted")
	}
	// High TXID entropy: 100 ids across 100 packets.
	if MatchEntity(rec(1, 0, "doj.gov.", evenIDs(80, 100), 100)) {
		t.Error("high-entropy record accepted")
	}
	// Too small.
	if MatchEntity(rec(1, 0, "doj.gov.", evenIDs(1, 5), 5)) {
		t.Error("tiny record accepted")
	}
}

func TestAnalyzeEntityRhythmAndSeries(t *testing.T) {
	var records []*core.AttackRecord
	// 20 days of entity attacks alternating parity every 48h; name
	// switches after day 9.
	day0 := simclock.MeasurementStart.Day()
	for d := 0; d < 20; d++ {
		name := "bja.gov."
		if d >= 10 {
			name = "cybercrime.gov."
		}
		parity := (day0 + d) / 2 % 2
		ids := evenIDs(3, 90)
		if parity == 1 {
			ids = oddIDs(3, 90)
		}
		for v := byte(0); v < 3; v++ {
			records = append(records, rec(v+byte(20*d), d, name, ids, 90))
		}
	}
	res := AnalyzeEntity(records, len(records))
	if len(res.Records) != len(records) {
		t.Fatalf("matched %d of %d", len(res.Records), len(records))
	}
	if res.PureParityShare != 1 {
		t.Errorf("pure share = %v", res.PureParityShare)
	}
	if res.ParityRhythmScore != 1 {
		t.Errorf("rhythm score = %v, want 1 (clean alternation)", res.ParityRhythmScore)
	}
	if len(res.Transitions) != 1 {
		t.Errorf("transitions = %d, want 1", len(res.Transitions))
	}
	if len(res.VictimSeries) != 20 {
		t.Errorf("victim days = %d", len(res.VictimSeries))
	}
	if res.VictimSeries[0].IPs != 3 {
		t.Errorf("victims day0 = %d", res.VictimSeries[0].IPs)
	}
	// Fig. 12: all amplifiers new on day 0, none new when repeated.
	if res.AmplifierSeries[0].New == 0 {
		t.Error("day-0 amplifiers should be new")
	}
}

func TestAnalyzeRelocations(t *testing.T) {
	var records []*core.AttackRecord
	for d := 0; d < 30; d++ {
		r := rec(byte(d), d, "doj.gov.", evenIDs(2, 100), 100)
		switch {
		case d < 10: // phase 0: responses only
			r.Requests = 0
			r.Responses = 100
		case d < 20: // phase 1: ingress AS 500
			r.Requests = 85
			r.Responses = 15
			r.ReqIngress = map[uint32]int{500: 85}
		default: // phase 2: ingress AS 600
			r.Requests = 85
			r.Responses = 15
			r.ReqIngress = map[uint32]int{600: 85}
		}
		records = append(records, r)
	}
	res := AnalyzeEntity(records, len(records))
	if len(res.Relocations) != 2 {
		t.Fatalf("relocations = %d, want 2: %+v", len(res.Relocations), res.Relocations)
	}
	if res.Relocations[0].ToAS != 500 || res.Relocations[1].ToAS != 600 {
		t.Errorf("relocation targets: %+v", res.Relocations)
	}
	if res.RequestShareByPhase[0] > 0.1 {
		t.Errorf("phase-0 request share = %v", res.RequestShareByPhase[0])
	}
	if res.RequestShareByPhase[1] < 0.7 {
		t.Errorf("phase-1 request share = %v", res.RequestShareByPhase[1])
	}
}

func TestTable2(t *testing.T) {
	records := []*core.AttackRecord{
		rec(1, 0, "doj.gov.", evenIDs(2, 100), 100),
		rec(2, 0, "doj.gov.", evenIDs(2, 50), 50),
		rec(3, 0, "nic.cz.", evenIDs(2, 30), 30),
	}
	records[0].Sizes = []int{6000}
	cands := map[string]bool{"doj.gov.": true, "nic.cz.": true}
	rows := Table2(records, cands)
	if len(rows) < 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].TLD != "gov" || rows[0].Attacks != 2 {
		t.Errorf("top row = %+v", rows[0])
	}
	if rows[0].MaxSize != 6000 {
		t.Errorf("max size = %d", rows[0].MaxSize)
	}
	var total float64
	for _, r := range rows {
		total += r.PacketShare
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("packet shares sum to %v", total)
	}
}

// TestTable2TieOrder pins the row order: attacks descending, then TLD
// ascending, whatever order the per-TLD map hands the rows over in.
func TestTable2TieOrder(t *testing.T) {
	records := []*core.AttackRecord{
		rec(1, 0, "doj.gov.", evenIDs(2, 100), 100),
		rec(2, 0, "doj.gov.", evenIDs(2, 50), 50),
		rec(3, 0, "nic.cz.", evenIDs(2, 30), 30),
		rec(4, 0, "nask.pl.", evenIDs(2, 30), 30),
		rec(5, 0, "denic.de.", evenIDs(2, 30), 30),
		rec(6, 0, "isc.org.", evenIDs(2, 30), 30),
	}
	cands := map[string]bool{"doj.gov.": true, "nic.cz.": true, "nask.pl.": true, "denic.de.": true, "isc.org.": true}
	want := []string{"gov", "cz", "de", "org", "pl"}
	for range 20 {
		var got []string
		for _, r := range Table2(records, cands) {
			got = append(got, r.TLD)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("row order %v, want %v", got, want)
		}
	}
}

func TestClusterAmplifierSets(t *testing.T) {
	mkRec := func(victim byte, day int, amps ...byte) *core.AttackRecord {
		r := rec(victim, day, "nask.pl.", evenIDs(2, 50), 50)
		r.Amplifiers = map[[4]byte]int{}
		for _, a := range amps {
			r.Amplifiers[[4]byte{203, 0, 113, a}] = 5
		}
		return r
	}
	var records []*core.AttackRecord
	// Static cluster: 8 attacks with identical 6-amp set.
	for i := 0; i < 8; i++ {
		records = append(records, mkRec(byte(i), i, 1, 2, 3, 4, 5, 6))
	}
	// Noise: disjoint sets.
	for i := 0; i < 20; i++ {
		records = append(records, mkRec(byte(100+i), i, byte(50+3*i), byte(51+3*i), byte(52+3*i), byte(150+3*i), byte(151+3*i)))
	}
	res := ClusterAmplifierSets(records, 0.35, 4, 0)
	if res.Clusters != 1 {
		t.Fatalf("clusters = %d, want 1", res.Clusters)
	}
	if res.MostStatic.Attacks != 8 {
		t.Errorf("static cluster size = %d", res.MostStatic.Attacks)
	}
	if res.MostStatic.MeanIntraDistance != 0 {
		t.Errorf("static cluster distance = %v, want 0", res.MostStatic.MeanIntraDistance)
	}
	if res.NoiseShare < 0.6 {
		t.Errorf("noise share = %v", res.NoiseShare)
	}
	if res.FixedListShare <= 0 || res.FixedListShare > 0.4 {
		t.Errorf("fixed share = %v", res.FixedListShare)
	}
}

func TestClusterEmbedding(t *testing.T) {
	var records []*core.AttackRecord
	for i := 0; i < 12; i++ {
		r := rec(byte(i), i, "nask.pl.", evenIDs(2, 50), 50)
		r.Amplifiers = map[[4]byte]int{
			{203, 0, 113, byte(i)}: 5, {203, 0, 113, byte(i + 1)}: 5,
		}
		records = append(records, r)
	}
	res := ClusterAmplifierSets(records, 0.35, 4, 10)
	if len(res.Embedding) == 0 || len(res.Embedding) > 10 {
		t.Errorf("embedding size = %d", len(res.Embedding))
	}
	if len(res.EmbeddingLabels) != len(res.Embedding) {
		t.Error("labels misaligned")
	}
}

func TestComputeTrafficShares(t *testing.T) {
	ag := core.NewAggregator(nil, []string{"bad.test."})
	// Construct via public Observe path is exercised in core tests;
	// here we drive the share math directly through detections.
	// Simulate one attacked client and background by hand.
	// (Uses the core test helper pattern inline.)
	mk := func(client byte, name string, size int, any bool) {
		s := mkIxpSample(client, size, any)
		s.Name = ag.Table.Intern(name)
		ag.Observe(s)
	}
	for i := 0; i < 10; i++ {
		mk(1, "bad.test.", 4000, true)
	}
	for i := 0; i < 90; i++ {
		mk(2, "ok.test.", 100, false)
	}
	dets := core.Detect(ag, map[string]bool{"bad.test.": true}, core.DefaultThresholds())
	if len(dets) != 1 {
		t.Fatalf("detections = %d", len(dets))
	}
	sh := ComputeTrafficShares(ag, dets)
	if sh.AttackPacketShare != 0.1 {
		t.Errorf("packet share = %v, want 0.1", sh.AttackPacketShare)
	}
	want := 40000.0 / 49000.0
	if sh.AttackByteShare < want-0.01 || sh.AttackByteShare > want+0.01 {
		t.Errorf("byte share = %v, want %.2f", sh.AttackByteShare, want)
	}
	if sh.ANYAttackPacketShare != 1 {
		t.Errorf("ANY attack share = %v, want 1 (all ANY is attack here)", sh.ANYAttackPacketShare)
	}
}

func TestAnalyzeNXNS(t *testing.T) {
	nx := AnalyzeNXNS([]int{0, 0, 1, 1, 1, 2, 5, 11, 40, 1})
	if nx.AtMost1Share != 0.6 {
		t.Errorf("<=1 share = %v", nx.AtMost1Share)
	}
	if nx.AtMost10Share != 0.8 {
		t.Errorf("<=10 share = %v", nx.AtMost10Share)
	}
	empty := AnalyzeNXNS(nil)
	if empty.AtMost1Share != 0 {
		t.Error("empty input")
	}
}

func TestSnoopStudyAnchorsAndMisused(t *testing.T) {
	db := zonedb.New(zonedb.Config{ProceduralNames: 5_000})
	cfg := DefaultSnoopConfig()
	cfg.Resolvers = 300
	cfg.Forwarders = 300
	st := RunSnoopStudy(cfg, db, db.AttackedNames(), simclock.MeasurementEnd)
	if st.ResolversFound != 300 || st.ForwardersExcluded != 300 {
		t.Fatalf("phase 1: %d resolvers, %d forwarders", st.ResolversFound, st.ForwardersExcluded)
	}
	var anchorMax, misusedMin, popMax float64
	misusedMin = 1
	for _, r := range st.Results {
		switch {
		case r.Anchor:
			if r.HitRate() > anchorMax {
				anchorMax = r.HitRate()
			}
		case r.Misused && r.AlexaRank == 0:
			if r.HitRate() < misusedMin {
				misusedMin = r.HitRate()
			}
		case !r.Misused && r.AlexaRank > 100_000:
			if r.HitRate() > popMax {
				popMax = r.HitRate()
			}
		}
	}
	if anchorMax > 0.10 {
		t.Errorf("anchor hit rate = %v, want near error rate", anchorMax)
	}
	if misusedMin < 0.5 {
		t.Errorf("misused hit rate = %v, want high despite no rank", misusedMin)
	}
	if misusedMin <= popMax {
		t.Errorf("misused (%v) should out-hit low-popularity benign names (%v)", misusedMin, popMax)
	}
}

func TestAttackDurations(t *testing.T) {
	var records []*core.AttackRecord
	for i := 1; i <= 4; i++ {
		r := rec(byte(i), 0, "doj.gov.", evenIDs(2, 50), 50)
		r.Last = r.First.Add(simclock.Duration(i) * 10 * simclock.Minute)
		records = append(records, r)
	}
	q := AttackDurations(records)
	if q.Q25 >= q.Q50 || q.Q50 > q.Q75 {
		t.Errorf("quartiles not ordered: %+v", q)
	}
}

// mkIxpSample builds a minimal sample for share tests.
func mkIxpSample(client byte, size int, any bool) *ixp.BatchRecord {
	s := &ixp.BatchRecord{
		Time:    simclock.MeasurementStart.Add(simclock.Hour),
		MsgSize: int32(size),
		Resp:    true,
		Dst:     [4]byte{11, 0, 0, client},
		Src:     [4]byte{203, 0, 113, 1},
		QType:   dnswire.TypeA,
	}
	if any {
		s.QType = dnswire.TypeANY
	}
	return s
}
