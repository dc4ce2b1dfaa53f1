package zonedb

import (
	"strings"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
)

func smallDB() *DB { return New(Config{ProceduralNames: 50_000}) }

func TestCandidateCounts(t *testing.T) {
	db := smallDB()
	if got := len(db.MisusedCandidates()); got != 34 {
		t.Errorf("misused candidates = %d, want 34 (paper's final list)", got)
	}
	if got := len(db.AttackedNames()); got != 32 {
		t.Errorf("attacked names = %d, want 32 (94%% of 34)", got)
	}
	if got := len(db.EntityNames()); got != 10 {
		t.Errorf("entity names = %d, want 10", got)
	}
}

func TestEntityNamesSortedAndGov(t *testing.T) {
	db := smallDB()
	names := db.EntityNames()
	for i, n := range names {
		if !strings.HasSuffix(n, ".gov.") {
			t.Errorf("entity name %q not .gov", n)
		}
		if i > 0 && names[i-1] >= n {
			t.Errorf("entity rotation not lexicographic at %q", n)
		}
	}
}

func TestGovTLDCount(t *testing.T) {
	db := smallDB()
	gov := 0
	for _, n := range db.AttackedNames() {
		if dnswire.TLD(n) == "gov" {
			gov++
		}
	}
	if gov != 17 {
		t.Errorf(".gov attacked names = %d, want 17 (Table 2)", gov)
	}
}

func TestEveryCandidateHasZone(t *testing.T) {
	db := smallDB()
	for _, n := range db.MisusedCandidates() {
		if _, ok := db.Zone(n); !ok {
			t.Errorf("candidate %q has no zone", n)
		}
	}
}

func TestEntityANYSizesPlateau(t *testing.T) {
	db := smallDB()
	for _, n := range db.EntityNames() {
		z, _ := db.Zone(n)
		if z.Signer == nil {
			t.Fatalf("%q unsigned", n)
		}
		var base, peak = 1 << 30, 0
		for d := 0; d < 335; d++ {
			s := db.ANYSize(n, simclock.MeasurementStart.Add(simclock.Days(d)))
			if s < base {
				base = s
			}
			if s > peak {
				peak = s
			}
		}
		if peak-base < 2000 {
			t.Errorf("%q: rollover delta = %d, want >= 2000", n, peak-base)
		}
		if base > 4200 {
			t.Errorf("%q: base size %d too far above EDNS limit", n, base)
		}
		if peak < dnswire.RecommendedEDNSLimit {
			t.Errorf("%q: peak %d below EDNS limit — never attractive", n, peak)
		}
	}
}

func TestRolloverPlateauLastsTwoWeeks(t *testing.T) {
	db := smallDB()
	n := db.EntityNames()[0]
	// Find a plateau and measure its length.
	var sizes []int
	for d := 0; d < 200; d++ {
		sizes = append(sizes, db.ANYSize(n, simclock.MeasurementStart.Add(simclock.Days(d))))
	}
	peak := 0
	for _, s := range sizes {
		if s > peak {
			peak = s
		}
	}
	// Longest run at peak level.
	run, best := 0, 0
	for _, s := range sizes {
		if s == peak {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	if best != 14 {
		t.Errorf("plateau length = %d days, want 14", best)
	}
}

func TestTable2MaxSizes(t *testing.T) {
	db := smallDB()
	cases := []struct {
		name   string
		target int
	}{
		{"bigcorp.com", 10270},
		{"dnssec.be", 8199},
		{"amp.co.za", 5155},
		{"nic.cz", 5881},
		{"iis.se", 5535},
	}
	for _, c := range cases {
		got := db.ANYSize(c.name, simclock.MeasurementStart)
		if got < c.target-300 || got > c.target+300 {
			t.Errorf("%s ANY = %d, want ~%d", c.name, got, c.target)
		}
	}
}

func TestANYVsTypedSize(t *testing.T) {
	db := smallDB()
	tm := simclock.MeasurementStart
	anySize := db.ResponseSize("doj.gov", dnswire.TypeANY, tm)
	aSize := db.ResponseSize("doj.gov", dnswire.TypeA, tm)
	if anySize <= aSize {
		t.Errorf("ANY (%d) should exceed A (%d)", anySize, aSize)
	}
	if aSize < 50 {
		t.Errorf("A response implausibly small: %d", aSize)
	}
}

func TestRFC8482MinimalANY(t *testing.T) {
	db := smallDB()
	z, ok := db.Zone("facebook.com")
	if !ok {
		t.Fatal("facebook.com missing")
	}
	if z.AllowANY {
		t.Fatal("popular zone should restrict ANY")
	}
	got := db.ResponseSize("facebook.com", dnswire.TypeANY, simclock.MeasurementStart)
	if got > 200 {
		t.Errorf("minimal ANY = %d, want small", got)
	}
}

func TestProceduralDeterminism(t *testing.T) {
	db := smallDB()
	tm := simclock.MeasurementStart
	for i := 0; i < 100; i++ {
		n := db.ProceduralName(i)
		if db.ANYSize(n, tm) != db.ANYSize(n, tm.Add(simclock.Days(30))) {
			t.Fatalf("procedural size of %q not time-invariant", n)
		}
	}
	if db.ProceduralName(5) == db.ProceduralName(6) {
		t.Error("procedural names collide")
	}
}

func TestProceduralTailCalibration(t *testing.T) {
	db := New(Config{ProceduralNames: 1_000_000})
	over4096, over10270 := 0, 0
	tm := simclock.MeasurementStart
	// Sample every 7th name for speed: 142k names.
	n := 0
	for i := 0; i < db.NumProceduralNames(); i += 7 {
		s := db.ANYSize(db.ProceduralName(i), tm)
		if s > 4096 {
			over4096++
		}
		if s > 10270 {
			over10270++
		}
		n++
	}
	// Expected: 2.1e-4 and 2.06e-5 of n. Allow generous slack (it is a
	// hash-driven sample).
	e4096 := 2.1e-4 * float64(n)
	if float64(over4096) < e4096/3 || float64(over4096) > e4096*3 {
		t.Errorf(">4096 count = %d, expected ~%.0f", over4096, e4096)
	}
	if over10270 == 0 {
		t.Error("no names above the misused max — tail missing")
	}
	if over10270 >= over4096 {
		t.Error("tail ordering broken")
	}
}

func TestBuildANYResponseEncodes(t *testing.T) {
	db := smallDB()
	z, _ := db.Zone("doj.gov")
	q := dnswire.NewQuery(42, "doj.gov", dnswire.TypeANY, 4096)
	tm := simclock.MeasurementStart
	resp := z.BuildANYResponse(q, tm)
	wire := dnswire.Encode(resp)
	// The materialized response should be within ~15% of the estimate
	// (compression makes the wire form smaller than the sum of
	// uncompressed record lengths).
	est := db.ANYSize("doj.gov", tm)
	if len(wire) > est || float64(len(wire)) < 0.75*float64(est) {
		t.Errorf("wire %d vs estimate %d", len(wire), est)
	}
	res, err := dnswire.Parse(wire)
	if err != nil || !res.Complete {
		t.Fatalf("parse: %v", err)
	}
	if res.Msg.Header.ID != 42 || !res.Msg.Header.QR {
		t.Error("response header wrong")
	}
	hasDNSKEY, hasRRSIG := false, false
	for _, rr := range res.Msg.Answers {
		switch rr.Type {
		case dnswire.TypeDNSKEY:
			hasDNSKEY = true
		case dnswire.TypeRRSIG:
			hasRRSIG = true
		}
	}
	if !hasDNSKEY || !hasRRSIG {
		t.Error("signed ANY response missing DNSSEC records")
	}
}

func TestRootZone(t *testing.T) {
	db := smallDB()
	z, ok := db.Zone(".")
	if !ok {
		t.Fatal("root zone missing")
	}
	if len(z.RRsets[dnswire.TypeNS]) != 13 {
		t.Errorf("root NS count = %d, want 13", len(z.RRsets[dnswire.TypeNS]))
	}
	size := db.ANYSize(".", simclock.MeasurementStart)
	if size < 3500 || size > 4600 {
		t.Errorf("root ANY = %d, want ~4098 (Table 2)", size)
	}
}

func TestPopularityRanks(t *testing.T) {
	db := smallDB()
	fb, _ := db.Zone("facebook.com")
	if fb.PopularityRank != 7 {
		t.Errorf("facebook rank = %d", fb.PopularityRank)
	}
	pc, _ := db.Zone("peacecorps.gov")
	if pc.PopularityRank != 191_000 {
		t.Errorf("peacecorps rank = %d", pc.PopularityRank)
	}
	// peacecorps.gov is both misused and ranked — must stay AllowANY.
	if !pc.AllowANY {
		t.Error("peacecorps.gov lost AllowANY when ranked")
	}
}

func TestNSAddrsAssigned(t *testing.T) {
	db := smallDB()
	for _, n := range db.MisusedCandidates() {
		z, _ := db.Zone(n)
		if len(z.NSAddrs) != 2 {
			t.Errorf("%q NSAddrs = %d", n, len(z.NSAddrs))
		}
	}
}

func TestExplicitNamesSorted(t *testing.T) {
	db := smallDB()
	names := db.ExplicitNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("ExplicitNames not sorted")
		}
	}
}
