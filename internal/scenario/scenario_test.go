package scenario

import (
	"testing"

	"dnsamp/internal/simclock"
)

// tinyParams keeps env construction fast: two attack days, small
// background, small namespace.
func tinyParams() Params {
	return Params{Days: 3, Scale: 0.02, ProceduralNames: 20_000, CampaignSeed: 1, TrafficSeed: 11}
}

// TestCatalogShape pins the acceptance floor: at least six distinct
// scenarios, at least four attacks and two benign confounders, unique
// stable names, all resolvable via ByName.
func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 6 {
		t.Fatalf("catalog has %d scenarios, want >= 6", len(cat))
	}
	attack, benign := 0, 0
	seen := map[string]bool{}
	for _, sc := range cat {
		if sc.Name == "" || sc.Description == "" || sc.Prepare == nil {
			t.Errorf("scenario %q underspecified", sc.Name)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		switch sc.Kind {
		case Attack:
			attack++
		case Benign:
			benign++
		}
		got, err := ByName(sc.Name)
		if err != nil || got.Name != sc.Name || got.Kind != sc.Kind {
			t.Errorf("ByName(%q) = %v, %v", sc.Name, got, err)
		}
	}
	if attack < 4 || benign < 2 {
		t.Errorf("catalog mix = %d attack / %d benign, want >= 4 / >= 2", attack, benign)
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Error("ByName on unknown name did not error")
	}
}

// TestBuildGroundTruth checks every built scenario's labels: attack
// scenarios have non-empty truth entirely inside the window, benign
// scenarios have none, and TruthSet mirrors Truth.
func TestBuildGroundTruth(t *testing.T) {
	env := NewEnv(tinyParams())
	w := env.P.Window()
	for _, sc := range Catalog() {
		bt := env.Build(sc, 7)
		if sc.Kind == Benign {
			if len(bt.Truth) != 0 || len(bt.TruthSet) != 0 {
				t.Errorf("%s: benign scenario has ground truth", sc.Name)
			}
			continue
		}
		if len(bt.Truth) == 0 {
			t.Errorf("%s: attack scenario without ground truth", sc.Name)
			continue
		}
		n := 0
		for _, gt := range bt.Truth {
			if len(gt.Days) == 0 {
				t.Errorf("%s: truth victim without days", sc.Name)
			}
			for _, d := range gt.Days {
				n++
				day := simclock.Time(d) * simclock.Time(simclock.Day)
				if !w.Contains(day) {
					t.Errorf("%s: truth day %d outside window", sc.Name, d)
				}
			}
		}
		if n != len(bt.TruthSet) {
			t.Errorf("%s: TruthSet has %d keys, truth lists %d victim-days", sc.Name, len(bt.TruthSet), n)
		}
		if len(bt.Candidates) == 0 {
			t.Errorf("%s: no candidate names", sc.Name)
		}
	}
}

// TestBuildDeterministic builds the same scenario twice in independent
// envs with identical params and compares the composed batches column
// by column: a scenario must be a pure function of (params, seed).
func TestBuildDeterministic(t *testing.T) {
	p := tinyParams()
	sc, err := ByName("pulse-wave")
	if err != nil {
		t.Fatal(err)
	}
	b1 := NewEnv(p).Build(sc, 7)
	b2 := NewEnv(p).Build(sc, 7)
	days1, days2 := b1.Source.Days(), b2.Source.Days()
	if len(days1) != len(days2) || len(days1) != p.Days {
		t.Fatalf("day counts differ: %d vs %d (want %d)", len(days1), len(days2), p.Days)
	}
	for _, day := range days1 {
		x, y := b1.Source.Day(day), b2.Source.Day(day)
		if x.N != y.N {
			t.Fatalf("day %s: N %d vs %d", day.Date(), x.N, y.N)
		}
		for i := range x.Rows {
			r, q := x.Rows[i], y.Rows[i]
			if r.Time != q.Time || r.Src != q.Src || r.Dst != q.Dst || r.TXID != q.TXID || r.MsgSize != q.MsgSize ||
				b1.Source.Table().Name(r.Name) != b2.Source.Table().Name(q.Name) {
				t.Fatalf("day %s row %d differs", day.Date(), i)
			}
		}
	}
}

// TestOverlayRidesBackground checks composition: a built scenario day
// contains strictly more records than the bare background day, and the
// batch's frame accounting stays consistent.
func TestOverlayRidesBackground(t *testing.T) {
	env := NewEnv(tinyParams())
	sc, _ := ByName("resolver-churn")
	bt := env.Build(sc, 7)
	attackDay := env.P.Window().Start.Add(simclock.Day)
	bg := env.Gen.Day(attackDay, nil).Batch
	got := bt.Source.Day(attackDay)
	if got.N <= bg.N {
		t.Errorf("overlay day N=%d not larger than background N=%d", got.N, bg.N)
	}
	if got.N != got.Frames-got.NonUDP-got.NonDNS-got.Malformed {
		t.Errorf("frame accounting broken: N=%d Frames=%d NonUDP=%d NonDNS=%d Malformed=%d",
			got.N, got.Frames, got.NonUDP, got.NonDNS, got.Malformed)
	}
	if len(got.Rows) != got.N {
		t.Errorf("%d rows, N=%d", len(got.Rows), got.N)
	}
}

// TestSkipAttacksBackgroundOnly pins the generator flag the scenario
// substrate relies on: with SkipAttacks the campaign's attack events
// vanish from both the batch and the honeypot flows, while background
// traffic remains.
func TestSkipAttacksBackgroundOnly(t *testing.T) {
	env := NewEnv(tinyParams())
	day := env.P.Window().Start.Add(simclock.Day)
	dt := env.Gen.Day(day, nil)
	if len(dt.Sensors) != 0 {
		t.Errorf("SkipAttacks day has %d sensor flows, want 0", len(dt.Sensors))
	}
	if dt.Batch == nil || dt.Batch.N == 0 {
		t.Fatal("SkipAttacks suppressed the background traffic too")
	}
	wt := env.Gen.WireDay(day)
	if len(wt.Sensors) != 0 {
		t.Errorf("SkipAttacks wire day has %d sensor flows, want 0", len(wt.Sensors))
	}
	if len(wt.IXP) == 0 {
		t.Error("SkipAttacks wire day has no background frames")
	}
}

// TestOverlayDayEndsExact holds a built day to the rows it keeps: the
// overlay's append moves the background's exactly sized rows to a
// quarter more room, and Build gives that room back.
func TestOverlayDayEndsExact(t *testing.T) {
	env := NewEnv(tinyParams())
	sc, _ := ByName("pulse-wave")
	bt := env.Build(sc, 7)
	day := simclock.FromDate(2019, 6, 3)
	b := bt.Source.Day(day)
	if b == nil || b.N == 0 {
		t.Fatalf("day %s has no rows", day.Date())
	}
	if bg := env.Gen.Day(day, nil).Batch; b.N <= bg.N {
		t.Fatalf("day %s: %d rows, no more than the background's %d: no overlay", day.Date(), b.N, bg.N)
	}
	if cap(b.Rows) != b.N {
		t.Errorf("day %s: %d rows in a capacity of %d, want exact", day.Date(), b.N, cap(b.Rows))
	}
}
