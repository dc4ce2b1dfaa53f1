package ecosystem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"reflect"
	"testing"

	"dnsamp/internal/simclock"
)

// synthesisDigest is the SHA-256 TestSynthesisDigest pins. The kernels
// behind it (Zipf ranks, victim picks, amplifier-pool walks) may be made
// faster only exactly: a change that moves it changes the traffic every
// golden downstream is built from.
const synthesisDigest = "7dc92d1b88d9a58d07a0f3dd333c8acc0c883da8199376f13b752b28a116c0ce"

// TestSynthesisDigest pins the synthesis kernels end to end at two
// seeds: NewCampaign's events (victim draws, amplifier lists), three
// Generator.Day batches column by column (client and name Zipf draws)
// and one WireDay's frame bytes.
func TestSynthesisDigest(t *testing.T) {
	h := sha256.New()
	for _, seed := range []int64{1, 2} {
		cfg := DefaultCampaignConfig(0.01)
		cfg.Seed = seed
		cfg.Zones.ProceduralNames = 20_000
		c := NewCampaign(cfg)
		digestEvents(h, c.Events)

		g := NewGenerator(c, seed+10)
		for _, day := range []simclock.Time{
			simclock.MeasurementStart.Add(simclock.Days(3)),
			c.Entity.Reloc1.Add(simclock.Days(3)), // ingress-tagged requests
			simclock.MeasurementEnd.Add(simclock.Days(5)),
		} {
			dt := g.Day(day, nil)
			if dt.Batch.N == 0 {
				t.Fatalf("seed %d: day %s has no samples to digest", seed, day.Date())
			}
			digestDay(h, dt)
		}
		wire := g.WireDay(simclock.MeasurementStart.Add(simclock.Days(10)))
		if len(wire.IXP) == 0 {
			t.Fatalf("seed %d: WireDay has no frames to digest", seed)
		}
		for _, tr := range wire.IXP {
			put(h, tr.Rec.Time, uint32(len(tr.Rec.Frame)), tr.Ingress)
			h.Write(tr.Rec.Frame)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != synthesisDigest {
		t.Errorf("synthesis digest = %s, want %s", got, synthesisDigest)
	}
}

func digestEvents(h hash.Hash, evs []*AttackEvent) {
	for _, ev := range evs {
		put(h, ev.Start, ev.Duration, ev.Victim.As4(), ev.VictimASN, uint32(len(ev.QName)))
		h.Write([]byte(ev.QName))
		put(h, uint32(len(ev.Amplifiers)))
		for _, id := range ev.Amplifiers {
			put(h, uint32(id))
		}
	}
}

func digestDay(h hash.Hash, dt *DayTraffic) {
	b := dt.Batch
	put(h, uint32(b.N), uint32(b.Frames), uint32(b.NonUDP), uint32(b.NonDNS), uint32(b.Malformed))
	// The rows column by column, each field's values as one slice.
	rows := reflect.ValueOf(b.Rows)
	for f := range rows.Type().Elem().NumField() {
		col := reflect.MakeSlice(reflect.SliceOf(rows.Type().Elem().Field(f).Type), b.N, b.N)
		for i := range b.N {
			col.Index(i).Set(rows.Index(i).Field(f))
		}
		put(h, col.Interface())
	}
	for _, s := range dt.Sensors {
		put(h, uint32(s.Sensor), s.Victim.As4(), s.Start, s.Duration, uint32(s.Count), s.TXID, uint32(s.EventID))
	}
}

// put writes fixed-size values (and slices of them) little-endian.
func put(h hash.Hash, vs ...any) {
	for _, v := range vs {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
}
