package source_test

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
)

// randomReplay builds a replay with randomized batches, counters, and
// sensor flows — the round-trip suite's input space.
func randomReplay(rng *rand.Rand) *source.Replay {
	tab := names.NewTable()
	nNames := 1 + rng.Intn(40)
	for i := 0; i < nNames; i++ {
		buf := make([]byte, 3+rng.Intn(20))
		for j := range buf {
			buf[j] = 'a' + byte(rng.Intn(26))
		}
		tab.Intern(string(buf) + ".")
	}
	r := source.NewReplay(tab)
	days := 1 + rng.Intn(4)
	for d := 0; d < days; d++ {
		day := simclock.MeasurementStart.Add(simclock.Days(d))
		var b *ixp.SampleBatch
		if rng.Intn(8) != 0 { // occasionally a batch-less day
			b = &ixp.SampleBatch{Table: tab}
			n := rng.Intn(200)
			b.Grow(n)
			for i := 0; i < n; i++ {
				b.Append(ixp.BatchRecord{
					Time:      day.Add(simclock.Duration(rng.Intn(86400))),
					Src:       [4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))},
					Dst:       [4]byte{198, 51, 100, byte(rng.Intn(256))},
					SrcPort:   uint16(rng.Intn(1 << 16)),
					DstPort:   53,
					IPTTL:     uint8(rng.Intn(256)),
					IPID:      uint16(rng.Intn(1 << 16)),
					Resp:      rng.Intn(2) == 0,
					Name:      uint32(rng.Intn(tab.Len())),
					QType:     dnswire.Type(rng.Intn(260)),
					TXID:      uint16(rng.Intn(1 << 16)),
					MsgSize:   int32(rng.Intn(5000)),
					ANCount:   uint16(rng.Intn(40)),
					VisibleNS: uint16(rng.Intn(20)),
					Ingress:   uint32(rng.Intn(3)) * 64500,
				})
			}
			b.NonUDP = rng.Intn(10)
			b.NonDNS = rng.Intn(10)
			b.Malformed = rng.Intn(10)
			b.Frames = b.N + b.NonUDP + b.NonDNS + b.Malformed
		}
		var sensors []ecosystem.SensorFlow
		for i := rng.Intn(5); i > 0; i-- {
			sensors = append(sensors, ecosystem.SensorFlow{
				Sensor:   rng.Intn(30),
				Victim:   netip.AddrFrom4([4]byte{203, 0, 113, byte(rng.Intn(256))}),
				Start:    day.Add(simclock.Duration(rng.Intn(86400))),
				Duration: simclock.Duration(rng.Intn(3600)),
				Count:    rng.Intn(100000),
				QName:    tab.Name(uint32(rng.Intn(tab.Len()))),
				QType:    dnswire.TypeANY,
				TXID:     uint16(rng.Intn(1 << 16)),
				EventID:  rng.Intn(1000),
			})
		}
		r.AddDay(day, b, sensors)
	}
	return r
}

// TestSnapshotRoundTrip is the randomized round-trip suite: write →
// read must reproduce the batch columns, counters, sensor flows, and
// interning table exactly, and a second write must produce the same
// bytes (the cross-process byte-identity contract).
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		orig := randomReplay(rng)
		var buf bytes.Buffer
		if err := orig.WriteSnapshot(&buf); err != nil {
			t.Fatalf("trial %d: WriteSnapshot: %v", trial, err)
		}
		loaded, err := source.OpenSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: OpenSnapshot: %v", trial, err)
		}
		if !reflect.DeepEqual(orig.Days(), loaded.Days()) {
			t.Fatalf("trial %d: day lists differ", trial)
		}
		if !reflect.DeepEqual(orig.Table(), loaded.Table()) {
			t.Fatalf("trial %d: interning tables differ", trial)
		}
		for _, day := range orig.Days() {
			ob, oFlows := orig.DayFlows(day)
			lb, lFlows := loaded.DayFlows(day)
			if (ob == nil) != (lb == nil) {
				t.Fatalf("trial %d day %s: batch presence differs", trial, day.Date())
			}
			if ob != nil {
				// Column-by-column comparison so failures name the field.
				ov, lv := reflect.ValueOf(*ob), reflect.ValueOf(*lb)
				typ := ov.Type()
				for f := 0; f < typ.NumField(); f++ {
					if typ.Field(f).Name == "Table" {
						continue // compared above; pointers differ by design
					}
					if !reflect.DeepEqual(ov.Field(f).Interface(), lv.Field(f).Interface()) {
						t.Fatalf("trial %d day %s: column %s differs", trial, day.Date(), typ.Field(f).Name)
					}
				}
				if lb.Table != loaded.Table() {
					t.Fatalf("trial %d: loaded batch not in the loaded table space", trial)
				}
			}
			if !reflect.DeepEqual(oFlows, lFlows) {
				t.Fatalf("trial %d day %s: sensor flows differ", trial, day.Date())
			}
		}
		var again bytes.Buffer
		if err := loaded.WriteSnapshot(&again); err != nil {
			t.Fatalf("trial %d: re-WriteSnapshot: %v", trial, err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("trial %d: write→read→write not byte-identical (%d vs %d bytes)",
				trial, buf.Len(), again.Len())
		}
	}
}

// TestSnapshotCorruption asserts every truncation point and a sweep of
// byte flips yield a clean ErrSnapshot (or a semantically valid
// alternate parse) — never a panic or runaway allocation.
func TestSnapshotCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := randomReplay(rng)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for cut := 0; cut < len(full); cut += 1 + cut/16 {
		if _, err := source.OpenSnapshot(bytes.NewReader(full[:cut])); !errors.Is(err, source.ErrSnapshot) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrSnapshot", cut, len(full), err)
		}
	}
	// Trailing garbage is corruption too, not silently ignored.
	if _, err := source.OpenSnapshot(bytes.NewReader(append(append([]byte{}, full...), 0xff))); !errors.Is(err, source.ErrSnapshot) {
		t.Fatalf("trailing byte: err = %v, want ErrSnapshot", err)
	}
	// Byte flips: decoding must terminate with either a clean error or
	// a structurally valid replay (flips in column data are legal).
	for i := 0; i < len(full); i += 1 + i/8 {
		mut := append([]byte{}, full...)
		mut[i] ^= 0x80
		r, err := source.OpenSnapshot(bytes.NewReader(mut))
		if err == nil && r == nil {
			t.Fatalf("flip at %d: nil replay without error", i)
		}
	}
	// An absurd count field must fail before allocating.
	mut := append([]byte{}, full...)
	copy(mut[8+4:], []byte{0xff, 0xff, 0xff, 0xff}) // name count
	if _, err := source.OpenSnapshot(bytes.NewReader(mut)); !errors.Is(err, source.ErrSnapshot) {
		t.Fatalf("absurd count: err = %v, want ErrSnapshot", err)
	}
}
