package source_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
	"dnsamp/internal/source"
	"dnsamp/internal/topology"
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
// read must reproduce the batch rows, counters, sensor flows, and
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
			ob, oFlows := orig.DayFlows(day, nil)
			lb, lFlows := loaded.DayFlows(day, nil)
			if (ob == nil) != (lb == nil) {
				t.Fatalf("trial %d day %s: batch presence differs", trial, day.Date())
			}
			if ob != nil {
				// Field by field, so a failure names the field.
				ov, lv := reflect.ValueOf(*ob), reflect.ValueOf(*lb)
				typ := ov.Type()
				for f := 0; f < typ.NumField(); f++ {
					if typ.Field(f).Name == "Table" {
						continue // compared above; pointers differ by design
					}
					if !reflect.DeepEqual(ov.Field(f).Interface(), lv.Field(f).Interface()) {
						t.Fatalf("trial %d day %s: batch field %s differs", trial, day.Date(), typ.Field(f).Name)
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

// claimRows is a 65-byte snapshot whose one day claims n batch rows
// and carries none of them.
func claimRows(n uint32) []byte {
	b := append([]byte("dnsampSS"), 1, 0, 0, 0) // magic, version 1
	b = binary.LittleEndian.AppendUint32(b, 0)  // no names
	b = binary.LittleEndian.AppendUint32(b, 1)  // one day
	b = binary.LittleEndian.AppendUint64(b, uint64(simclock.MeasurementStart))
	b = append(b, 1)                   // with a batch
	b = append(b, make([]byte, 32)...) // its four counters
	return binary.LittleEndian.AppendUint32(b, n)
}

func snapshotBytes(tb testing.TB, r *source.Replay) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRestoresNamespace: a recorded synthetic source's table
// holds the generator's bulk namespace as a range, which the snapshot
// writes as plain names; the table opened is the table written.
func TestSnapshotRestoresNamespace(t *testing.T) {
	rec := source.Record(source.NewSynthetic(ecosystem.NewGenerator(tinyCampaign(t), 7), testWindow()))
	loaded, err := source.OpenSnapshot(bytes.NewReader(snapshotBytes(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Table(), loaded.Table()) {
		t.Fatal("the opened table differs from the generator's")
	}
}

// FuzzOpenSnapshot holds the snapshot decoder to the contract of
// internal/binenc: any bytes decode without a panic and allocate no
// more than the bytes present justify (FuzzLoadCheckpoint's bound), and
// an accepted snapshot re-encodes to bytes that open again and
// re-encode identically. The seeds are a Record of one synthetic day
// taken off the wire, so its table holds only the names the day
// carries (a Record of a Synthetic holds the generator's whole
// 200 000-name table, 3.9 MB, which the fuzzer would spend its time
// minimizing), cuts of it, a random replay with sensor flows and a
// batch-less day, and a snapshot claiming 2^20 rows it does not carry.
func FuzzOpenSnapshot(f *testing.F) {
	cfg := ecosystem.DefaultCampaignConfig(0.0002)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	day := simclock.MeasurementStart
	wd := ecosystem.NewGenerator(ecosystem.NewCampaign(cfg), 7).WireDay(day)
	wire := source.NewReplay(nil)
	addFrames(wire, day, wd.IXP, wd.Sensors)
	rec := snapshotBytes(f, source.Record(wire))
	f.Add(rec)
	for _, cut := range []int{12, len(rec) / 2, len(rec) - 1} {
		f.Add(rec[:cut])
	}
	f.Add(snapshotBytes(f, randomReplay(rand.New(rand.NewSource(3)))))
	f.Add(claimRows(1 << 20))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := source.OpenSnapshot(bytes.NewReader(raw))
		runtime.ReadMemStats(&m1)
		if grew, bound := m1.TotalAlloc-m0.TotalAlloc, 64*uint64(len(raw))+64<<10; grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, over the %d they justify", len(raw), grew, bound)
		}
		if err != nil {
			if !errors.Is(err, source.ErrSnapshot) {
				t.Fatalf("err = %v, want ErrSnapshot", err)
			}
			return
		}
		first := snapshotBytes(t, r)
		again, err := source.OpenSnapshot(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("a re-encoded snapshot does not open: %v", err)
		}
		if second := snapshotBytes(t, again); !bytes.Equal(first, second) {
			t.Fatal("re-encoding is not canonical: an opened snapshot encodes differently a second time")
		}
	})
}

// BenchmarkOpenSnapshot is the snapshot decoder's layer guard: five
// recorded synthetic days, opened from memory through the reader path.
func BenchmarkOpenSnapshot(b *testing.B) {
	raw := snapshotBytes(b, source.Record(source.NewSynthetic(ecosystem.NewGenerator(tinyCampaign(b), 7), testWindow())))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := source.OpenSnapshot(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
