package sflow

import (
	"bytes"
	"math"
	"testing"

	"dnsamp/internal/simclock"
)

func TestSamplePacketRate(t *testing.T) {
	s := NewSampler(1)
	s.Rate = 100 // faster test; semantics identical
	frame := make([]byte, 200)
	const n = 200_000
	sampled := 0
	for i := 0; i < n; i++ {
		if _, ok := s.SamplePacket(simclock.MeasurementStart, frame); ok {
			sampled++
		}
	}
	want := float64(n) / 100
	if math.Abs(float64(sampled)-want) > 4*math.Sqrt(want) {
		t.Errorf("sampled %d of %d, want ~%.0f", sampled, n, want)
	}
}

func TestSampleTruncates(t *testing.T) {
	s := NewSampler(2)
	frame := make([]byte, 1500)
	rec := s.Take(simclock.MeasurementStart, frame)
	if len(rec.Frame) != DefaultSnaplen {
		t.Errorf("frame len = %d, want %d", len(rec.Frame), DefaultSnaplen)
	}
	if rec.FrameLen != 1500 {
		t.Errorf("FrameLen = %d, want 1500", rec.FrameLen)
	}
	small := s.Take(simclock.MeasurementStart, make([]byte, 60))
	if len(small.Frame) != 60 {
		t.Errorf("small frame truncated: %d", len(small.Frame))
	}
}

func TestSequenceNumbers(t *testing.T) {
	s := NewSampler(3)
	a := s.Take(0, []byte{1})
	b := s.Take(0, []byte{2})
	if b.Seq != a.Seq+1 {
		t.Errorf("sequence numbers not monotonic: %d, %d", a.Seq, b.Seq)
	}
}

func TestThinFlowStatistics(t *testing.T) {
	s := NewSampler(4)
	// 16384 * 64 packets at 1:16384 => mean 64.
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		total += s.ThinFlow(16384 * 64)
	}
	mean := float64(total) / trials
	if math.Abs(mean-64) > 3 {
		t.Errorf("ThinFlow mean = %.1f, want ~64", mean)
	}
	if s.ThinFlow(0) != 0 {
		t.Error("empty flow should thin to 0")
	}
}

func TestThinFlowMatchesPerPacket(t *testing.T) {
	// Binomial thinning and per-packet sampling must agree in
	// distribution; compare means over many flows (the ablation claim).
	a := NewSampler(5)
	a.Rate = 50
	b := NewSampler(6)
	b.Rate = 50
	const flow, trials = 5000, 300
	frame := []byte{0}
	sumThin, sumPkt := 0, 0
	for i := 0; i < trials; i++ {
		sumThin += a.ThinFlow(flow)
		for j := 0; j < flow; j++ {
			if _, ok := b.SamplePacket(0, frame); ok {
				sumPkt++
			}
		}
	}
	mThin := float64(sumThin) / trials
	mPkt := float64(sumPkt) / trials
	if math.Abs(mThin-mPkt) > 8 {
		t.Errorf("thinning mean %.1f vs per-packet mean %.1f", mThin, mPkt)
	}
}

// TestTakeOwnsFrame is the frame-aliasing regression test: a reader
// that reuses its read buffer between packets must not corrupt
// previously sampled records. Before the fix, Record.Frame aliased the
// caller's buffer through netmodel.Truncate.
func TestTakeOwnsFrame(t *testing.T) {
	s := NewSampler(9)
	buf := make([]byte, 300)
	var recs []Record
	var want [][]byte
	for i := 0; i < 4; i++ {
		for j := range buf {
			buf[j] = byte(i*31 + j)
		}
		frame := buf[:60+i*80] // varying lengths, same backing array
		want = append(want, append([]byte(nil), truncRef(frame, s.Snaplen)...))
		recs = append(recs, s.Take(simclock.MeasurementStart, frame))
	}
	for j := range buf {
		buf[j] = 0xee // reader reuses its buffer
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Frame, want[i]) {
			t.Fatalf("record %d corrupted by buffer reuse:\nwant %x\ngot  %x", i, want[i], rec.Frame)
		}
	}
}

// truncRef mirrors the capture clip for the expectation
// (kept local so the test states the intended bytes independently).
func truncRef(frame []byte, snaplen int) []byte {
	if len(frame) <= snaplen {
		return frame
	}
	return frame[:snaplen]
}

// TestZeroValueSampler pins the validated defaults: a zero-value
// Sampler must sample and thin without panicking (SamplePacket used to
// call rng.Intn(0) and ThinFlow divided by a zero rate).
func TestZeroValueSampler(t *testing.T) {
	var s Sampler
	frame := make([]byte, 200)
	for i := 0; i < 5_000; i++ {
		if rec, ok := s.SamplePacket(simclock.MeasurementStart, frame); ok {
			if len(rec.Frame) != DefaultSnaplen {
				t.Fatalf("zero-value snaplen = %d, want %d", len(rec.Frame), DefaultSnaplen)
			}
		}
	}
	var s2 Sampler
	total := 0
	for i := 0; i < 50; i++ {
		k := s2.ThinFlow(DefaultRate * 4)
		if k < 0 || k > DefaultRate*4 {
			t.Fatalf("ThinFlow out of range: %d", k)
		}
		total += k
	}
	if mean := float64(total) / 50; math.Abs(mean-4) > 3 {
		t.Errorf("zero-value ThinFlow mean = %.1f, want ~4 (1:%d default)", mean, DefaultRate)
	}
	var s3 Sampler
	rec := s3.Take(0, make([]byte, 500))
	if len(rec.Frame) != DefaultSnaplen || rec.FrameLen != 500 {
		t.Errorf("zero-value Take = %d-byte frame (orig %d), want %d/500",
			len(rec.Frame), rec.FrameLen, DefaultSnaplen)
	}
	if s3.random() == nil {
		t.Error("zero-value random() must lazily seed, not return nil")
	}
}

func TestDefaults(t *testing.T) {
	s := NewSampler(7)
	if s.Rate != 16384 || s.Snaplen != 128 {
		t.Errorf("defaults = 1:%d snaplen %d, want 1:16384/128 (§3.1)", s.Rate, s.Snaplen)
	}
	if s.random() == nil {
		t.Error("random source nil")
	}
}
