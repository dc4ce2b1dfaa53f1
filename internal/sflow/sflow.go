// Package sflow implements the sampled-capture semantics of the paper's
// IXP vantage point: 1-in-16k packet sampling with 128-byte header
// truncation, in the style of sFlow v5 packet samples.
//
// Two sampling modes are provided:
//
//   - Per-packet sampling (Sampler.SamplePacket), faithful to the wire
//     behaviour; only tests call it.
//   - Binomial flow thinning (Sampler.ThinFlow): given a flow of n
//     identically shaped packets, draw how many would have been sampled.
//     This is statistically identical for independent 1/N sampling and
//     lets the campaign generator skip materialising the ~10^4× larger
//     unsampled traffic.
//
// The package also carries the wire and disk forms of a collector's
// feed: the sFlow v5 datagram codec (datagram.go), the datagram log and
// its per-second Batcher (file.go), the EntryReaders (reader.go) and a
// Tailer that follows a log across growth, truncation and rotation
// (tail.go). LogReader reads its input in 64 KiB chunks and owns the
// resume cursor: Offset is the number of bytes consumed — the boundary
// just past the last whole entry handed out — never the number of bytes
// read, so a cursor means the same thing whatever the read sizes were,
// and Tailer and the ingest runner persist it as is.
package sflow

import (
	"math/rand"

	"dnsamp/internal/netmodel"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
)

// Defaults matching the paper's capture configuration (§3.1).
const (
	DefaultRate    = 16384 // 1:16k packet sampling
	DefaultSnaplen = 128   // bytes kept per sampled packet
)

// Sampler draws packet samples. The zero value is usable: Rate and
// Snaplen default to the paper's capture configuration and the random
// source to a fixed seed, so a zero-value Sampler samples
// deterministically instead of panicking in rng.Intn / dividing by
// zero in ThinFlow.
type Sampler struct {
	// Rate is the sampling denominator N (1 in N). Zero or negative
	// means DefaultRate.
	Rate int
	// Snaplen is the truncation length. Zero or negative means
	// DefaultSnaplen.
	Snaplen int

	rng *rand.Rand
	seq uint64
}

// NewSampler creates a sampler with the paper's defaults.
func NewSampler(seed int64) *Sampler {
	return &Sampler{Rate: DefaultRate, Snaplen: DefaultSnaplen, rng: rand.New(rand.NewSource(seed))}
}

// rate returns the effective sampling denominator.
func (s *Sampler) rate() int {
	if s.Rate <= 0 {
		return DefaultRate
	}
	return s.Rate
}

// snaplen returns the effective truncation length.
func (s *Sampler) snaplen() int {
	if s.Snaplen <= 0 {
		return DefaultSnaplen
	}
	return s.Snaplen
}

// random returns the sampler's random source, lazily seeding a
// zero-value Sampler.
func (s *Sampler) random() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(0))
	}
	return s.rng
}

// Record is one sampled, truncated frame with capture metadata.
type Record struct {
	Time simclock.Time
	// Frame is the truncated wire frame (at most Snaplen bytes). It is
	// owned by the record: take copies out of the caller's buffer, so
	// readers may reuse theirs between packets.
	Frame []byte
	// FrameLen is the original frame length before truncation.
	FrameLen int
	// Seq is the capture sequence number.
	Seq uint64
}

// Record is the sample as a capture record taken at at, the form
// ixp.CapturePoint sanitizes. Frame aliases Header.
func (fs FlowSample) Record(at simclock.Time) Record {
	return Record{Time: at, Frame: fs.Header, FrameLen: int(fs.FrameLen), Seq: uint64(fs.Seq)}
}

// SamplePacket decides whether a single packet is sampled; if so it
// returns the truncated record. This mirrors per-packet 1/N sampling:
// each packet is chosen independently with probability 1/Rate ("sampling
// selects 1 out of 16k and not every 16kth packet", §6.1).
func (s *Sampler) SamplePacket(t simclock.Time, frame []byte) (Record, bool) {
	if s.random().Intn(s.rate()) != 0 {
		return Record{}, false
	}
	return s.take(t, frame), true
}

// ThinFlow returns how many packets of an n-packet flow are sampled.
func (s *Sampler) ThinFlow(n int) int {
	return stats.Binomial(s.random(), n, 1/float64(s.rate()))
}

// Take records a frame unconditionally (used after ThinFlow has already
// decided the sampled count).
func (s *Sampler) Take(t simclock.Time, frame []byte) Record {
	return s.take(t, frame)
}

func (s *Sampler) take(t simclock.Time, frame []byte) Record {
	s.seq++
	// netmodel.Truncate returns a view into the caller's frame; copy so
	// the record owns its bytes. Readers (the pcap and sFlow-datagram
	// ingestion paths) legitimately reuse one read buffer between
	// packets — an aliased Frame would silently corrupt every
	// previously sampled record.
	return Record{
		Time:     t,
		Frame:    append([]byte(nil), netmodel.Truncate(frame, s.snaplen())...),
		FrameLen: len(frame),
		Seq:      s.seq,
	}
}
