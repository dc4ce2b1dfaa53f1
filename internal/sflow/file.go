// Datagram log: the on-disk form of a collector's sFlow feed. Real
// collectors timestamp datagrams on arrival (the datagram itself only
// carries agent uptime), so the log is a sequence of entries
//
//	[int64 arrival time, unix seconds][uint32 length][sFlow v5 datagram]
//
// after an 8-byte magic + version header, every integer little-endian.
// Records sharing one arrival second are batched into one datagram
// (Batcher).
package sflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dnsamp/internal/simclock"
)

// Log file framing.
var logMagic = [8]byte{'s', 'F', 'l', 'o', 'w', 'L', 'o', 'g'}

const (
	logVersion = 1
	// logHeaderLen is the byte length of the log file header.
	logHeaderLen = 12
	// maxBatchSamples bounds samples per datagram (Batcher).
	maxBatchSamples = 64
	// maxLogDatagram bounds the datagram length accepted on read.
	maxLogDatagram = 1 << 20
)

// ErrLog is wrapped by log framing failures (a bad magic, an oversized
// entry). Truncation mid-entry surfaces as io.ErrUnexpectedEOF.
var ErrLog = errors.New("sflow: malformed datagram log")

// Batcher packs time-ordered records into datagrams the way an agent
// fills them until a timeout or the MTU: one datagram per arrival
// second, at most maxBatchSamples samples, numbered from 1. Packing is
// a pure function of the record sequence, so re-batching from the top
// reproduces every boundary and Seq number, and a record count serves
// as a resume cursor. LogWriter and RecordReader (a pcap capture, a
// campaign's wire records) both batch through it.
type Batcher struct {
	Agent [4]byte
	Rate  uint32 // the sampling denominator every flow sample records

	dg Datagram // the open datagram
	at simclock.Time
}

// Full reports whether a record arriving at `at` must wait until the
// open datagram is taken.
func (b *Batcher) Full(at simclock.Time) bool {
	n := len(b.dg.Samples)
	return n > 0 && (at != b.at || n >= maxBatchSamples)
}

// Add appends rec to the open datagram as a flow sample whose input
// field is input; take the datagram first when Full(rec.Time). The
// sample holds rec.Frame, not a copy.
func (b *Batcher) Add(rec Record, input uint32) {
	b.at = rec.Time
	b.dg.Samples = append(b.dg.Samples, FlowSample{
		Seq:      uint32(rec.Seq),
		SourceID: 1,
		Rate:     b.Rate,
		Pool:     uint32(rec.Seq) * b.Rate,
		Input:    input,
		FrameLen: uint32(rec.FrameLen),
		Header:   rec.Frame,
	})
}

// TakeInto closes the open datagram into dst and returns its arrival
// second; false when nothing is open. dst's sample storage is reused,
// each Header is the record's frame as Add kept it, and Uptime is the
// arrival second, as a live agent's clock would stamp it.
func (b *Batcher) TakeInto(dst *Datagram) (simclock.Time, bool) {
	dg, ok := b.take()
	if !ok {
		return 0, false
	}
	dg.Uptime = uint32(b.at)
	dg.Samples = append(dst.Samples[:0], dg.Samples...)
	*dst = dg
	return b.at, true
}

// take closes the open datagram in place: its samples alias the
// batcher's buffer, which the next Add overwrites.
func (b *Batcher) take() (Datagram, bool) {
	if len(b.dg.Samples) == 0 {
		return Datagram{}, false
	}
	b.dg.Agent = b.Agent
	b.dg.Seq++
	dg := b.dg
	b.dg.Samples = b.dg.Samples[:0]
	return dg, true
}

// LogWriter serializes sampled records as a timestamped sFlow v5
// datagram log. Records must be added in non-decreasing time order to
// get the canonical one-datagram-per-second batching; out-of-order
// times still round-trip (each time change flushes a datagram). Every
// datagram's Uptime is 0: the entry header carries the arrival time.
type LogWriter struct {
	w   io.Writer
	b   Batcher
	buf []byte // the entry being written, reused across entries
	err error
}

// NewLogWriter writes the log header and returns a writer attributing
// datagrams to the given agent address. rate is the sampling
// denominator recorded in every flow sample (<= 0 means DefaultRate).
func NewLogWriter(w io.Writer, agent [4]byte, rate int) (*LogWriter, error) {
	if rate <= 0 {
		rate = DefaultRate
	}
	var hdr [12]byte
	copy(hdr[:8], logMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], logVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &LogWriter{w: w, b: Batcher{Agent: agent, Rate: uint32(rate)}}, nil
}

// Add appends one sampled record. input is the ingress interface
// attribution carried in the flow sample's input field (the simulation
// stores the ingress member ASN there; 0 = derive from the source
// address), matching ecosystem.TaggedRecord.Ingress.
//
// rec.Frame is retained (not copied) until its datagram is flushed —
// at the next time change, every maxBatchSamples records, or Flush —
// so callers must not reuse the frame buffer before then. Records
// from Sampler own their bytes already.
func (lw *LogWriter) Add(rec Record, input uint32) error {
	if lw.err != nil {
		return lw.err
	}
	if lw.b.Full(rec.Time) {
		lw.flush()
	}
	lw.b.Add(rec, input)
	return lw.err
}

// Flush writes any buffered samples as a final datagram. Call once
// after the last Add.
func (lw *LogWriter) Flush() error {
	lw.flush()
	return lw.err
}

func (lw *LogWriter) flush() {
	dg, ok := lw.b.take()
	if !ok || lw.err != nil {
		return
	}
	// The entry header, its length filled in once the datagram is
	// encoded behind it, and the datagram: one Write.
	lw.buf = binary.LittleEndian.AppendUint64(lw.buf[:0], uint64(lw.b.at))
	lw.buf = AppendDatagram(append(lw.buf, 0, 0, 0, 0), &dg)
	binary.LittleEndian.PutUint32(lw.buf[8:], uint32(len(lw.buf)-12))
	if _, err := lw.w.Write(lw.buf); err != nil {
		lw.err = err
	}
}

// readAhead is how much LogReader asks its reader for at a time. An
// entry runs from a couple of hundred bytes (one sample) to 9 KiB
// (maxBatchSamples), so one read(2) on a file serves tens to hundreds of
// entries instead of two reads serving one.
const readAhead = 64 << 10

// LogReader streams a datagram log back out, one entry per NextEntry.
// It reads its input in readAhead-sized chunks into one reused buffer —
// safe because ParseDatagram copies header bytes out, and NextInto's
// views last only until the next call — and knows its
// own position: Offset is an entry boundary however far the reads ran
// ahead of it. It is tail-capable: a NextEntry that hits end of input
// mid-entry returns io.ErrUnexpectedEOF but keeps what it has read, so
// calling it again after the underlying file has grown resumes exactly
// where it stopped (Tailer, behind a tail: input, is built on this).
type LogReader struct {
	r io.Reader

	// buf[lo:hi] holds the bytes read but not yet consumed; off is the
	// stream offset of buf[lo], always the end of an entry (or of the
	// file header).
	buf    []byte
	lo, hi int
	off    int64
}

// NewLogReader validates the log header and returns a streaming
// reader.
func NewLogReader(r io.Reader) (*LogReader, error) {
	lr := &LogReader{r: r, buf: make([]byte, readAhead)}
	if err := lr.need(logHeaderLen); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%w: short header (%v)", ErrLog, err)
	}
	hdr := lr.buf[:logHeaderLen]
	if [8]byte(hdr[:8]) != logMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrLog)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != logVersion {
		return nil, fmt.Errorf("%w: version %d", ErrLog, v)
	}
	lr.consume(logHeaderLen)
	return lr, nil
}

// Offset returns the stream offset of the next unconsumed entry: the
// resume cursor. Bytes read ahead of it are not counted.
func (lr *LogReader) Offset() int64 { return lr.off }

// SkipTo consumes input up to stream offset off, which must be an
// offset a reader of the same log returned from Offset. It reads the
// bytes rather than seeking, so a wrapped stream sees the same reads a
// run from the top would.
func (lr *LogReader) SkipTo(off int64) error {
	for lr.off < off {
		if err := lr.need(1); err != nil {
			return err
		}
		lr.consume(int(min(int64(lr.hi-lr.lo), off-lr.off)))
	}
	return nil
}

// resetAt drops the read-ahead and restarts at stream offset off, for
// a caller that has just seeked the underlying file there.
func (lr *LogReader) resetAt(off int64) {
	lr.lo, lr.hi, lr.off = 0, 0, off
}

// readPos is how far into the stream the reads have run: Offset plus
// the read-ahead. A file shorter than this has been truncated.
func (lr *LogReader) readPos() int64 { return lr.off + int64(lr.hi-lr.lo) }

func (lr *LogReader) consume(n int) {
	lr.lo += n
	lr.off += int64(n)
}

// need reads until n unconsumed bytes are buffered, returning io.EOF
// (nothing buffered) or io.ErrUnexpectedEOF (a partial entry is) when
// the input runs dry. Either way what was read stays buffered, so the
// reader is resumable.
func (lr *LogReader) need(n int) error {
	for lr.hi-lr.lo < n {
		if lr.lo > 0 {
			lr.hi = copy(lr.buf, lr.buf[lr.lo:lr.hi])
			lr.lo = 0
		}
		if len(lr.buf) < n {
			lr.buf = append(make([]byte, 0, n), lr.buf[:lr.hi]...)[:n]
		}
		m, err := lr.r.Read(lr.buf[lr.hi:])
		lr.hi += m
		if err != nil && lr.hi-lr.lo < n {
			if errors.Is(err, io.EOF) {
				if lr.hi == lr.lo {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// NextEntry returns the next whole datagram entry: its collector
// arrival time and the parsed datagram — one network datagram per call,
// the unit a UDP re-sender transmits. It returns io.EOF at a clean end
// of log and io.ErrUnexpectedEOF when the log stops mid-entry; after
// either it may be called again once the underlying reader has more
// data.
func (lr *LogReader) NextEntry() (simclock.Time, *Datagram, error) {
	at, body, err := lr.nextBody()
	if err != nil {
		return 0, nil, err
	}
	dg, err := ParseDatagram(body)
	if err != nil {
		return 0, nil, err
	}
	return at, dg, nil
}

// NextInto is NextEntry decoding into dst (ParseDatagramInto): the
// samples' Header bytes are views into the reader's buffer, valid until
// the next call.
func (lr *LogReader) NextInto(dst *Datagram) (simclock.Time, error) {
	at, body, err := lr.nextBody()
	if err != nil {
		return 0, err
	}
	if err := ParseDatagramInto(dst, body); err != nil {
		return 0, err
	}
	return at, nil
}

// nextBody frames the next whole entry: its arrival time and its
// datagram bytes, a view into the buffer valid until the next read.
func (lr *LogReader) nextBody() (simclock.Time, []byte, error) {
	if err := lr.need(12); err != nil {
		return 0, nil, err
	}
	ln := int(binary.LittleEndian.Uint32(lr.buf[lr.lo+8:]))
	if ln > maxLogDatagram {
		return 0, nil, fmt.Errorf("%w: %d-byte datagram entry", ErrLog, ln)
	}
	if err := lr.need(12 + ln); err != nil {
		return 0, nil, err
	}
	entry := lr.buf[lr.lo : lr.lo+12+ln]
	// The framing is intact, so the entry is consumed even when its
	// body is bad: the next call resyncs at the following entry
	// boundary instead of re-parsing the same bytes forever — one
	// corrupt datagram costs one error, not the whole tail.
	lr.consume(len(entry))
	return simclock.Time(int64(binary.LittleEndian.Uint64(entry))), entry[12:], nil
}
