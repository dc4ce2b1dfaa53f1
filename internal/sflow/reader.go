package sflow

import (
	"bufio"
	"io"

	"dnsamp/internal/pcap"
	"dnsamp/internal/simclock"
)

// EntryReader is a durable input read as datagrams: a datagram log
// (LogReader), a log followed as it grows (Tailer), or a record stream
// batched into datagrams (RecordReader: a pcap capture's frames, a
// campaign's wire records). The service's tail:, replay:, pcap: and
// synthetic: inputs drain it in one loop, and the batch study reads
// logs and captures through the same readers. NextInto decodes the
// next datagram into dst, reusing its sample storage (the Header bytes
// it leaves are valid until the next call), and returns its arrival
// time, or
//
//   - io.EOF at a clean end of input;
//   - an error wrapping io.ErrUnexpectedEOF when the input stops
//     mid-entry, after every whole datagram before it was handed out
//     (from a Tailer, both ends mean "nothing more yet");
//   - an ErrDatagram error for one bad datagram body, skipped: the next
//     call resyncs at the following entry;
//   - any other error when the framing is gone: the read is over.
//
// Offset is the resume cursor just past the last datagram handed out:
// bytes consumed for a log, records for a RecordReader. A fresh reader
// of the same input resumes after it (SkipTo, or NewTailer's resumeAt).
type EntryReader interface {
	NextInto(dst *Datagram) (simclock.Time, error)
	Offset() int64
}

// RecordSource is a capture-time-ordered stream of sampled records,
// each with the input (ingress) tag its flow sample carries. Next
// returns io.EOF after the last record; any error ends the stream.
type RecordSource interface {
	Next() (Record, uint32, error)
}

// RecordReader batches a RecordSource into datagrams through a Batcher
// under one agent address and sampling rate: a pcap capture's frames
// at rate 1 (NewPCAPReader), a campaign's wire records at DefaultRate.
// Its cursor is a record count: the records through the last datagram
// handed out.
type RecordReader struct {
	src RecordSource
	b   Batcher

	n    int64 // records read
	off  int64 // records through the last datagram handed out
	skip int64 // datagrams ending at or before this record are dropped
	err  error // the read's end, returned once the open datagram is out
}

// NewRecordReader batches src into datagrams from agent, every flow
// sample recording rate as its sampling denominator.
func NewRecordReader(src RecordSource, agent [4]byte, rate uint32) *RecordReader {
	return &RecordReader{src: src, b: Batcher{Agent: agent, Rate: rate}}
}

// NewPCAPReader validates the capture's global header and reads it as
// datagrams: every frame is a rate-1 flow sample (a capture holds every
// packet) numbered by its position in the capture.
func NewPCAPReader(r io.Reader, agent [4]byte) (*RecordReader, error) {
	pr, err := pcap.NewReader(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	return NewRecordReader(&pcapFrames{pr: pr}, agent, 1), nil
}

// pcapFrames is a capture's packets as a RecordSource.
type pcapFrames struct {
	pr *pcap.Reader
	n  uint64
}

func (p *pcapFrames) Next() (Record, uint32, error) {
	pk, err := p.pr.Next()
	p.n++
	return Record{Time: pk.Time, Frame: pk.Data, FrameLen: pk.Orig, Seq: p.n}, 0, err
}

// Offset is the number of records through the last datagram handed out.
func (r *RecordReader) Offset() int64 { return r.off }

// SkipTo makes the reader drop every datagram that ends at or before
// record off. It re-batches from the top instead of seeking, so what
// follows carries the Seq numbers a full read gives it.
func (r *RecordReader) SkipTo(off int64) error {
	r.skip = off
	return nil
}

// NextInto decodes the next datagram into dst and returns its arrival
// second. Every Header is its record's own frame, so they stay valid
// after the next call too. When the stream ends, cleanly or not, the
// open datagram is handed out first and the end on the call after.
func (r *RecordReader) NextInto(dst *Datagram) (simclock.Time, error) {
	for r.err == nil {
		rec, input, err := r.src.Next()
		r.err = err
		var at simclock.Time
		took := false
		if err != nil || r.b.Full(rec.Time) {
			if at, took = r.b.TakeInto(dst); took {
				r.off = r.n
			}
		}
		if err == nil {
			r.n++
			r.b.Add(rec, input)
		}
		if took && r.off > r.skip {
			return at, nil
		}
	}
	return 0, r.err
}
