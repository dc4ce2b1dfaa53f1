package sflow

import (
	"bufio"
	"io"

	"dnsamp/internal/pcap"
	"dnsamp/internal/simclock"
)

// EntryReader is a capture read as datagrams, one reader per format
// (LogReader, PCAPReader), so the service's file inputs and the batch
// study's ingestion read the same bytes the same way. NextEntry returns
// the next datagram with its arrival time, or
//
//   - io.EOF at a clean end of input;
//   - an error wrapping io.ErrUnexpectedEOF when the input stops
//     mid-entry, after every whole datagram before it was handed out;
//   - an ErrDatagram error for one bad datagram body, skipped: the next
//     call resyncs at the following entry;
//   - any other error when the framing is gone: the read is over.
//
// NextInto is NextEntry decoding into a caller's datagram, reusing its
// sample storage; the Header bytes it leaves are valid until the next
// call.
//
// Offset is the resume cursor just past the last datagram handed out;
// SkipTo(cursor) on a fresh reader of the same input resumes after it.
type EntryReader interface {
	NextEntry() (simclock.Time, *Datagram, error)
	NextInto(dst *Datagram) (simclock.Time, error)
	Offset() int64
	SkipTo(off int64) error
}

// PCAPReader reads a classic pcap capture as datagrams: every frame is
// a rate-1 flow sample (a capture holds every packet), batched by a
// Batcher under the given agent address. Its cursor is a frame count.
type PCAPReader struct {
	pr *pcap.Reader
	b  Batcher

	frames int64 // frames read
	off    int64 // frames through the last datagram handed out
	skip   int64 // datagrams ending at or before this frame are dropped
	err    error // the read's end, returned once the open datagram is out
}

// NewPCAPReader validates the capture's global header.
func NewPCAPReader(r io.Reader, agent [4]byte) (*PCAPReader, error) {
	pr, err := pcap.NewReader(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	return &PCAPReader{pr: pr, b: Batcher{Agent: agent, Rate: 1}}, nil
}

// Offset is the number of frames through the last datagram handed out.
func (r *PCAPReader) Offset() int64 { return r.off }

// SkipTo makes the reader drop every datagram that ends at or before
// frame off. It re-batches from the top instead of seeking, so what
// follows carries the Seq numbers a full read gives it.
func (r *PCAPReader) SkipTo(off int64) error {
	r.skip = off
	return nil
}

// NextEntry returns the next datagram and its arrival second. When the
// capture ends, cleanly or not, the open datagram is handed out first
// and the end on the call after.
func (r *PCAPReader) NextEntry() (simclock.Time, *Datagram, error) {
	dg := new(Datagram)
	at, err := r.NextInto(dg)
	if err != nil {
		return 0, nil, err
	}
	return at, dg, nil
}

// NextInto is NextEntry into dst: every Header is its frame's own
// bytes, so they stay valid after the next call too.
func (r *PCAPReader) NextInto(dst *Datagram) (simclock.Time, error) {
	for r.err == nil {
		p, err := r.pr.Next()
		r.err = err
		var at simclock.Time
		took := false
		if err != nil || r.b.Full(p.Time) {
			if at, took = r.b.TakeInto(dst); took {
				r.off = r.frames
			}
		}
		if err == nil {
			r.frames++
			r.b.Add(Record{Time: p.Time, Frame: p.Data, FrameLen: p.Orig, Seq: uint64(r.frames)}, 0)
		}
		if took && r.off > r.skip {
			return at, nil
		}
	}
	return 0, r.err
}
