// Real-capture ingestion: an sFlow v5 datagram log or a classic pcap
// drained through its sflow.EntryReader — the reader the service's
// replay: and pcap: inputs use — into a Replay's day batches by
// AddFrames, the sanitization path the synthetic wire tests use.
package source

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// IngestSFlowLog reads an entire sFlow datagram log (sflow.LogWriter's
// format) into the replay, grouping records by capture day. It returns
// the number of sampled frames ingested (before sanitization drops).
//
// A datagram whose body does not parse is skipped and counted in
// Skipped. A log that stops mid-entry (e.g. a partially flushed final
// write) ingests every complete entry and then reports an
// io.ErrUnexpectedEOF-wrapped error beside the count of what was kept.
// Do not re-ingest the same log into the same Replay after such an
// error — days accumulate, so the retry would double-count; tail a live
// log with sflow.Tailer (a tail: input of the service) instead.
func (r *Replay) IngestSFlowLog(rd io.Reader) (int, error) {
	return r.ingest(sflow.NewLogReader(rd))
}

// IngestPCAP reads a classic pcap capture into the replay, grouping
// frames by capture day, under IngestSFlowLog's contract. pcap carries
// no ingress-port metadata, so every record's ingress attribution is
// derived from its source address at consumption time. Returns the
// number of frames ingested.
func (r *Replay) IngestPCAP(rd io.Reader) (int, error) {
	return r.ingest(sflow.NewPCAPReader(rd, [4]byte{}))
}

// Skipped counts the datagrams ingestion skipped for a malformed body.
func (r *Replay) Skipped() int { return r.skipped }

// ingestChunk bounds how many records buffer between AddFrames
// flushes, so ingesting an arbitrarily large capture holds one chunk
// of owned frames plus the growing batches — not the whole file.
const ingestChunk = 1 << 16

// ingest drains rd (unless opening it failed with err), buffering
// samples per capture day and flushing the days through AddFrames every
// ingestChunk records. Records may arrive in any day order and a day
// may flush in several chunks — AddFrames accumulates and per-day order
// is kept, so the batches equal one whole-day call's. A stream that
// ends in an error still flushes everything read before reporting it.
func (r *Replay) ingest(rd sflow.EntryReader, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	byDay := make(map[simclock.Time][]ecosystem.TaggedRecord)
	var frames []byte // the buffered records' frames: AddFrames keeps none
	n, buffered := 0, 0
	flush := func() error {
		for _, day := range slices.Sorted(maps.Keys(byDay)) {
			if err := r.AddFrames(day, byDay[day], nil); err != nil {
				return fmt.Errorf("ingesting day %s: %w", day.Date(), err)
			}
			n += len(byDay[day])
			delete(byDay, day)
		}
		frames, buffered = frames[:0], 0
		return nil
	}
	var dg sflow.Datagram
	var streamErr error
	for {
		at, err := rd.NextInto(&dg)
		if errors.Is(err, sflow.ErrDatagram) {
			r.skipped++
			continue
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				streamErr = err
			}
			break
		}
		day := at.StartOfDay()
		for _, fs := range dg.Samples {
			frames = append(frames, fs.Header...)
			frame := frames[len(frames)-len(fs.Header) : len(frames) : len(frames)]
			rec := sflow.Record{Time: at, Frame: frame, FrameLen: int(fs.FrameLen), Seq: uint64(fs.Seq)}
			byDay[day] = append(byDay[day], ecosystem.TaggedRecord{Rec: rec, Ingress: fs.Input})
		}
		if buffered += len(dg.Samples); buffered >= ingestChunk {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	if err := flush(); err != nil {
		return n, err
	}
	return n, streamErr
}
