// Real-capture ingestion: adapters that stream wire-format captures —
// an sFlow v5 datagram log or a classic pcap file — into a Replay's
// day batches through the same AddFrames sanitization path the
// synthetic wire tests use.
package source

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/pcap"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// IngestSFlowLog reads an entire sFlow datagram log (sflow.LogWriter's
// format) into the replay, grouping records by capture day. It returns
// the number of sampled frames ingested (before sanitization drops).
//
// A log that stops mid-entry (e.g. a partially flushed final write)
// ingests every complete entry and then reports an
// io.ErrUnexpectedEOF-wrapped error alongside the count of what was
// kept. Do not re-ingest the same log into the same Replay after such
// an error — days accumulate, so the retry would double-count; tail a
// live log with sflow.Tailer (a tail: input of the service) instead.
func (r *Replay) IngestSFlowLog(rd io.Reader) (int, error) {
	lr, err := sflow.NewLogReader(rd)
	if err != nil {
		return 0, err
	}
	var at simclock.Time
	var rest []sflow.FlowSample // of the entry being handed out
	return r.ingestFrames(func() (ecosystem.TaggedRecord, error) {
		for len(rest) == 0 {
			t, dg, err := lr.NextEntry()
			if err != nil {
				return ecosystem.TaggedRecord{}, err
			}
			at, rest = t, dg.Samples
		}
		fs := &rest[0]
		rest = rest[1:]
		rec := sflow.Record{Time: at, Frame: fs.Header, FrameLen: int(fs.FrameLen), Seq: uint64(fs.Seq)}
		return ecosystem.TaggedRecord{Rec: rec, Ingress: fs.Input}, nil
	})
}

// IngestPCAP reads a classic pcap capture into the replay, grouping
// frames by capture day. pcap carries no ingress-port metadata, so
// every record's ingress attribution is derived from its source
// address at consumption time. Returns the number of frames ingested.
func (r *Replay) IngestPCAP(rd io.Reader) (int, error) {
	pr, err := pcap.NewReader(rd)
	if err != nil {
		return 0, err
	}
	seq := uint64(0)
	return r.ingestFrames(func() (ecosystem.TaggedRecord, error) {
		p, err := pr.Next()
		if err != nil {
			return ecosystem.TaggedRecord{}, err
		}
		seq++
		return ecosystem.TaggedRecord{Rec: sflow.Record{
			Time:     p.Time,
			Frame:    p.Data,
			FrameLen: p.Orig,
			Seq:      seq,
		}}, nil
	})
}

// ingestChunk bounds how many records buffer between AddFrames
// flushes, so ingesting an arbitrarily large capture holds one chunk
// of owned frames plus the growing batches — not the whole file.
const ingestChunk = 1 << 16

// ingestFrames drains next until the stream ends, buffering records
// per capture day and flushing each day through AddFrames every
// ingestChunk records. Records may arrive in any day order and a day
// may flush in several chunks — AddFrames accumulates, and per-day
// record order is preserved, so the resulting batches are identical to
// a single whole-day call. Returns the number of frames ingested; a
// stream that ends in an error still flushes everything read before
// reporting it.
func (r *Replay) ingestFrames(next func() (ecosystem.TaggedRecord, error)) (int, error) {
	byDay := make(map[simclock.Time][]ecosystem.TaggedRecord)
	n, buffered := 0, 0
	flush := func() error {
		days := make([]simclock.Time, 0, len(byDay))
		for day := range byDay {
			days = append(days, day)
		}
		slices.Sort(days)
		for _, day := range days {
			if err := r.AddFrames(day, byDay[day], nil); err != nil {
				return fmt.Errorf("ingesting day %s: %w", day.Date(), err)
			}
			n += len(byDay[day])
			delete(byDay, day)
		}
		buffered = 0
		return nil
	}
	var streamErr error
	for {
		tr, err := next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				streamErr = err
			}
			break
		}
		day := tr.Rec.Time.StartOfDay()
		byDay[day] = append(byDay[day], tr)
		if buffered++; buffered >= ingestChunk {
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
