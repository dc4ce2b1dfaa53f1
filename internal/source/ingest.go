// Real-capture ingestion: an sFlow v5 datagram log or a classic pcap
// drained through its sflow.EntryReader — the reader the service's
// replay: and pcap: inputs use — and sanitized as it is read: each
// datagram's samples run through one capture point's Sanitize, the
// step the live service's Process takes too, into the owned batch of
// their capture day, by the per-frame step AppendFrames uses.
package source

import (
	"errors"
	"fmt"
	"io"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/sflow"
)

// IngestSFlowLog reads an entire sFlow datagram log (sflow.LogWriter's
// format) into the replay, sanitizing each sampled frame into the batch
// of its capture day. It returns the number of sampled frames ingested
// (before sanitization drops).
//
// A datagram whose body does not parse is skipped and counted in
// Skipped. A log that stops mid-entry (e.g. a partially flushed final
// write) ingests every complete entry and then reports an
// io.ErrUnexpectedEOF-wrapped error beside the count of what was kept.
// Days accumulate across calls, so do not re-ingest the same log into
// the same Replay after such an error — the retry would double-count;
// tail a live log with sflow.Tailer (a tail: input of the service)
// instead. A day recorded by AddDay refuses ingestion: its batch is
// shared with its producer (Record does not copy), so appending would
// mutate state the replay does not own.
func (r *Replay) IngestSFlowLog(rd io.Reader) (int, error) {
	return r.ingest(sflow.NewLogReader(rd))
}

// IngestPCAP reads a classic pcap capture into the replay under
// IngestSFlowLog's contract. pcap carries no ingress-port metadata, so
// every record's ingress attribution is derived from its source address
// at consumption time. Returns the number of frames ingested.
func (r *Replay) IngestPCAP(rd io.Reader) (int, error) {
	return r.ingest(sflow.NewPCAPReader(rd, [4]byte{}))
}

// Skipped counts the datagrams ingestion skipped for a malformed body.
func (r *Replay) Skipped() int { return r.skipped }

// ingest drains rd (unless opening it failed with err), sanitizing each
// datagram's samples while the reader's header views are valid.
// Records may arrive in any day order: each lands in its day's batch in
// arrival order. A stream that ends in an error keeps everything read
// before reporting it.
func (r *Replay) ingest(rd sflow.EntryReader, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	cp := ixp.NewCapturePoint(nil, r.tab)
	var dg sflow.Datagram
	n := 0
	for {
		at, err := rd.NextInto(&dg)
		switch {
		case errors.Is(err, sflow.ErrDatagram):
			r.skipped++
			continue
		case errors.Is(err, io.EOF):
			return n, nil
		case err != nil:
			return n, err
		}
		b, err := r.ownedBatch(at)
		if err != nil {
			return n, fmt.Errorf("ingesting day %s: %w", at.Date(), err)
		}
		for _, fs := range dg.Samples {
			appendFrame(cp, b, fs.Record(at), fs.Input)
		}
		n += len(dg.Samples)
	}
}

// AppendFrames sanitizes sampled wire frames into b, interning names
// into b.Table: each frame runs through ixp.CapturePoint.Sanitize
// (§3.1) and is counted on b, survivors appended in arrival order with
// their ingress-port tags.
// AS annotation happens at consumption time, not here, so a recorded
// day can be replayed against any routing substrate.
func AppendFrames(b *ixp.SampleBatch, recs []ecosystem.TaggedRecord) {
	cp := ixp.NewCapturePoint(nil, b.Table)
	b.Grow(len(recs))
	for _, tr := range recs {
		appendFrame(cp, b, tr.Rec, tr.Ingress)
	}
}

// appendFrame is the one sanitization step of AppendFrames and
// ingestion: rec is sanitized by cp and counted on b, a survivor
// appended with its ingress tag.
func appendFrame(cp *ixp.CapturePoint, b *ixp.SampleBatch, rec sflow.Record, ingress uint32) {
	var s ixp.DNSSample
	if b.Count(cp.Sanitize(rec, &s)) {
		s.Ingress = ingress
		b.Append(s.BatchRecord)
	}
}
