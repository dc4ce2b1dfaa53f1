package scenario

import (
	"bufio"
	"errors"
	"io"
	"os"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/pcap"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// WireDay is the built scenario's frames of one day: the background
// generator's wire twin, then the scenario overlay. Re-ingesting them
// (source.IngestSFlowLog / IngestPCAP) reproduces the Built's canonical
// batch of that day as a row multiset, so detection scores are
// identical — the generator's Day/WireDay equivalence plus the pure
// per-day overlay guarantee it.
func (bt *Built) WireDay(day simclock.Time) []ecosystem.TaggedRecord {
	return append(bt.Env.Gen.WireDay(day).IXP, bt.overlay(day)...)
}

// WireStream streams the scenario window's frames in capture-time order
// (a collector's log is arrival-ordered; generation order is per-flow).
func (bt *Built) WireStream() *ecosystem.WireStream {
	return ecosystem.NewWireStream(bt.Env.P.Window().Start, bt.Env.P.Days, func(day simclock.Time) ([]ecosystem.TaggedRecord, error) {
		return bt.WireDay(day), nil
	})
}

// ExportWire writes the scenario's wire stream to an sFlow v5 datagram
// log and/or a classic pcap file (empty path = skip that format). It
// returns the number of sampled frames written.
func (bt *Built) ExportWire(sflowPath, pcapPath string) (int, error) {
	return WriteWire(bt.WireStream(), sflowPath, pcapPath)
}

// WriteWire writes a time-ordered record stream to the requested
// capture formats as it reads it and returns the frame count. The sFlow log
// carries ingress-port annotations; classic pcap cannot (re-ingesting a
// pcap loses spoofed-ingress attribution, which does not affect
// detection scores).
func WriteWire(src sflow.RecordSource, sflowPath, pcapPath string) (n int, err error) {
	var closers []func() error
	defer func() {
		// Flush writers innermost-last: closers were appended
		// file-then-buffer, so walk them in reverse. Every file is
		// closed; the first failure is the one reported.
		for i := len(closers) - 1; i >= 0; i-- {
			if cerr := closers[i](); err == nil {
				err = cerr
			}
		}
		if err != nil {
			n = 0
		}
	}()
	create := func(path string) (io.Writer, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		bw := bufio.NewWriter(f)
		closers = append(closers, f.Close, bw.Flush)
		return bw, nil
	}
	var lw *sflow.LogWriter
	var pw *pcap.Writer
	if sflowPath != "" {
		w, err := create(sflowPath)
		if err == nil {
			lw, err = sflow.NewLogWriter(w, [4]byte{192, 0, 2, 1}, sflow.DefaultRate)
		}
		if err != nil {
			return 0, err
		}
	}
	if pcapPath != "" {
		w, err := create(pcapPath)
		if err == nil {
			pw, err = pcap.NewWriter(w, sflow.DefaultSnaplen)
		}
		if err != nil {
			return 0, err
		}
	}
	for ; ; n++ {
		rec, ingress, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil && lw != nil {
			err = lw.Add(rec, ingress)
		}
		if err == nil && pw != nil {
			err = pw.WritePacket(rec.Time, 0, rec.FrameLen, rec.Frame)
		}
		if err != nil {
			return 0, err
		}
	}
	if lw != nil {
		return n, lw.Flush()
	}
	return n, nil
}
