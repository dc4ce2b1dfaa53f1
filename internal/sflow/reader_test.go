package sflow

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"dnsamp/internal/pcap"
	"dnsamp/internal/simclock"
)

// pcapImage encodes frames as a capture: perSecond frames to each arrival
// second, frame i filled with byte i.
func pcapImage(tb testing.TB, frames, perSecond int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 96)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		at := simclock.MeasurementStart.Add(simclock.Duration(i / perSecond))
		if err := w.WritePacket(at, uint32(i), 100+i, bytes.Repeat([]byte{byte(i)}, 20+i%50)); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// pcapEntry is one datagram a pcap RecordReader handed out, with Offset after it.
type pcapEntry struct {
	at  simclock.Time
	dg  Datagram
	off int64
}

// drainPCAP reads r to its end and returns what it handed out and the
// error it ended with.
func drainPCAP(r *RecordReader) ([]pcapEntry, error) {
	var out []pcapEntry
	for {
		var dg Datagram
		at, err := r.NextInto(&dg)
		if err != nil {
			return out, err
		}
		out = append(out, pcapEntry{at, dg, r.Offset()})
	}
}

// checkPCAPDatagrams holds a pcap RecordReader over raw to pcap.Reader: the
// datagrams' samples, flattened, are the capture's packets in order up
// to the first error, which both report; every datagram holds at most
// maxBatchSamples samples of one arrival second, numbered on from 1;
// Offset never decreases and counts the frames handed out; and SkipTo
// the Offset after a datagram (eight of them at most) resumes with
// exactly the ones after it.
func checkPCAPDatagrams(t *testing.T, raw []byte) {
	pr, perr := pcap.NewReader(bytes.NewReader(raw))
	r, err := NewPCAPReader(bytes.NewReader(raw), [4]byte{198, 18, 0, 1})
	if (perr == nil) != (err == nil) {
		t.Fatalf("header: pcap.NewReader %v, NewPCAPReader %v", perr, err)
	}
	if err != nil {
		return
	}
	var pkts []pcap.Packet
	for {
		p, err := pr.Next()
		if err != nil {
			perr = err
			break
		}
		pkts = append(pkts, p)
	}
	got, err := drainPCAP(r)
	if errors.Is(err, io.EOF) != errors.Is(perr, io.EOF) || err.Error() != perr.Error() {
		t.Fatalf("read ended with %v, pcap.Reader with %v", err, perr)
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, pcap.ErrFormat) {
		t.Fatalf("read ended with %v: neither an end nor a format error", err)
	}
	i := 0
	for k, e := range got {
		if n := len(e.dg.Samples); n == 0 || n > maxBatchSamples {
			t.Fatalf("datagram %d holds %d samples", k, n)
		}
		if e.dg.Seq != uint32(k+1) || e.dg.Uptime != uint32(e.at) {
			t.Fatalf("datagram %d: Seq %d, Uptime %d at %v", k, e.dg.Seq, e.dg.Uptime, e.at)
		}
		for _, s := range e.dg.Samples {
			p := pkts[i]
			i++
			if p.Time != e.at || !bytes.Equal(s.Header, p.Data) || s.FrameLen != uint32(p.Orig) || s.Seq != uint32(i) {
				t.Fatalf("datagram %d at %v: sample %+v, packet %d is %+v", k, e.at, s, i, p)
			}
		}
		if e.off != int64(i) {
			t.Fatalf("Offset after datagram %d = %d, want the %d frames handed out", k, e.off, i)
		}
	}
	if i != len(pkts) {
		t.Fatalf("datagrams hold %d samples, the capture %d packets", i, len(pkts))
	}
	for k := 0; k < len(got); k += max(1, len(got)/8) {
		r, err := NewPCAPReader(bytes.NewReader(raw), [4]byte{198, 18, 0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SkipTo(got[k].off); err != nil {
			t.Fatal(err)
		}
		rest, _ := drainPCAP(r)
		if len(rest)+len(got[k+1:]) > 0 && !reflect.DeepEqual(rest, got[k+1:]) {
			t.Fatalf("SkipTo(%d) read %d datagrams, want the %d after datagram %d", got[k].off, len(rest), len(got)-k-1, k)
		}
	}
}

// TestPCAPReader: whole, truncated mid-record at every length, and with
// more than maxBatchSamples frames to a second.
func TestPCAPReader(t *testing.T) {
	raw := pcapImage(t, 50, 5)
	checkPCAPDatagrams(t, raw)
	checkPCAPDatagrams(t, pcapImage(t, 150, 140))
	for cut := len(raw) - 1; cut > len(raw)-300; cut-- {
		checkPCAPDatagrams(t, raw[:cut])
	}

	r, err := NewPCAPReader(bytes.NewReader(raw[:len(raw)-3]), [4]byte{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainPCAP(r)
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 10 || r.Offset() != 49 {
		t.Fatalf("capture cut in frame 50: %d datagrams to frame %d, then %v; want 10 to frame 49, then io.ErrUnexpectedEOF",
			len(got), r.Offset(), err)
	}
}

func FuzzPCAPDatagrams(f *testing.F) {
	f.Add(pcapImage(f, 12, 4))
	f.Add(pcapImage(f, 70, 70)[:1500])
	f.Fuzz(checkPCAPDatagrams)
}
