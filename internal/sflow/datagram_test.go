package sflow

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dnsamp/internal/simclock"
)

var update = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

func sampleDatagram() *Datagram {
	return &Datagram{
		Agent:    [4]byte{192, 0, 2, 1},
		SubAgent: 3,
		Seq:      41,
		Uptime:   123456,
		Samples: []FlowSample{
			{Seq: 7, SourceID: 1, Rate: 16384, Pool: 7 * 16384, Input: 64496,
				FrameLen: 1398, Header: bytes.Repeat([]byte{0xab, 0xcd}, 64)},
			{Seq: 8, SourceID: 1, Rate: 16384, Pool: 8 * 16384, Drops: 2, Output: 9,
				FrameLen: 90, Header: []byte{1, 2, 3}}, // odd length: exercises padding
		},
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	want := sampleDatagram()
	enc := EncodeDatagram(want)
	got, err := ParseDatagram(enc)
	if err != nil {
		t.Fatalf("ParseDatagram: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	// Parsed samples must own their bytes: zeroing the encoded buffer
	// must leave the headers intact (the read-buffer-reuse contract).
	for i := range enc {
		enc[i] = 0
	}
	if !bytes.Equal(got.Samples[0].Header, want.Samples[0].Header) {
		t.Fatal("parsed header aliases the input buffer")
	}
}

// TestFlowSampleRecord pins the sample → capture record conversion the
// service's consumer and replay ingest share.
func TestFlowSampleRecord(t *testing.T) {
	fs := sampleDatagram().Samples[0]
	at := simclock.MeasurementStart.Add(5)
	rec := fs.Record(at)
	if rec.Time != at || rec.FrameLen != 1398 || rec.Seq != 7 || &rec.Frame[0] != &fs.Header[0] || len(rec.Frame) != len(fs.Header) {
		t.Fatalf("Record(%v) of %+v = %+v", at, fs, rec)
	}
}

func TestParseDatagramRejects(t *testing.T) {
	valid := EncodeDatagram(sampleDatagram())
	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid[:20],
		"truncated body": valid[:len(valid)-5],
		"trailing bytes": append(append([]byte{}, valid...), 0, 0, 0, 0),
	}
	wrongVersion := append([]byte{}, valid...)
	wrongVersion[3] = 4
	cases["version 4"] = wrongVersion
	for name, b := range cases {
		if _, err := ParseDatagram(b); !errors.Is(err, ErrDatagram) {
			t.Errorf("%s: err = %v, want ErrDatagram", name, err)
		}
	}
}

func TestParseDatagramSkipsUnknownSamples(t *testing.T) {
	// A counter sample (type 2) followed by a flow sample: the parser
	// must skip the former via its length field and keep the latter.
	d := sampleDatagram()
	d.Samples = d.Samples[:1]
	enc := EncodeDatagram(d)
	var spliced []byte
	spliced = append(spliced, enc[:28]...)
	spliced[27] = 2                                                           // sample count: counter sample + flow sample
	spliced = append(spliced, 0, 0, 0, 2, 0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef) // type 2, len 4
	spliced = append(spliced, enc[28:]...)
	got, err := ParseDatagram(spliced)
	if err != nil {
		t.Fatalf("ParseDatagram: %v", err)
	}
	if len(got.Samples) != 1 || !reflect.DeepEqual(got.Samples[0], d.Samples[0]) {
		t.Fatalf("spliced parse = %+v, want the one flow sample", got.Samples)
	}
}

// FuzzParseDatagram holds ParseDatagramInto, decoding into one reused
// destination, to ParseDatagram on every input (the same error, or the
// same fields), and what parses to a canonical re-encoding.
func FuzzParseDatagram(f *testing.F) {
	f.Add(EncodeDatagram(sampleDatagram()))
	f.Add(EncodeDatagram(&Datagram{}))
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 1})
	var into Datagram
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := ParseDatagram(b)
		ierr := ParseDatagramInto(&into, b)
		if fmt.Sprint(err) != fmt.Sprint(ierr) {
			t.Fatalf("ParseDatagram error %v, ParseDatagramInto error %v", err, ierr)
		}
		if err != nil {
			return
		}
		if !sameDatagram(d, &into) {
			t.Fatalf("ParseDatagramInto decoded\n%+v\nParseDatagram\n%+v", &into, d)
		}
		// Whatever parses must re-encode canonically: a second parse of
		// the re-encoding yields the same datagram (unknown sample and
		// record types do not survive, so equality is on the parsed form).
		enc := EncodeDatagram(d)
		d2, err := ParseDatagram(enc)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("re-encode not canonical:\nfirst  %+v\nsecond %+v", d, d2)
		}
	})
}

// sameDatagram compares two decoded datagrams field by field and their
// headers by content, so a nil header equals an empty one.
func sameDatagram(a, b *Datagram) bool {
	if a.Agent != b.Agent || a.SubAgent != b.SubAgent || a.Seq != b.Seq || a.Uptime != b.Uptime ||
		len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		x, y := a.Samples[i], b.Samples[i]
		if !bytes.Equal(x.Header, y.Header) {
			return false
		}
		x.Header, y.Header = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// BenchmarkParseDatagram decodes a datagram of one flow sample with a
// full 128-byte header (sampleDatagram's first), the shape a sampled
// IXP feed mostly sends. It is the one hop the UDP and the file inputs
// share: the reference decode allocates 3 times, the live path's
// ParseDatagramInto (the "into" case) never.
func BenchmarkParseDatagram(b *testing.B) {
	d := sampleDatagram()
	d.Samples = d.Samples[:1]
	raw := EncodeDatagram(d)
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dg, err := ParseDatagram(raw)
			if err != nil {
				b.Fatal(err)
			}
			sinkDatagram = dg
		}
	})
	b.Run("into", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		var dg Datagram
		for i := 0; i < b.N; i++ {
			if err := ParseDatagramInto(&dg, raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// logRecords is the deterministic record set used by the log tests and
// the committed golden fixture: two arrival seconds.
func logRecords() ([]Record, []uint32) { return logRecordsN(130, 70) }

// logRecordsN builds n records, perSecond of them sharing each arrival
// second (so at most that many, and at most maxBatchSamples, per entry).
func logRecordsN(n, perSecond int) ([]Record, []uint32) {
	base := simclock.MeasurementStart
	var recs []Record
	var inputs []uint32
	for i := 0; i < n; i++ {
		frame := make([]byte, 40+i%64)
		for j := range frame {
			frame[j] = byte(i + j)
		}
		recs = append(recs, Record{
			Time:     base.Add(simclock.Duration(i / perSecond)),
			Frame:    frame,
			FrameLen: 1200 + i,
			Seq:      uint64(i + 1),
		})
		inputs = append(inputs, uint32(i%3)*64500)
	}
	return recs, inputs
}

func writeLog(t *testing.T, w io.Writer) ([]Record, []uint32) {
	t.Helper()
	recs, inputs := logRecords()
	writeRecords(t, w, recs, inputs)
	return recs, inputs
}

func writeRecords(tb testing.TB, w io.Writer, recs []Record, inputs []uint32) {
	tb.Helper()
	lw, err := NewLogWriter(w, [4]byte{198, 51, 100, 7}, DefaultRate)
	if err != nil {
		tb.Fatalf("NewLogWriter: %v", err)
	}
	for i, rec := range recs {
		if err := lw.Add(rec, inputs[i]); err != nil {
			tb.Fatalf("Add: %v", err)
		}
	}
	if err := lw.Flush(); err != nil {
		tb.Fatalf("Flush: %v", err)
	}
}

// matchEntry checks one log entry against the records it was written
// from — recs[0] onwards — and returns how many of them it held.
func matchEntry(tb testing.TB, at simclock.Time, dg *Datagram, recs []Record, inputs []uint32) int {
	tb.Helper()
	if len(dg.Samples) > len(recs) {
		tb.Fatalf("entry holds %d samples, only %d records were left to read", len(dg.Samples), len(recs))
	}
	for i := range dg.Samples {
		fs, want := &dg.Samples[i], recs[i]
		if at != want.Time || !bytes.Equal(fs.Header, want.Frame) || int(fs.FrameLen) != want.FrameLen ||
			uint64(fs.Seq) != want.Seq || fs.Input != inputs[i] {
			tb.Fatalf("sample %d of the entry: got %+v at %v input %d, want %+v input %d", i, *fs, at, fs.Input, want, inputs[i])
		}
	}
	return len(dg.Samples)
}

// readLog reads entries until lr reports an error, checking them
// against recs[from:], and returns the record index reached with that
// error (io.EOF at a clean end).
func readLog(tb testing.TB, lr *LogReader, from int, recs []Record, inputs []uint32) (int, error) {
	tb.Helper()
	for {
		at, dg, err := lr.NextEntry()
		if err != nil {
			return from, err
		}
		from += matchEntry(tb, at, dg, recs[from:], inputs[from:])
	}
}

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs, inputs := writeLog(t, &buf)

	lr, err := NewLogReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewLogReader: %v", err)
	}
	if n, err := readLog(t, lr, 0, recs, inputs); err != io.EOF || n != len(recs) {
		t.Fatalf("read %d of %d records, err = %v, want all and io.EOF", n, len(recs), err)
	}
}

// TestLogReaderNextEntry checks the shape of what NextEntry hands out:
// one network datagram at a time with its arrival timestamp, arrival
// times non-decreasing, 1..64 samples each, all records covered.
func TestLogReaderNextEntry(t *testing.T) {
	var buf bytes.Buffer
	recs, inputs := writeLog(t, &buf)

	lr, err := NewLogReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewLogReader: %v", err)
	}
	i := 0
	entries := 0
	lastT := simclock.Time(-1)
	for {
		at, dg, err := lr.NextEntry()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("entry %d: %v", entries, err)
		}
		entries++
		if at.Before(lastT) {
			t.Fatalf("entry %d: arrival time went backwards (%v after %v)", entries, at, lastT)
		}
		lastT = at
		if len(dg.Samples) == 0 || len(dg.Samples) > 64 {
			t.Fatalf("entry %d: %d samples, want 1..64", entries, len(dg.Samples))
		}
		i += matchEntry(t, at, dg, recs[i:], inputs[i:])
	}
	if i != len(recs) {
		t.Fatalf("NextEntry yielded %d samples, want %d", i, len(recs))
	}
	if entries < 2 {
		t.Fatalf("fixture produced %d entries; want several", entries)
	}
}

// TestLogReaderResumes drives the tail path: a reader that hits a
// mid-entry end of input must report io.ErrUnexpectedEOF and pick up
// exactly where it stopped once more bytes arrive.
func TestLogReaderResumes(t *testing.T) {
	var buf bytes.Buffer
	recs, inputs := writeLog(t, &buf)
	full := buf.Bytes()

	cut := len(full) - 37 // mid-entry
	grow := &growingReader{data: full[:cut]}
	lr, err := NewLogReader(grow)
	if err != nil {
		t.Fatalf("NewLogReader: %v", err)
	}
	n, err := readLog(t, lr, 0, recs, inputs)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("first pass: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if n == 0 || n >= len(recs) {
		t.Fatalf("first pass read %d of %d records; cut point did not split the log", n, len(recs))
	}
	grow.data = full // the "file" grew
	if n, err = readLog(t, lr, n, recs, inputs); err != io.EOF || n != len(recs) {
		t.Fatalf("resumed read ended at %d of %d records, err = %v", n, len(recs), err)
	}
}

// growingReader serves from a byte slice that the test may extend
// between reads, emulating tail -f on a growing file.
type growingReader struct {
	data []byte
	off  int
}

func (g *growingReader) Read(p []byte) (int, error) {
	if g.off >= len(g.data) {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:])
	g.off += n
	return n, nil
}

func TestLogReaderRejects(t *testing.T) {
	var buf bytes.Buffer
	writeLog(t, &buf)
	full := buf.Bytes()

	if _, err := NewLogReader(bytes.NewReader([]byte("notSFlow....more"))); !errors.Is(err, ErrLog) {
		t.Errorf("bad magic: err = %v, want ErrLog", err)
	}
	if _, err := NewLogReader(bytes.NewReader(full[:5])); !errors.Is(err, ErrLog) {
		t.Errorf("short header: err = %v, want ErrLog", err)
	}
	// Oversized entry length must fail cleanly, not allocate.
	huge := append([]byte{}, full[:12]...)
	huge = append(huge, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f)
	lr, err := NewLogReader(bytes.NewReader(huge))
	if err != nil {
		t.Fatalf("NewLogReader: %v", err)
	}
	if _, _, err := lr.NextEntry(); !errors.Is(err, ErrLog) {
		t.Errorf("oversized entry: err = %v, want ErrLog", err)
	}
}

// TestGoldenLog pins the on-disk format: the committed fixture must
// both re-read to the canonical record set and be byte-identical to
// what today's writer produces (format drift breaks replayability of
// previously captured logs).
func TestGoldenLog(t *testing.T) {
	path := filepath.Join("testdata", "golden.sflowlog")
	var buf bytes.Buffer
	recs, inputs := writeLog(t, &buf)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(disk, buf.Bytes()) {
		t.Fatalf("writer output drifted from the committed fixture (%d vs %d bytes); run with -update only if the format version changed", len(buf.Bytes()), len(disk))
	}
	lr, err := NewLogReader(bytes.NewReader(disk))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := readLog(t, lr, 0, recs, inputs); err != io.EOF || n != len(recs) {
		t.Fatalf("fixture re-read %d of %d records, err = %v", n, len(recs), err)
	}
}
