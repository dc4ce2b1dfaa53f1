package sflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"
)

// bigLog is a log of several read-ahead chunks (26 entries, 175 KiB), so offsets are checked across refills and compactions and
// not only inside the first chunk.
func bigLog(tb testing.TB) []byte {
	raw := testLog(tb, 1300, 200)
	if len(raw) < 2*readAhead {
		tb.Fatalf("log is %d bytes, want more than two %d-byte chunks", len(raw), readAhead)
	}
	return raw
}

// testLog encodes logRecordsN(n, perSecond) as a log image.
func testLog(tb testing.TB, n, perSecond int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	recs, inputs := logRecordsN(n, perSecond)
	writeRecords(tb, &buf, recs, inputs)
	return buf.Bytes()
}

// entryEnds walks the framing of a log image and returns the offset
// just past each entry.
func entryEnds(raw []byte) []int64 {
	var ends []int64
	for off := logHeaderLen; off < len(raw); {
		off += 12 + int(binary.LittleEndian.Uint32(raw[off+8:]))
		ends = append(ends, int64(off))
	}
	return ends
}

// stutterReader serves data up to each limit in turn, reporting io.EOF
// once at every limit before moving on: a file that grows while it is
// being tailed, observed at its worst moments.
type stutterReader struct {
	data   []byte
	limits []int
	off    int
}

func (s *stutterReader) Read(p []byte) (int, error) {
	limit := len(s.data)
	if len(s.limits) > 0 {
		limit = s.limits[0]
	}
	if s.off >= limit {
		if len(s.limits) > 0 {
			s.limits = s.limits[1:]
		}
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:limit])
	s.off += n
	return n, nil
}

// TestLogReaderOffsetExact: however the bytes arrive — whole chunks,
// one at a time, halved reads, data delivered together with EOF, or a
// stream that reports EOF inside an entry header and inside an entry
// body before more arrives — Offset after every NextEntry is that
// entry's end, end-of-input never moves it, SkipTo an offset yields
// exactly the entries after it, and a Tailer opened at each offset
// yields exactly the remaining entries.
func TestLogReaderOffsetExact(t *testing.T) {
	raw := bigLog(t)
	ends := entryEnds(raw)
	want := cloneDatagrams(logEntries(t, raw))
	if len(want) != len(ends) {
		t.Fatalf("%d entries decoded, %d framed", len(want), len(ends))
	}
	// EOF five bytes into every entry header and seven into every body.
	var limits []int
	for _, end := range append([]int64{logHeaderLen}, ends[:len(ends)-1]...) {
		limits = append(limits, int(end)+5, int(end)+12+7)
	}
	readers := []struct {
		name string
		wrap func([]byte) io.Reader
	}{
		{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"data-with-eof", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
		{"eof-mid-entry", func(b []byte) io.Reader { return &stutterReader{data: b, limits: limits} }},
	}
	// drain reads lr from entry index first to its end, checking Offset
	// at every step. A stutter reports end of input at most three times
	// running (a body limit, the next header limit, then data), so four
	// in a row is the real end.
	drain := func(t *testing.T, lr *LogReader, first int) []Datagram {
		t.Helper()
		var got []Datagram
		for dry := 0; dry < 4; {
			before := lr.Offset()
			_, dg, err := lr.NextEntry()
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				if lr.Offset() != before {
					t.Fatalf("end of input moved Offset %d -> %d", before, lr.Offset())
				}
				dry++
				continue
			}
			if err != nil {
				t.Fatalf("entry %d: %v", first+len(got), err)
			}
			dry = 0
			if i := first + len(got); i >= len(ends) || lr.Offset() != ends[i] {
				t.Fatalf("Offset after entry %d = %d, want its end (%v)", i, lr.Offset(), ends[min(i, len(ends)-1)])
			}
			got = append(got, *dg)
		}
		return got
	}
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			lr, err := NewLogReader(rd.wrap(raw))
			if err != nil {
				t.Fatal(err)
			}
			if lr.Offset() != logHeaderLen {
				t.Fatalf("Offset after the header = %d, want %d", lr.Offset(), logHeaderLen)
			}
			if got := drain(t, lr, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("read %d entries, want %d identical to a straight read", len(got), len(want))
			}

			mid := len(ends) / 2
			lr, err = NewLogReader(rd.wrap(raw))
			if err != nil {
				t.Fatal(err)
			}
			for err = io.EOF; err != nil; { // a stutter interrupts the skip too
				if err = lr.SkipTo(ends[mid]); err != nil && !errors.Is(err, io.EOF) {
					t.Fatalf("SkipTo(%d): %v", ends[mid], err)
				}
			}
			if got := drain(t, lr, mid+1); !reflect.DeepEqual(got, want[mid+1:]) {
				t.Fatalf("after SkipTo read %d entries, want the last %d", len(got), len(want)-mid-1)
			}
		})
	}

	path := filepath.Join(t.TempDir(), "feed.sflowlog")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, end := range ends {
		tl, err := NewTailer(path, end)
		if err != nil {
			t.Fatalf("NewTailer at %d: %v", end, err)
		}
		if tl.Offset() != end {
			t.Fatalf("resumed Offset = %d, want %d", tl.Offset(), end)
		}
		got := cloneDatagrams(drainTailer(t, tl, nil))
		tl.Close()
		if !reflect.DeepEqual(got, want[i+1:]) && len(got)+len(want[i+1:]) > 0 {
			t.Fatalf("tailer from entry %d's end read %d entries, want the remaining %d", i, len(got), len(want)-i-1)
		}
	}
}

// TestTailerStaleInsideReadAhead: a file cut to a size the reader has
// consumed past is stale, and so is one cut to a size between what was
// consumed and what was read ahead — the buffered tail no longer exists
// on disk. The entries read before the cut are still delivered, then
// the tailer reopens.
func TestTailerStaleInsideReadAhead(t *testing.T) {
	raw := bigLog(t)
	ends := entryEnds(raw)
	path := filepath.Join(t.TempDir(), "feed.sflowlog")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := NewTailer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, err := tl.NextInto(new(Datagram)); err != nil {
		t.Fatal(err)
	}
	consumed, read := tl.Offset(), tl.lr.readPos()
	if consumed != ends[0] || read < consumed+readAhead/2 {
		t.Fatalf("consumed %d, read %d: the reader did not run ahead", consumed, read)
	}
	if tl.stale() {
		t.Fatal("stale before any truncation")
	}
	cut := ends[3] + 20 // past what was consumed, inside what was read
	if cut >= read {
		t.Fatalf("cut %d is outside the read-ahead [%d, %d)", cut, consumed, read)
	}
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	if !tl.stale() {
		t.Fatalf("file cut to %d, reader at %d with reads to %d: not reported stale", cut, consumed, read)
	}

	buffered := 0
	for _, end := range ends[1:] {
		if end <= read {
			buffered++
		}
	}
	got := drainTailer(t, tl, nil)
	// What was buffered before the cut, then the cut file from the top:
	// its four whole entries.
	if len(got) != buffered+4 || tl.Reopens() != 1 {
		t.Fatalf("after the cut: %d entries and %d reopens, want %d+4 entries and 1 reopen", len(got), tl.Reopens(), buffered)
	}
}

// BenchmarkLogWriter writes the records of BenchmarkLogReaderNextEntry's
// log, one sample per entry, to io.Discard, one iteration per record:
// the encoding a wire export or a recording pays per sampled frame,
// apart from its file writes.
func BenchmarkLogWriter(b *testing.B) {
	recs, inputs := logRecordsN(20000, 1)
	lw, err := NewLogWriter(io.Discard, [4]byte{198, 51, 100, 7}, DefaultRate)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(recs)
		if err := lw.Add(recs[j], inputs[j]); err != nil {
			b.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		b.Fatal(err)
	}
}

var sinkDatagram *Datagram

// BenchmarkLogReaderNextEntry reads a log from a real file, one
// iteration per entry, so the read(2) calls an entry costs show next to
// the parse. Entries hold one sample each, as a sampled IXP feed's
// mostly do (the repository benchmark's recording averages 1.1).
func BenchmarkLogReaderNextEntry(b *testing.B) {
	raw := testLog(b, 20000, 1)
	path := filepath.Join(b.TempDir(), "feed.sflowlog")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw) / len(entryEnds(raw))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		lr, err := NewLogReader(f)
		if err != nil {
			b.Fatal(err)
		}
		for ; i < b.N; i++ {
			_, dg, err := lr.NextEntry()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			sinkDatagram = dg
		}
		f.Close()
	}
}
