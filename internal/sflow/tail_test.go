package sflow

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// logEntries decodes every entry of an in-memory log image — the
// reference a Tailer's output is compared against.
func logEntries(t *testing.T, raw []byte) []*Datagram {
	t.Helper()
	lr, err := NewLogReader(newSliceReader(raw))
	if err != nil {
		t.Fatalf("NewLogReader: %v", err)
	}
	var out []*Datagram
	for {
		_, dg, err := lr.NextEntry()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return out
		}
		if err != nil {
			t.Fatalf("NextEntry: %v", err)
		}
		out = append(out, dg)
	}
}

// newSliceReader wraps a byte slice in a plain io.Reader (bytes.Reader
// would also work; this keeps imports flat).
func newSliceReader(b []byte) io.Reader {
	return &sliceReader{b: b}
}

type sliceReader struct{ b []byte }

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

// writeLogFile writes the canonical test log to path and returns its
// raw bytes.
func writeLogFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	writeLog(t, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// drainTailer reads entries until end of input, appending to got.
func drainTailer(t *testing.T, tl *Tailer, got []*Datagram) []*Datagram {
	t.Helper()
	var dg Datagram
	for {
		_, err := tl.NextInto(&dg)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return got
		}
		if err != nil {
			t.Fatalf("NextInto: %v", err)
		}
		// Re-parse the encoding: a copy that owns its header bytes.
		own, err := ParseDatagram(EncodeDatagram(&dg))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, own)
	}
}

// cloneDatagrams deep-copies parsed datagrams: the reader reuses its
// entry buffer, and parsed samples own their headers but the Datagram
// struct itself is reallocated per entry, so a shallow collect is
// already safe — this helper just documents that and snapshots values.
func cloneDatagrams(dgs []*Datagram) []Datagram {
	out := make([]Datagram, len(dgs))
	for i, d := range dgs {
		out[i] = *d
	}
	return out
}

// TestTailerFollowsGrowth: a tailer drains a partial log, reports end
// of input, and continues with the appended remainder — including when
// the cut lands mid-entry.
func TestTailerFollowsGrowth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.sflowlog")
	raw := writeLogFile(t, path)
	want := logEntries(t, raw)
	if len(want) < 3 {
		t.Fatalf("test log has only %d entries", len(want))
	}

	// Start with a prefix that ends mid-entry.
	cut := len(raw) - len(raw)/3
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := NewTailer(path, 0)
	if err != nil {
		t.Fatalf("NewTailer: %v", err)
	}
	defer tl.Close()

	got := drainTailer(t, tl, nil)
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("drained %d entries from the prefix, want 1..%d", len(got), len(want)-1)
	}

	// Append the rest; the tailer resumes mid-entry without reopening.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got = drainTailer(t, tl, got)
	if !reflect.DeepEqual(cloneDatagrams(got), cloneDatagrams(want)) {
		t.Fatalf("tail read %d entries, want %d identical to straight read", len(got), len(want))
	}
	if tl.Reopens() != 0 {
		t.Fatalf("growth caused %d reopens, want 0", tl.Reopens())
	}
	if tl.Offset() != int64(len(raw)) {
		t.Fatalf("Offset = %d, want %d", tl.Offset(), len(raw))
	}
}

// TestTailerResumeAt: a second tailer constructed from a persisted
// Offset yields exactly the entries the first one had not consumed.
func TestTailerResumeAt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.sflowlog")
	raw := writeLogFile(t, path)
	want := logEntries(t, raw)

	tl, err := NewTailer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.NextInto(new(Datagram)); err != nil {
		t.Fatal(err)
	}
	cursor := tl.Offset()
	tl.Close()

	tl2, err := NewTailer(path, cursor)
	if err != nil {
		t.Fatalf("NewTailer(resume): %v", err)
	}
	defer tl2.Close()
	got := drainTailer(t, tl2, nil)
	if !reflect.DeepEqual(cloneDatagrams(got), cloneDatagrams(want[1:])) {
		t.Fatalf("resumed read = %d entries, want the %d unconsumed ones", len(got), len(want)-1)
	}

	// A cursor beyond the file (log rotated since the checkpoint) falls
	// back to the top of the current file.
	tl3, err := NewTailer(path, int64(len(raw))+1000)
	if err != nil {
		t.Fatalf("NewTailer(stale cursor): %v", err)
	}
	defer tl3.Close()
	if got := drainTailer(t, tl3, nil); len(got) != len(want) {
		t.Fatalf("stale-cursor read = %d entries, want all %d", len(got), len(want))
	}
}

// TestTailerDetectsTruncation: when the file shrinks below the read
// position (copytruncate-style rotation), the tailer reopens and reads
// the new content instead of waiting forever for the old offset.
func TestTailerDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.sflowlog")
	raw := writeLogFile(t, path)
	want := logEntries(t, raw)

	tl, err := NewTailer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if got := drainTailer(t, tl, nil); len(got) != len(want) {
		t.Fatalf("initial drain = %d entries, want %d", len(got), len(want))
	}

	// Truncate and rewrite a shorter log in place: same inode, smaller
	// size. Keep just the header plus the first entry's bytes.
	short := raw[:len(raw)/2]
	shortWant := logEntries(t, append([]byte(nil), short...))
	if len(shortWant) == 0 || len(shortWant) >= len(want) {
		t.Fatalf("short log has %d entries, want a strict non-empty subset", len(shortWant))
	}
	if err := os.WriteFile(path, short, 0o644); err != nil {
		t.Fatal(err)
	}

	got := drainTailer(t, tl, nil)
	if !reflect.DeepEqual(cloneDatagrams(got), cloneDatagrams(shortWant)) {
		t.Fatalf("post-truncation read = %d entries, want %d from the new content", len(got), len(shortWant))
	}
	if tl.Reopens() != 1 {
		t.Fatalf("Reopens = %d, want 1", tl.Reopens())
	}
}

// TestTailerDetectsRotation: when the path is renamed away and a new
// file appears under it (classic logrotate), the tailer notices the
// inode change and follows the new file.
func TestTailerDetectsRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.sflowlog")
	raw := writeLogFile(t, path)
	want := logEntries(t, raw)

	tl, err := NewTailer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if got := drainTailer(t, tl, nil); len(got) != len(want) {
		t.Fatalf("initial drain = %d entries, want %d", len(got), len(want))
	}

	// Rotate: move the file aside, create a fresh log at the path.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	// While the path is missing, end-of-input is not an error and must
	// not kill the tailer.
	if _, err := tl.NextInto(new(Datagram)); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("NextInto with path missing = %v, want end-of-input", err)
	}
	writeLogFile(t, path)

	got := drainTailer(t, tl, nil)
	if !reflect.DeepEqual(cloneDatagrams(got), cloneDatagrams(want)) {
		t.Fatalf("post-rotation read = %d entries, want the new file's %d", len(got), len(want))
	}
	if tl.Reopens() != 1 {
		t.Fatalf("Reopens = %d, want 1", tl.Reopens())
	}
}
