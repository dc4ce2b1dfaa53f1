// Tailer: a file-backed LogReader that survives what happens to real
// log files — growth (tail), truncation (the file shrank below what
// was already read), and rotation (the path now names a different
// file). LogReader alone resumes cleanly when a file grows; Tailer
// adds the stat-based staleness checks and transparent reopen that a
// tail: input needs to keep following across logrotate instead of
// waiting forever at a stale offset. Its resume cursor — what service checkpoints persist — is
// the LogReader's own Offset.
package sflow

import (
	"errors"
	"fmt"
	"io"
	"os"

	"dnsamp/internal/simclock"
)

// Tailer follows a datagram log file. Construct with NewTailer; it is
// not safe for concurrent use.
type Tailer struct {
	path string
	f    *os.File
	info os.FileInfo // identity at open, for rotation detection
	lr   *LogReader

	reopens uint64 // truncation/rotation reopens
}

// NewTailer opens path and validates the log header. resumeAt, when
// past the header, is a byte offset previously returned by Offset: the
// tailer seeks there and continues with the entry that starts at it.
// A resumeAt beyond the current file size means the file was truncated
// or rotated since the cursor was taken; the tailer starts over from
// the top (the new file's content is new data).
func NewTailer(path string, resumeAt int64) (*Tailer, error) {
	t := &Tailer{path: path}
	if err := t.open(); err != nil {
		return nil, err
	}
	if resumeAt > logHeaderLen && resumeAt <= t.info.Size() {
		if _, err := t.f.Seek(resumeAt, io.SeekStart); err != nil {
			t.f.Close()
			return nil, fmt.Errorf("sflow: seeking to resume offset %d: %w", resumeAt, err)
		}
		t.lr.resetAt(resumeAt)
	}
	return t, nil
}

// open (re)opens the path from the top and validates the header.
func (t *Tailer) open() error {
	f, err := os.Open(t.path)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	lr, err := NewLogReader(f)
	if err != nil {
		f.Close()
		return err
	}
	t.f, t.info, t.lr = f, info, lr
	return nil
}

// stale reports whether the open file no longer matches the path: the
// path names a different file now (rotation) or the file shrank below
// what was already read, read-ahead included (truncation). A stat error
// — e.g. the moment between rotation steps when the path is missing —
// is not staleness; the caller retries later.
func (t *Tailer) stale() bool {
	pi, err := os.Stat(t.path)
	if err != nil {
		return false
	}
	return !os.SameFile(t.info, pi) || pi.Size() < t.lr.readPos()
}

// reopen abandons the open file and starts over from the top of
// whatever the path names now.
func (t *Tailer) reopen() error {
	t.f.Close()
	if err := t.open(); err != nil {
		return err
	}
	t.reopens++
	return nil
}

// NextInto decodes the next whole datagram entry into dst (LogReader.NextInto:
// Header bytes are valid until the next call). At end of input it
// returns io.EOF (clean) or io.ErrUnexpectedEOF (mid-entry); both mean
// "nothing more right now" — call again after a backoff. When the file
// was truncated or rotated away, the tailer transparently reopens and
// continues with the new file's first entry.
func (t *Tailer) NextInto(dst *Datagram) (simclock.Time, error) {
	for reopened := false; ; {
		at, err := t.lr.NextInto(dst)
		if err == nil {
			return at, nil
		}
		if (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) && !reopened && t.stale() {
			if rerr := t.reopen(); rerr != nil {
				return 0, rerr
			}
			reopened = true
			continue
		}
		return 0, err
	}
}

// Offset returns the byte offset just past the last fully consumed
// entry — the resume cursor to persist. Right after open it sits past
// the file header.
func (t *Tailer) Offset() int64 { return t.lr.Offset() }

// Reopens counts truncation/rotation reopens so far.
func (t *Tailer) Reopens() uint64 { return t.reopens }

// Close releases the underlying file.
func (t *Tailer) Close() error { return t.f.Close() }
