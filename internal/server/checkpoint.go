// Crash-safe service state: the running window — aggregator arena,
// interning table, name list, retained detections — plus per-source
// consume cursors and per-input ingest cursors (keyed by stable source
// ID), serialized to one checksummed file. Checkpoints are written
// atomically (temp file + rename) on a timer and during shutdown;
// `-resume` loads the newest valid one and continues mid-stream, with a
// per-source replay barrier skipping datagrams the restored window
// already contains, so a kill/restart cycle double-counts nothing.
//
// Consistency model: the consumer folds a whole drain into the window
// and advances the cursors over it in one hold of the lock that guards
// the window, and the checkpointer encodes both under that lock — a
// checkpoint is always an exact (window, cursors) pair, made of whole
// drains. Datagrams sitting in the ingest queue at checkpoint
// time are not in the pair; after a crash they are re-sent (or re-read
// from a durable input) past the cursor, and after a drained shutdown
// there are none.
package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"dnsamp/internal/binenc"
	"dnsamp/internal/core"
	"dnsamp/internal/ingest"
	"dnsamp/internal/simclock"
)

// ErrCheckpoint is wrapped by all checkpoint decode failures.
var ErrCheckpoint = errors.New("server: malformed checkpoint")

var ckptMagic = [8]byte{'d', 'n', 'a', 'm', 'p', 'C', 'k', 'p'}

const (
	// Version history: 1 = single-input (PR 7); 2 adds the per-row
	// input-source ID and the per-input cursor section for supervised
	// multi-source ingest; 3 drops the trailing tail-log offset (a
	// tailed log is an input with a cursor like any other); 4 appends
	// the terms the conservation equation lacked after a resume
	// (replaySkipped, sampledOut, shedAll). Versions 3 and 2 stay
	// readable; their shed counters restart at 0 (version 2: see
	// adoptSingleInput). The queue-drop and replay-skip totals are the
	// source rows' sums, checked on load. A version 5 can drop the two
	// zero words that held the capture point's routing coverage, which
	// no longer exists (it was always 0 in the window).
	ckptVersion    = 4
	ckptVersionMin = 2
	// ckptOverhead is the fixed envelope: magic + version up front, an
	// FNV-1a checksum of the payload at the end.
	ckptHeaderLen = 12
	ckptSumLen    = 8
)

// writeSnapshot serializes the window: interning table, aggregator,
// scalar cursors, the live misused-name list, retained detections, and
// capture-point counters.
func (w *Window) writeSnapshot(e *binenc.Encoder) {
	w.agg.Table.Encode(e)
	w.agg.WriteSnapshot(e)

	e.I64(int64(w.curDay))
	e.I64(int64(w.lastSeen))
	e.I64(int64(w.lastRefresh))
	e.I64(int64(w.refreshN))
	e.F64(w.jaccard)
	e.I64(int64(w.closedDays))
	e.U64(w.evicted)
	e.U64(w.lateSamples)
	e.U64(w.detDropped)

	// Sorted, so identical state encodes to identical bytes.
	list := w.CurrentNames()
	slices.Sort(list)
	e.U32(uint32(len(list)))
	for _, n := range list {
		e.Str(n)
	}

	e.U32(uint32(len(w.detections)))
	for _, d := range w.detections {
		e.Raw(d.Victim[:])
		e.I64(int64(d.Day))
		e.I64(int64(d.Packets))
		e.I64(int64(d.CandidatePackets))
		e.F64(d.Share)
		e.I64(int64(d.First))
		e.I64(int64(d.Last))
	}

	st := &w.cp.Stats
	for _, v := range []int{st.Frames, st.NonUDP, st.NonDNS, st.Malformed, st.Accepted} {
		e.I64(int64(v))
	}
	e.I64(0) // version 4's origin-mapped count
	e.I64(0) // version 4's peer-mapped count
}

// readSnapshot restores writeSnapshot's state into a freshly
// constructed window.
func (w *Window) readSnapshot(d *binenc.Decoder) error {
	w.agg.Table.Decode(d)
	if err := d.Err(); err != nil {
		return err
	}
	if err := w.agg.ReadSnapshot(d); err != nil {
		return err
	}
	// The selector rankings are derived state, not serialized.
	w.touched, w.rescan = w.touched[:0], true

	w.curDay = int(d.I64())
	w.lastSeen = simclock.Time(d.I64())
	w.lastRefresh = simclock.Time(d.I64())
	w.refreshN = int(d.I64())
	w.jaccard = d.F64()
	w.closedDays = int(d.I64())
	w.evicted = d.U64()
	w.lateSamples = d.U64()
	w.detDropped = d.U64()

	nList := d.Count(4)
	w.names = binenc.Map[string, bool](d, nList)
	for i := 0; i < nList && d.Err() == nil; i++ {
		w.names[d.Str()] = true
	}

	// A detection entry costs 4 + 6×8 = 52 bytes.
	w.detections = binenc.Slice(d, d.Count(52), func() *core.Detection {
		det := &core.Detection{}
		copy(det.Victim[:], d.Raw(4))
		det.Day = int(d.I64())
		det.Packets = int(d.I64())
		det.CandidatePackets = int(d.I64())
		det.Share = d.F64()
		det.First = simclock.Time(d.I64())
		det.Last = simclock.Time(d.I64())
		return det
	})

	st := &w.cp.Stats
	for _, p := range []*int{&st.Frames, &st.NonUDP, &st.NonDNS, &st.Malformed, &st.Accepted} {
		*p = int(d.I64())
	}
	d.I64() // version 4's origin-mapped count, always 0
	d.I64() // version 4's peer-mapped count, always 0
	return d.Err()
}

// encodeCheckpoint serializes the whole service state. Caller holds
// s.mu and s.smu.
func (s *Service) encodeCheckpoint() ([]byte, error) {
	var buf bytes.Buffer
	e := binenc.NewEncoder(&buf)
	e.Raw(ckptMagic[:])
	e.U32(ckptVersion)

	s.win.writeSnapshot(e)

	rows := make([]*sourceState, 0, len(s.sources))
	for _, src := range s.sources {
		rows = append(rows, src)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].key, rows[j].key
		if a.src != b.src {
			return a.src < b.src
		}
		if a.agent != b.agent {
			return string(a.agent[:]) < string(b.agent[:])
		}
		return a.subAgent < b.subAgent
	})
	e.U32(uint32(len(rows)))
	for _, src := range rows {
		st := &src.stats
		e.Str(src.key.src)
		e.Raw(src.key.agent[:])
		e.U32(src.key.subAgent)
		e.Bool(src.started)
		e.U64(st.Datagrams)
		e.U64(st.Samples)
		e.U32(st.FirstSeq)
		e.U32(st.LastSeq)
		e.U64(st.Lost)
		e.U64(st.OutOfOrder)
		e.U32(st.AgentDrops)
		e.U32(st.Rate)
		e.U64(st.RateChanges)
		e.U64(st.QueueDrops)
		e.U64(st.ReplaySkipped)
		e.I64(int64(st.LastArrival))
		e.U32(src.cursor)
	}

	// Per-input consumed cursors for supervised multi-source ingest,
	// keyed by the stable ingest.Spec ID: each the offset just past the
	// last datagram consumed from that input. Across a restart each
	// source adapter revalidates the offset against whatever the input
	// looks like now (Tailer resumeAt semantics).
	ids := make([]string, 0, len(s.inputCursors))
	for id := range s.inputCursors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.Str(id)
		e.I64(s.inputCursors[id])
	}

	a := s.accountingLocked()
	e.U64(a.Received)
	e.U64(a.ParseErrors)
	e.U64(a.Consumed)
	e.U64(a.QueueDrops)
	e.U64(a.ReplaySkipped)
	e.U64(a.SampledOut)
	e.U64(a.ShedAll)

	if err := e.Flush(); err != nil {
		return nil, err
	}
	raw := buf.Bytes()
	h := fnv.New64a()
	h.Write(raw[ckptHeaderLen:])
	var sum [ckptSumLen]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	return append(raw, sum[:]...), nil
}

// clearState empties everything decodeCheckpoint restores: the window,
// the collector rows, the cursors and the totals. A new service starts
// from it, and resume returns to it when a file fails to decode.
func (s *Service) clearState() {
	s.win = NewWindow(s.cfg.Window, s.stages)
	s.sources = make(map[sourceKey]*sourceState)
	s.inputCursors = make(map[string]int64)
	s.schedResume = make(map[string]int64)
	s.receivedBase, s.parseErrorsBase = 0, 0
	s.consumed.Store(0)
	s.health.sampledOut.Store(0)
	s.health.shedAll.Store(0)
}

// decodeCheckpoint validates the envelope and restores the state into
// this unstarted service, whose state is clear (clearState).
func (s *Service) decodeCheckpoint(raw []byte) error {
	if len(raw) < ckptHeaderLen+ckptSumLen {
		return fmt.Errorf("%w: %d bytes", ErrCheckpoint, len(raw))
	}
	body, sum := raw[:len(raw)-ckptSumLen], raw[len(raw)-ckptSumLen:]
	h := fnv.New64a()
	h.Write(body[ckptHeaderLen:])
	if binary.LittleEndian.Uint64(sum) != h.Sum64() {
		return fmt.Errorf("%w: checksum mismatch", ErrCheckpoint)
	}
	d := binenc.NewDecoder(body, ErrCheckpoint)
	if [8]byte(d.Raw(8)) != ckptMagic {
		return fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	version := d.U32()
	if version < ckptVersionMin || version > ckptVersion {
		return fmt.Errorf("%w: version %d", ErrCheckpoint, version)
	}

	if err := s.win.readSnapshot(d); err != nil {
		return err
	}

	// A source row costs at least 4+4+4+1 + 8×6 + 4×4 + 8 = 89 bytes
	// (the input-ID string adds its length on top).
	nSrc := d.Count(89)
	var rowDrops, rowSkips uint64
	for i := 0; i < nSrc && d.Err() == nil; i++ {
		src := &sourceState{}
		src.key.src = d.Str()
		copy(src.key.agent[:], d.Raw(4))
		src.key.subAgent = d.U32()
		src.started = d.Bool()
		st := &src.stats
		st.Input = src.key.src
		st.Agent = fmt.Sprintf("%d.%d.%d.%d", src.key.agent[0], src.key.agent[1], src.key.agent[2], src.key.agent[3])
		st.SubAgent = src.key.subAgent
		st.Datagrams = d.U64()
		st.Samples = d.U64()
		st.FirstSeq = d.U32()
		st.LastSeq = d.U32()
		st.Lost = d.U64()
		st.OutOfOrder = d.U64()
		st.AgentDrops = d.U32()
		st.Rate = d.U32()
		st.RateChanges = d.U64()
		st.QueueDrops = d.U64()
		st.ReplaySkipped = d.U64()
		rowDrops += st.QueueDrops
		rowSkips += st.ReplaySkipped
		st.LastArrival = simclock.Time(d.I64())
		src.cursor = d.U32()
		// The replay barrier: anything at or below the consumed cursor is
		// already in the restored window. Received-side state between
		// cursor and LastSeq was queued but never consumed; rewind LastSeq
		// to the cursor so re-sent datagrams continue the sequence stream
		// instead of reading as reordered duplicates.
		src.resuming, src.resumeSeq = true, src.cursor
		st.LastSeq = src.cursor
		if d.Err() == nil {
			s.sources[src.key] = src
		}
	}

	// A cursor entry costs at least 4 + 8 = 12 bytes.
	nCur := d.Count(12)
	for i := 0; i < nCur && d.Err() == nil; i++ {
		id := d.Str()
		off := d.I64()
		if d.Err() == nil {
			s.inputCursors[id] = off
			s.schedResume[id] = off
		}
	}

	s.receivedBase = d.U64()
	s.parseErrorsBase = d.U64()
	s.consumed.Store(d.U64())
	drops, skips := d.U64(), rowSkips
	var tailOff int64
	if version == 2 {
		tailOff = d.I64()
	}
	if version >= 4 {
		skips = d.U64()
		s.health.sampledOut.Store(d.U64())
		s.health.shedAll.Store(d.U64())
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if drops != rowDrops || skips != rowSkips {
		return fmt.Errorf("%w: %d queue drops and %d replay skips stored, the source rows hold %d and %d",
			ErrCheckpoint, drops, skips, rowDrops, rowSkips)
	}
	return s.adoptSingleInput(tailOff)
}

// adoptSingleInput maps what a version 2 checkpoint of a -listen or
// -tail run recorded without naming an input — source rows keyed by
// the empty input ID, and the trailing tail-log offset — onto the one
// configured input: the rows are re-keyed to it, so the replay barrier
// still skips a re-sent overlap, and the offset becomes its cursor, so
// nothing is re-read. With any other number of inputs there is no
// telling which one the state belongs to, and the error (not an
// ErrCheckpoint: the file is fine, the configuration is not) fails
// Start.
func (s *Service) adoptSingleInput(tailOff int64) error {
	var unkeyed []*sourceState
	for key, src := range s.sources {
		if key.src == "" {
			unkeyed = append(unkeyed, src)
		}
	}
	if len(unkeyed) == 0 && tailOff == 0 {
		return nil
	}
	if len(s.cfg.Inputs) != 1 {
		return fmt.Errorf("checkpoint of a single-input (-listen or -tail) run names no input: it resumes with exactly one input configured, not %d", len(s.cfg.Inputs))
	}
	in := s.cfg.Inputs[0]
	if tailOff > 0 && in.Kind != ingest.KindTail {
		return fmt.Errorf("checkpoint of a -tail run carries a log offset: it resumes with a tail: input, not %s", in.ID)
	}
	for _, src := range unkeyed {
		delete(s.sources, src.key)
		src.key.src, src.stats.Input = in.ID, in.ID
		s.sources[src.key] = src
	}
	if tailOff > 0 {
		s.inputCursors[in.ID] = tailOff
		s.schedResume[in.ID] = tailOff
	}
	return nil
}

// ckptName formats the n-th checkpoint file name; the zero-padded
// sequence makes lexical order chronological.
func ckptName(n uint64) string { return fmt.Sprintf("checkpoint-%010d.ckpt", n) }

// listCheckpoints returns the checkpoint files in dir, newest last.
func listCheckpoints(dir string) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	sort.Strings(paths)
	return paths
}

// Checkpoint serializes the current service state and writes it
// atomically (temp file + rename) into Config.StateDir, pruning old
// checkpoints beyond the retention count. Transient write failures are
// retried a few times with backoff before giving up; a failed attempt
// never leaves a partial checkpoint visible.
func (s *Service) Checkpoint() (string, error) {
	if s.cfg.StateDir == "" {
		return "", errors.New("server: no StateDir configured")
	}
	s.mu.Lock()
	s.smu.Lock()
	raw, err := s.encodeCheckpoint()
	seq := s.ckptSeq
	s.ckptSeq++
	s.smu.Unlock()
	s.mu.Unlock()
	if err != nil {
		s.ckptErrors.Add(1)
		return "", err
	}

	path := filepath.Join(s.cfg.StateDir, ckptName(seq))
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err = atomicWriteFile(path, raw)
		if err == nil {
			break
		}
		if attempt >= 2 {
			s.ckptErrors.Add(1)
			return "", fmt.Errorf("server: writing checkpoint: %w", err)
		}
		time.Sleep(backoff)
		backoff *= 4
	}
	s.ckpts.Add(1)
	s.ckptBytes.Store(uint64(len(raw)))

	if paths := listCheckpoints(s.cfg.StateDir); len(paths) > s.cfg.CheckpointRetain {
		for _, old := range paths[:len(paths)-s.cfg.CheckpointRetain] {
			os.Remove(old)
		}
	}
	return path, nil
}

// atomicWriteFile writes data next to path and renames it into place,
// so readers only ever see absent or complete files.
func atomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// resume loads the newest valid checkpoint in StateDir into this
// unstarted service. Corrupt or truncated files are skipped, falling
// back to older ones; an empty directory is a clean cold start. Called
// from Start before any goroutine exists, so no locking.
func (s *Service) resume() error {
	paths := listCheckpoints(s.cfg.StateDir)
	s.ckptSeq = nextCkptSeq(paths)
	for i := len(paths) - 1; i >= 0; i-- {
		raw, err := os.ReadFile(paths[i])
		if err != nil {
			continue
		}
		if err := s.decodeCheckpoint(raw); err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				return fmt.Errorf("server: resuming from %s: %w", paths[i], err)
			}
			// Drop whatever half-state the failed decode left and try the
			// next older file.
			s.clearState()
			continue
		}
		s.resumedFrom = paths[i]
		return nil
	}
	if len(paths) > 0 {
		return fmt.Errorf("server: %d checkpoint files, none valid", len(paths))
	}
	return nil
}

// nextCkptSeq picks the write sequence following the newest existing
// checkpoint, so resumed services never overwrite history.
func nextCkptSeq(paths []string) uint64 {
	var next uint64
	for _, p := range paths {
		var n uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "checkpoint-%d.ckpt", &n); err == nil && n+1 > next {
			next = n + 1
		}
	}
	return next
}

// ResumedFrom reports the checkpoint path the service restored at
// Start ("" for a cold start).
func (s *Service) ResumedFrom() string { return s.resumedFrom }

// checkpointLoop writes checkpoints on the configured cadence until
// shutdown. Failures are counted and retried next tick; the newest
// valid older checkpoint stays in place throughout.
func (s *Service) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			s.Checkpoint() //nolint:errcheck // counted in ckptErrors
		}
	}
}
