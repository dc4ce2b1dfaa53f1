// Checkpoint format tests: the detection-list bound, the decoder under
// fuzzing, and resuming the checkpoints older builds wrote, committed
// under testdata/. Version 2:
// the PR 12 binary in its -listen and -tail modes (that commit's
// `ixpmon -serve ... -state DIR -window 2`; the -listen run consumed
// miniDatagram 1..8 under -timestamps uptime, the -tail run consumed
// all twelve entries of parent_tail.sflowlog). Version 3: the PR 18
// build, a udp://127.0.0.1:0 service with Window{Days: 7, ListSize: 1}
// that consumed miniDatagram 1..5, shut down, resumed, was re-sent 1..8
// (five skipped by the barrier) and, before its shutdown checkpoint,
// had feedDay(win, 0, 1), (1, 2), (2, 3) folded into its window — so it
// holds two closed days beside the open one, as that build retained
// them. Version 4, the current one, is pinned by the digest of one
// shutdown checkpoint (testdata/checkpoint.sha256).
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dnsamp/internal/core"
	"dnsamp/internal/ingest"
	"dnsamp/internal/simclock"
)

// TestSnapshotManyDetections: a window holding hundreds of detections
// round-trips. The reader used to bound the list at 60 bytes per entry
// where the writer emits 52, so a list longer than an eighth of the
// bytes following it read as corrupt and -resume found "none valid".
func TestSnapshotManyDetections(t *testing.T) {
	cfg := WindowConfig{Days: 2}
	w := NewWindow(cfg, nil)
	for i := 0; i < 600; i++ {
		at := dayTime(i / 100).Add(simclock.Duration(i))
		w.detections = append(w.detections, &core.Detection{
			Victim: [4]byte{10, 1, byte(i >> 8), byte(i)}, Day: i / 100,
			Packets: 20 + i, CandidatePackets: 19 + i, Share: float64(19+i) / float64(20+i),
			First: at, Last: at.Add(simclock.Hour),
		})
	}
	got := restoreWindow(t, cfg, snapshotBytes(t, w))
	if !reflect.DeepEqual(got.detections, w.detections) {
		t.Fatalf("restored %d detections, wrote %d; first restored %+v", len(got.detections), len(w.detections), got.detections[0])
	}
}

// stageCheckpoint copies a committed checkpoint of the given format
// version into a fresh state dir.
func stageCheckpoint(t *testing.T, name string, version uint32) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != version {
		t.Fatalf("%s is a version %d checkpoint; the fixture must be version %d", name, v, version)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckptName(0)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestResumeParentListenCheckpoint: the -listen run's rows carry no
// input ID. With one input configured they are re-keyed to it, so the
// replay barrier skips the re-sent overlap and the new datagrams are
// consumed exactly once; the shutdown checkpoint is written in the
// current format.
func TestResumeParentListenCheckpoint(t *testing.T) {
	dir := stageCheckpoint(t, "parent_listen.ckpt", 2)
	cfg := Config{
		Inputs: udpInput(t), TimeFromUptime: true, Window: WindowConfig{Days: 2},
		StateDir: dir, CheckpointEvery: -1, Resume: true,
	}
	svc := startService(t, cfg)
	if svc.ResumedFrom() == "" {
		t.Fatal("the parent's -listen checkpoint was not resumed")
	}
	if a := svc.Accounting(); a != (Accounting{Received: 8, Consumed: 8}) || frames(svc) != 8 {
		t.Fatalf("restored %+v and %d frames, want 8 received, consumed and framed", a, frames(svc))
	}
	rows := svc.SourcesSnapshot()
	if len(rows) != 1 || rows[0].Input != cfg.Inputs[0].ID || rows[0].Agent != "198.51.100.9" || rows[0].Datagrams != 8 {
		t.Fatalf("restored rows = %+v, want the one collector re-keyed to %s", rows, cfg.Inputs[0].ID)
	}

	// The sender restarts four datagrams back: 5..8 are in the window
	// already, 9..12 are new.
	conn := dialService(t, svc)
	for seq := uint32(5); seq <= 12; seq++ {
		if _, err := conn.Write(miniDatagram(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "overlap skipped and new datagrams consumed", func() bool {
		return svc.ReplaySkipped() == 4 && svc.Consumed() == 12
	})
	shutdownSvc(t, svc)
	if got := frames(svc); got != 12 {
		t.Errorf("samples processed = %d, want exactly 12 across the format boundary", got)
	}
	paths := listCheckpoints(dir)
	raw, err := os.ReadFile(paths[len(paths)-1])
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != ckptVersion {
		t.Errorf("shutdown checkpoint is version %d, want %d", v, ckptVersion)
	}
}

// TestResumeParentV3Checkpoint: a version 3 checkpoint carries no
// replaySkipped total and holds the closed days its build retained. The
// total is rebuilt from the collector rows, so the conservation equation
// closes at once; the closed days' profiles are restored, reported by no
// later close, and leave at the first one — detections end identical to
// an uninterrupted run's.
func TestResumeParentV3Checkpoint(t *testing.T) {
	cfg := Config{
		Inputs: udpInput(t), Window: WindowConfig{Days: 7, ListSize: 1},
		StateDir: stageCheckpoint(t, "parent_v3.ckpt", 3), CheckpointEvery: -1, Resume: true,
	}
	svc := startService(t, cfg)
	if svc.ResumedFrom() == "" {
		t.Fatal("the parent's version 3 checkpoint was not resumed")
	}
	if a := svc.Accounting(); a != (Accounting{Received: 13, ReplaySkipped: 5, Consumed: 8}) {
		t.Fatalf("restored %+v, want 13 received: 5 replay-skipped, 8 consumed", a)
	}

	ref := NewWindow(cfg.Window, nil)
	victims := []byte{1, 2, 3, 4, 0}
	for day, v := range victims {
		feedDay(ref, day, v)
	}
	ref.Close()

	svc.mu.Lock()
	if st := svc.win.Stats(); st.ClientDays != 6 || st.ClosedDays != 2 || st.Evicted != 0 {
		t.Errorf("restored window = %+v, want the open day and two closed ones: 6 profiles", st)
	}
	feedDay(svc.win, 3, victims[3]) // the first close under this build
	if st := svc.win.Stats(); st.ClientDays != 2 || st.Evicted != 6 {
		t.Errorf("after the first close = %+v, want every restored profile released and day 3's two held", st)
	}
	feedDay(svc.win, 4, victims[4])
	svc.mu.Unlock()
	shutdownSvc(t, svc)

	got, _ := finalState(svc)
	if len(got) != 4 || !reflect.DeepEqual(got, ref.Detections()) {
		t.Errorf("detections across the resume = %d, uninterrupted run = %d, want 4 identical", len(got), len(ref.Detections()))
	}
}

// TestResumeParentTailCheckpoint: the -tail run's byte offset becomes
// the tail: input's cursor — nothing already consumed is re-read, only
// the entries appended since — and its collector row is re-keyed to
// the input.
func TestResumeParentTailCheckpoint(t *testing.T) {
	dir := stageCheckpoint(t, "parent_tail.ckpt", 2)
	logBytes, err := os.ReadFile(filepath.Join("testdata", "parent_tail.sflowlog"))
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "feed.sflowlog")
	if err := os.WriteFile(logPath, logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Inputs: tailInput(t, logPath), Window: WindowConfig{Days: 2},
		StateDir: dir, CheckpointEvery: -1, Resume: true,
	}
	id := cfg.Inputs[0].ID
	svc := startService(t, cfg)
	if svc.ResumedFrom() == "" {
		t.Fatal("the parent's -tail checkpoint was not resumed")
	}
	if got := svc.InputCursor(id); got != int64(len(logBytes)) {
		t.Fatalf("restored cursor of %s = %d, want the consumed log size %d", id, got, len(logBytes))
	}
	agent := [4]byte{198, 51, 100, 7}
	appendEntries(t, logPath, agent, 13, simclock.MeasurementStart.Add(12), 5)
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "appended entries consumed", func() bool {
		return svc.Consumed() == 17 && svc.InputCursor(id) == fi.Size()
	})
	in := svc.InputsSnapshot()[0]
	if in.Received != 5 || svc.ReplaySkipped() != 0 {
		t.Errorf("resumed tail read %d entries and replay-skipped %d; want the 5 appended ones and none skipped", in.Received, svc.ReplaySkipped())
	}
	shutdownSvc(t, svc)
	if got := frames(svc); got != 17 {
		t.Errorf("samples processed = %d, want exactly 17 across the format boundary", got)
	}
	if got := consumeCursor(svc, id, agent, 0); got != 17 {
		t.Errorf("collector row %s|198.51.100.7 consumed up to seq %d, want 17 (row not re-keyed to the input)", id, got)
	}
}

// TestCheckpointBytesPinned: the checkpoint a fixed replay: run over
// the three-day campaign log ends with — what its shutdown writes —
// hashes to the digest in testdata/checkpoint.sha256, taken from the
// build that last changed version 4. An encoder change, a change to
// what the window keeps, or one to a total the checkpoint carries moves
// the digest; the older fixtures and the round trips cannot see any of
// them. The input's ID is fixed, so the temporary path stays out.
func TestCheckpointBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wire.sflowlog")
	if err := os.WriteFile(path, wireLog(t, 3).Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := startService(t, Config{
		Inputs:         []ingest.Spec{{ID: "replay:wire.sflowlog", Kind: ingest.KindReplay, Path: path}},
		TimeFromUptime: true,
		Window:         WindowConfig{Days: 2, ListSize: 29, Refresh: simclock.Hour},
	})
	<-svc.Done()
	raw := checkpointBytes(t, svc)
	sum := sha256.Sum256(raw)
	pinned, err := os.ReadFile(filepath.Join("testdata", "checkpoint.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want, _ := strings.Cut(string(pinned), " "); hex.EncodeToString(sum[:]) != got {
		t.Fatalf("checkpoint digest %x (%d bytes), pinned %s (%s)", sum, len(raw), got, strings.TrimSpace(want))
	}
}

// checkpointBytes encodes svc's checkpoint as Checkpoint does, without
// writing it.
func checkpointBytes(t *testing.T, svc *Service) []byte {
	t.Helper()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	svc.smu.Lock()
	defer svc.smu.Unlock()
	raw, err := svc.encodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestResumeParentCheckpointNeedsOneInput: a checkpoint that names no
// input cannot be assigned among several, or to the wrong kind; Start
// says so instead of guessing or reporting the file corrupt.
func TestResumeParentCheckpointNeedsOneInput(t *testing.T) {
	replay := mustSpec(t, "replay:"+filepath.Join("testdata", "parent_tail.sflowlog"))
	for _, c := range []struct {
		name, ckpt string
		inputs     []ingest.Spec
		want       string
	}{
		{"listen checkpoint, two inputs", "parent_listen.ckpt", append(udpInput(t), replay), "exactly one input"},
		{"tail checkpoint, two inputs", "parent_tail.ckpt", append(udpInput(t), replay), "exactly one input"},
		{"tail checkpoint, udp input", "parent_tail.ckpt", udpInput(t), "tail: input"},
	} {
		svc := NewService(Config{
			Inputs: c.inputs, Window: WindowConfig{Days: 2},
			StateDir: stageCheckpoint(t, c.ckpt, 2), CheckpointEvery: -1, Resume: true,
		})
		err := svc.Start()
		if err == nil {
			shutdownSvc(t, svc)
			t.Errorf("%s: Start resumed it", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "none valid") {
			t.Errorf("%s: Start error %q, want one naming %q", c.name, err, c.want)
		}
	}
}

// resealCheckpoint rewrites the trailing checksum of raw to match its
// payload, so mutated bytes reach the decoder instead of failing the
// checksum.
func resealCheckpoint(raw []byte) []byte {
	if len(raw) >= ckptHeaderLen+ckptSumLen {
		h := fnv.New64a()
		h.Write(raw[ckptHeaderLen : len(raw)-ckptSumLen])
		binary.LittleEndian.PutUint64(raw[len(raw)-ckptSumLen:], h.Sum64())
	}
	return raw
}

// inflateClientCount returns img, a checkpoint of a window aggregating
// in ag, with its client-day count raised to what the bytes after it
// could back at 60 bytes an entry — the bound the decoder once used,
// below an entry's true 64 — resealed.
func inflateClientCount(tb testing.TB, ag *core.Aggregator, img []byte) []byte {
	tb.Helper()
	var first core.ClientDay
	found := false
	ag.EachClient(func(k core.ClientDay, _ *core.ClientAgg) {
		if !found {
			first, found = k, true
		}
	})
	if !found {
		tb.Fatal("the seed window holds no client-day")
	}
	pat := binary.LittleEndian.AppendUint32(nil, uint32(ag.NumClients()))
	pat = append(pat, first.Client[:]...)
	pat = binary.LittleEndian.AppendUint64(pat, uint64(first.Day))
	at := bytes.Index(img, pat)
	if at < 0 || bytes.Contains(img[at+1:], pat) {
		tb.Fatal("the client-day count is not in the image exactly once")
	}
	out := bytes.Clone(img)
	binary.LittleEndian.PutUint32(out[at:], uint32((len(out)-at-4-ckptSumLen)/60))
	return resealCheckpoint(out)
}

// decodeTarget is the part of a service a checkpoint decodes into and
// encodes from, without the queue, metric registry and channels
// NewService adds: the fuzz target builds up to two per input.
func decodeTarget(cfg Config) *Service {
	s := &Service{cfg: cfg.withDefaults()}
	s.clearState()
	return s
}

// FuzzLoadCheckpoint holds the checkpoint decoder to the contract of
// internal/binenc: any bytes, checksum made valid, decode without a
// panic and allocate no more than the bytes present justify — a count
// is bounded by the input left to back it. A decoded state re-encodes
// to a canonical image: decoding that image and encoding again gives
// the same bytes, and the encoder's own output (the post-release seed)
// round-trips byte for byte. A mutated image need not re-encode to its
// own bytes: the name list, collector rows and cursors are sets the
// encoder writes sorted, and a restored collector row rewinds its last
// sequence number to its consumed cursor. One tail: input is configured
// so the version 2 fixtures' input-less rows are adopted.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := Config{Window: WindowConfig{Days: 2}, Inputs: []ingest.Spec{mustSpec(f, "tail:fuzz.sflowlog")}}
	seed := decodeTarget(cfg)
	for _, o := range randomSubdomainStream(3, 120)[:400] {
		seed.win.Observe(o.in(seed.win))
	}
	post, err := seed.encodeCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	if seed.win.Stats().NamesReleased == 0 {
		f.Fatal("the seed window released no names")
	}
	back := decodeTarget(cfg)
	if err := back.decodeCheckpoint(post); err != nil {
		f.Fatal(err)
	}
	if again, _ := back.encodeCheckpoint(); !bytes.Equal(again, post) {
		f.Fatal("the post-release checkpoint does not re-encode to its own bytes")
	}
	f.Add(post)
	for _, name := range []string{"parent_listen.ckpt", "parent_tail.ckpt", "parent_v3.ckpt"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	inflated := inflateClientCount(f, seed.win.agg, post)
	if err := decodeTarget(cfg).decodeCheckpoint(inflated); err == nil {
		f.Fatal("a client-day count the bytes cannot back decoded")
	}
	f.Add(inflated)
	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = resealCheckpoint(bytes.Clone(raw))
		svc := decodeTarget(cfg)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := svc.decodeCheckpoint(raw)
		runtime.ReadMemStats(&m1)
		if grew, bound := m1.TotalAlloc-m0.TotalAlloc, 64*uint64(len(raw))+64<<10; grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, over the %d they justify", len(raw), grew, bound)
		}
		if err != nil {
			return
		}
		first, err := svc.encodeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		again := decodeTarget(cfg)
		if err := again.decodeCheckpoint(first); err != nil {
			t.Fatalf("a re-encoded checkpoint does not decode: %v", err)
		}
		if second, _ := again.encodeCheckpoint(); !bytes.Equal(first, second) {
			t.Fatal("re-encoding is not canonical: a decoded image encodes differently a second time")
		}
	})
}
