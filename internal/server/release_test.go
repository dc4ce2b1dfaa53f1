package server

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// randomSubdomainStream is the traffic that made an always-on window
// grow without bound, the catalog's RandomSubdomain scenario as a
// stream: every background sample asks a name never seen before (no
// ANY, a small response), and every day one victim takes twenty large
// ANY responses for one of two amplification names.
func randomSubdomainStream(days, perDay int) []oracleSample {
	rng := rand.New(rand.NewPCG(24, 7))
	var out []oracleSample
	for d := 0; d < days; d++ {
		start := simclock.MeasurementStart.Add(simclock.Days(d))
		at := func(i, n int) simclock.Time {
			return start.Add(simclock.Duration(i) * simclock.Day / simclock.Duration(n))
		}
		for i := 0; i < perDay; i++ {
			out = append(out, oracleSample{
				at: at(i, perDay), client: byte(1 + rng.IntN(150)),
				name: fmt.Sprintf("r%d-%d.rs.test", d, i),
				qt:   dnswire.TypeA, size: 60 + rng.IntN(400), resp: true,
			})
		}
		victim, amp := byte(160+d%60), fmt.Sprintf("amp%d.test", d%2)
		for i := 0; i < 20; i++ {
			out = append(out, oracleSample{at: at(i, 20).Add(simclock.Minute), client: victim, name: amp, qt: dnswire.TypeANY, size: 3000 + 40*d, resp: true})
		}
	}
	return out
}

// TestWindowReleasePlateau: over thirty days of one-off names the window
// detects exactly what the keep-everything oracle does, at every close
// the same list, and holds the names a ranking can reach plus one day's
// worth — not every name it has seen.
func TestWindowReleasePlateau(t *testing.T) {
	const days, perDay = 30, 400
	stream := randomSubdomainStream(days, perDay)
	cfg := WindowConfig{}
	got, _ := runWindow(stream, cfg)
	want := horizonOracle(stream, cfg)
	if len(want.dets) != days {
		t.Fatalf("oracle found %d detections over %d days, want one victim a day", len(want.dets), days)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window differs from the oracle: %d detections, %d day rows, lists %v\nwant %d, %d, %v",
			len(got.dets), len(got.days), got.closes, len(want.dets), len(want.days), want.closes)
	}

	w := NewWindow(cfg, nil)
	var held, kept []int // names held just before and just after each close
	for _, o := range stream {
		before := w.Stats()
		w.Observe(o.in(w))
		if w.closedDays > before.ClosedDays {
			held, kept = append(held, before.Names), append(kept, w.Stats().Names)
		}
	}
	for d := 1; d < len(held); d++ {
		if grew := held[d] - kept[d-1]; grew > perDay+2 {
			t.Fatalf("day %d: %d names held at the close, %d kept at the one before: grew by %d, more than one day's %d",
				d, held[d], kept[d-1], grew, perDay)
		}
	}
	last := len(kept) - 1
	if kept[last] > perDay/2 || held[last] > perDay+perDay/2 {
		t.Fatalf("after %d days %d names held at the close and %d kept; the table must plateau (seen: %d)",
			days, held[last], kept[last], days*perDay)
	}
	if st := w.Stats(); int(st.NamesReleased)+kept[last] < (days-1)*perDay {
		t.Fatalf("released %d names, keeping %d, of %d seen", st.NamesReleased, kept[last], days*perDay)
	}
}

// sampleRecord encodes o as the capture point receives it: a response
// from port 53 to the client, or the client's query to port 53, whose
// UDP length field claims o.size bytes of DNS message.
func sampleRecord(o oracleSample) sflow.Record {
	q := dnswire.NewQuery(1, o.name, o.qt, 0)
	msg := q
	ip := netmodel.IPv4{TTL: 60, Src: netip.AddrFrom4([4]byte{11, 0, 0, o.client}), Dst: netip.AddrFrom4([4]byte{203, 0, 113, 1})}
	udp := netmodel.UDP{SrcPort: 41000, DstPort: 53, Length: uint16(netmodel.UDPHeaderLen + o.size)}
	if o.resp {
		msg = dnswire.NewResponse(q)
		ip.Src, ip.Dst = ip.Dst, ip.Src
		udp.SrcPort, udp.DstPort = udp.DstPort, udp.SrcPort
	}
	frame := netmodel.AppendUDPPacket(nil, netmodel.Ethernet{}, ip, udp, new(dnswire.Encoder).Encode(msg))
	return sflow.Record{Time: o.at, Frame: frame, FrameLen: len(frame)}
}

// nameState is a window's per-name statistics keyed by name: equal for
// two windows whenever they hold the same names with the same
// statistics, under whatever IDs.
func nameState(w *Window) map[string]core.NameStats {
	m := make(map[string]core.NameStats, w.agg.Table.Len())
	for id := range w.agg.Table.Len() {
		n := w.agg.Table.Name(uint32(id))
		m[n] = w.agg.NameStatsOf(n)
	}
	return m
}

// TestWindowStaleIDsAfterRelease: the bench's direct-driven pass
// processes a whole datagram's samples and then observes them, so the
// samples behind the one that rolls the day carry IDs of the numbering
// the day's release replaced. Observe re-interns them: the run equals
// processing and observing one sample at a time.
func TestWindowStaleIDsAfterRelease(t *testing.T) {
	stream := horizonStream(3, true)
	recs := make([]sflow.Record, len(stream))
	for i, o := range stream {
		recs[i] = sampleRecord(o)
	}
	cfg := WindowConfig{Days: 2, ListSize: 3}

	one := NewWindow(cfg, nil)
	for _, r := range recs {
		if s, ok := one.Capture().Process(r); ok {
			one.Observe(&s)
		}
	}
	one.Close()

	batched := NewWindow(cfg, nil)
	var smps []ixp.DNSSample
	stale, renumbered := 0, 0
	for i := 0; i < len(recs); i += 8 {
		smps = smps[:0]
		for _, r := range recs[i:min(i+8, len(recs))] {
			if s, ok := batched.Capture().Process(r); ok {
				smps = append(smps, s)
			}
		}
		for j := range smps {
			s := &smps[j]
			if s.NameGen != batched.agg.Table.Gen() {
				stale++
			}
			id := s.Name
			batched.Observe(s)
			if s.Name != id {
				renumbered++
			}
		}
	}
	batched.Close()

	if one.cp.Stats.Accepted != len(recs) || batched.cp.Stats.Accepted != len(recs) {
		t.Fatalf("accepted %d and %d of %d records", one.cp.Stats.Accepted, batched.cp.Stats.Accepted, len(recs))
	}
	if stale == 0 || renumbered == 0 || batched.Stats().NamesReleased == 0 {
		t.Fatalf("%d stale samples, %d renumbered, %d names released: the stream must carry IDs across a release",
			stale, renumbered, batched.Stats().NamesReleased)
	}
	if !reflect.DeepEqual(one.Detections(), batched.Detections()) || len(one.Detections()) < 15 {
		t.Fatalf("detections: %d one at a time, %d datagram by datagram", len(one.Detections()), len(batched.Detections()))
	}
	if !reflect.DeepEqual(one.Days(), batched.Days()) {
		t.Fatalf("day logs differ:\n one %+v\nbatch %+v", one.Days(), batched.Days())
	}
	if !maps.Equal(one.names, batched.names) || !maps.Equal(nameState(one), nameState(batched)) {
		t.Fatalf("name list or per-name statistics differ: %v vs %v", one.CurrentNames(), batched.CurrentNames())
	}
}

// TestWindowResumeAfterRelease: a checkpoint written mid-day after
// releases, restored and continued, ends in the state of the run that
// never stopped — same detections, same snapshot bytes.
func TestWindowResumeAfterRelease(t *testing.T) {
	stream := randomSubdomainStream(8, 300)
	cfg := WindowConfig{Days: 2}
	_, whole := runWindow(stream, cfg)

	w := NewWindow(cfg, nil)
	cut := 0
	for ; w.closedDays < 4 || cut%320 != 150; cut++ { // mid-way through day 4
		w.Observe(stream[cut].in(w))
	}
	if w.Stats().NamesReleased == 0 {
		t.Fatal("no release before the checkpoint")
	}
	w = restoreWindow(t, cfg, snapshotBytes(t, w))
	for _, o := range stream[cut:] {
		w.Observe(o.in(w))
	}
	w.Close()
	if !reflect.DeepEqual(w.Detections(), whole.Detections()) || len(w.Detections()) != 8 {
		t.Fatalf("detections across the resume: %d, uninterrupted: %d", len(w.Detections()), len(whole.Detections()))
	}
	if !bytes.Equal(snapshotBytes(t, w), snapshotBytes(t, whole)) {
		t.Fatal("the resumed run's final snapshot differs from the uninterrupted run's")
	}
}

// BenchmarkWindowCloseRelease is the name release of one day close over
// a serve-coarse-sized table: 3 600 names with an ANY packet, which
// stay, and 6 000 names first seen that day and never ranked, which go.
func BenchmarkWindowCloseRelease(b *testing.B) {
	w := NewWindow(WindowConfig{}, NewStages())
	for i := 0; i < 3600; i++ {
		s := winSample(w, dayTime(0), byte(i), fmt.Sprintf("keep%04d.example", i), dnswire.TypeANY, 100)
		s.Resp = false
		w.Observe(s)
	}
	w.Close()
	tab := w.Capture().Table
	kept := tab.Len()
	fresh := make([][]byte, 6000)
	for i := range fresh {
		fresh[i] = fmt.Appendf(nil, "r%d.host%d.zone%d.example.", i%100, i, i%997)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		for _, n := range fresh {
			tab.InternBytes(n)
		}
		b.StartTimer()
		w.releaseNames()
	}
	if tab.Len() != kept {
		b.Fatalf("%d names held after the release, want the %d kept", tab.Len(), kept)
	}
}
