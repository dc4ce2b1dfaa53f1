package core

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// modelAgg is the naive reference of the aggregation fold: per-name
// statistics keyed by name string and per-(client, day) profiles in a
// map, each counted the plainest way. It knows nothing of name IDs, the
// arena, the client index or the batch memo, so a name release, an
// arena re-sort or a snapshot restore leaves it as it is, while the
// aggregator must still read the same.
type modelAgg struct {
	trackAll bool
	track    map[string]bool

	samples, requests, totalBytes, anyPackets, anyBytes int

	names   map[string]NameStats
	clients map[ClientDay]*modelClient
}

// modelClient is one (client, day) profile of the model.
type modelClient struct {
	total, bytes, anyPackets, anyBytes int
	first, last                        simclock.Time
	tracked                            map[string]int
}

func newModel(track []string, trackAll bool) *modelAgg {
	m := &modelAgg{
		trackAll: trackAll,
		track:    map[string]bool{},
		names:    map[string]NameStats{},
		clients:  map[ClientDay]*modelClient{},
	}
	for _, n := range track {
		m.track[dnswire.CanonicalName(n)] = true
	}
	return m
}

// observe counts one packet of name at t, attributed to client.
func (m *modelAgg) observe(client [4]byte, t simclock.Time, name string, size int, isANY, isResp bool) {
	m.samples++
	m.totalBytes += size
	if !isResp {
		m.requests++
	}
	if isANY {
		m.anyPackets++
		m.anyBytes += size
	}

	ns := m.names[name]
	ns.Packets++
	if isANY {
		ns.ANYPackets++
	}
	if isResp {
		ns.MaxSize = max(ns.MaxSize, size)
	}
	m.names[name] = ns

	key := ClientDay{Client: client, Day: t.Day()}
	mc := m.clients[key]
	if mc == nil {
		mc = &modelClient{first: t, last: t, tracked: map[string]int{}}
		m.clients[key] = mc
	}
	mc.total++
	mc.bytes += size
	if isANY {
		mc.anyPackets++
		mc.anyBytes += size
	}
	mc.first = min(mc.first, t)
	mc.last = max(mc.last, t)
	if m.trackAll || m.track[name] {
		mc.tracked[name]++
	}
}

// observeSample counts one sample: a query is the source's, a response
// the destination's.
func (m *modelAgg) observeSample(tab *names.Table, s *ixp.BatchRecord) {
	client := s.Src
	if s.Resp {
		client = s.Dst
	}
	m.observe(client, s.Time, tab.Name(s.Name), int(s.MsgSize), s.QType == dnswire.TypeANY, s.Resp)
}

// observeBatch counts every row of b, in row order.
func (m *modelAgg) observeBatch(b *ixp.SampleBatch) {
	for i := range b.Rows {
		m.observeSample(b.Table, &b.Rows[i])
	}
}

// merge adds o's counts into m.
func (m *modelAgg) merge(o *modelAgg) {
	m.trackAll = m.trackAll || o.trackAll
	for n := range o.track {
		m.track[n] = true
	}
	m.samples += o.samples
	m.requests += o.requests
	m.totalBytes += o.totalBytes
	m.anyPackets += o.anyPackets
	m.anyBytes += o.anyBytes
	for n, ons := range o.names {
		ns := m.names[n]
		ns.Packets += ons.Packets
		ns.ANYPackets += ons.ANYPackets
		ns.MaxSize = max(ns.MaxSize, ons.MaxSize)
		m.names[n] = ns
	}
	for key, oc := range o.clients {
		mc := m.clients[key]
		if mc == nil {
			mc = &modelClient{first: oc.first, last: oc.last, tracked: map[string]int{}}
			m.clients[key] = mc
		}
		mc.total += oc.total
		mc.bytes += oc.bytes
		mc.anyPackets += oc.anyPackets
		mc.anyBytes += oc.anyBytes
		mc.first = min(mc.first, oc.first)
		mc.last = max(mc.last, oc.last)
		for n, c := range oc.tracked {
			mc.tracked[n] += c
		}
	}
}

// check holds ag to the model: global counters, the statistics of every
// name in the table (zero for one the model never counted), every
// profile, found through the index too, and every (client-day, name)
// count of the tracked-row table, whose rows must be well formed
// (trackedCounts).
func (m *modelAgg) check(t *testing.T, ag *Aggregator, what string) {
	t.Helper()
	got := [...]int{ag.Samples, ag.Requests, ag.TotalBytes, ag.ANYPackets, ag.ANYBytes}
	want := [...]int{m.samples, m.requests, m.totalBytes, m.anyPackets, m.anyBytes}
	if got != want {
		t.Fatalf("%s: globals (samples, requests, bytes, ANY packets, ANY bytes) %v, model %v", what, got, want)
	}
	tab := ag.Table
	if len(ag.names) > tab.Len() {
		t.Fatalf("%s: %d name entries over a %d-name table", what, len(ag.names), tab.Len())
	}
	for id := range tab.Len() {
		var ns NameStats
		if id < len(ag.names) {
			ns = ag.names[id]
		}
		if name := tab.Name(uint32(id)); ns != m.names[name] {
			t.Fatalf("%s: %s stats %+v, model %+v", what, name, ns, m.names[name])
		}
	}
	for n := range m.names {
		if _, ok := tab.Lookup(n); !ok {
			t.Fatalf("%s: counted name %s is not in the table", what, n)
		}
	}
	if ag.NumClients() != len(m.clients) {
		t.Fatalf("%s: %d profiles, model %d", what, ag.NumClients(), len(m.clients))
	}
	ag.EachClient(func(key ClientDay, ca *ClientAgg) {
		mc := m.clients[key]
		switch {
		case mc == nil:
			t.Fatalf("%s: profile %v the model never opened", what, key)
		case ag.ClientOf(key) != ca:
			t.Fatalf("%s: the index does not resolve %v to its arena slot", what, key)
		case ca.Total != mc.total || ca.Bytes != mc.bytes || ca.ANYPackets != mc.anyPackets ||
			ca.ANYBytes != mc.anyBytes || ca.First != mc.first || ca.Last != mc.last:
			t.Fatalf("%s: profile %v = %d pkts %d B, ANY %d pkts %d B, [%d, %d]; model %d pkts %d B, ANY %d pkts %d B, [%d, %d]",
				what, key, ca.Total, ca.Bytes, ca.ANYPackets, ca.ANYBytes, ca.First, ca.Last,
				mc.total, mc.bytes, mc.anyPackets, mc.anyBytes, mc.first, mc.last)
		}
	})
	tracked := trackedCounts(t, ag, what)
	for key, mc := range m.clients {
		if !maps.Equal(tracked[key], mc.tracked) {
			t.Fatalf("%s: profile %v tracks %v, model %v", what, key, tracked[key], mc.tracked)
		}
	}
}

// modelPool is the name pool of the model programs: the tracked universe
// ("." and n0.test.) and untracked names.
var (
	modelTrack = []string{"n0.test.", "."}
	modelPool  = []string{".", "n0.test.", "n1.test.", "n2.test.", "n3.test.", "n4.example.", "n5.example.", "n6.gov."}
	modelSizes = [...]int{40, 60, 512, 1400, 1400, 3000, 4096, 9000}
)

// modelRow decodes one packet of a model program from four bytes:
// client and day, name and flags, size, time of day.
func modelRow(tab *names.Table, p [4]byte) ixp.BatchRecord {
	client := [4]byte{10, 0, 0, p[0] & 0x3f}
	server := [4]byte{203, 0, 113, p[2] & 3}
	r := ixp.BatchRecord{
		Time:    simclock.MeasurementStart.Add(simclock.Days(int(p[0]>>6)) + simclock.Duration(p[3])*(simclock.Day/256)),
		Src:     client,
		Dst:     server,
		Resp:    p[1]&0x40 != 0,
		Name:    tab.Intern(modelPool[int(p[1]&0x3f)%len(modelPool)]),
		QType:   dnswire.TypeA,
		MsgSize: int32(modelSizes[p[2]%8] + int(p[2]>>3)),
	}
	if p[1]&0x80 != 0 {
		r.QType = dnswire.TypeANY
	}
	if r.Resp {
		r.Src, r.Dst = server, client
	}
	return r
}

// runAggregatorProgram interprets prog as a stream of aggregator
// operations over two aggregators sharing one table — ag and ext, the
// pipeline's main and extended pair — each followed by a model, and
// holds both to their model after every operation. An operation byte
// selects, by its value mod 8:
//
//	0, 1  Observe one packet (4 bytes, modelRow)
//	2     ObserveBatch: a count byte, then that many packets; with bit 5
//	      of the count set, rows with an even first byte take the first
//	      row's client and day, so runs of one key exercise the memo
//	3     ObserveBatchSplit(ag, ext) at a two-day window starting at a
//	      window byte's 64th of a day, then a batch as for 2
//	4     the barrier: a shard-count byte picks 1–3 shards — ag alone;
//	      ag and ext; or ag, ext and a third shard fed a batch as for 2
//	      — merged by MergeShards into ag (a fresh ext unless ag went
//	      alone); the result must be in canonical order and the shards
//	      must hold no chunks
//	5     ResetClients of ag
//	6     ReleaseNames after ag and ext are merged and reset: a name is kept
//	      when it has ANY packets or a MaxSize at or above a floor byte
//	      × 32 (tracked names always); the table must keep exactly those
//	7     a WriteSnapshot + ReadSnapshot round trip of ag
//
// Bit 3 of the first byte puts both aggregators in track-all mode.
func runAggregatorProgram(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) == 0 {
		return
	}
	trackAll := prog[0]&8 != 0
	tab := names.NewTable()
	fresh := func() (*Aggregator, *modelAgg) {
		ag := NewAggregator(tab, modelTrack)
		ag.SetTrackAll(trackAll)
		return ag, newModel(modelTrack, trackAll)
	}
	ag, m := fresh()
	ext, mExt := fresh()

	take := func(n int) []byte {
		if len(prog) < n {
			prog = nil
			return nil
		}
		b := prog[:n]
		prog = prog[n:]
		return b
	}
	batch := func() *ixp.SampleBatch {
		c := take(1)
		if c == nil {
			return nil
		}
		b := &ixp.SampleBatch{Table: tab}
		var first byte
		for i := 0; i < 1+int(c[0]&0x1f); i++ {
			p := take(4)
			if p == nil {
				break
			}
			row := [4]byte(p)
			if i == 0 {
				first = row[0]
			} else if c[0]&0x20 != 0 && row[0]&1 == 0 {
				row[0] = first
			}
			b.Append(modelRow(tab, row))
		}
		return b
	}

	for step := 0; len(prog) > 0; step++ {
		op := take(1)[0]
		what := fmt.Sprintf("step %d (op %d)", step, op%8)
		switch op % 8 {
		case 0, 1:
			p := take(4)
			if p == nil {
				return
			}
			r := modelRow(tab, [4]byte(p))
			ag.Observe(&r)
			m.observeSample(tab, &r)
		case 2:
			b := batch()
			if b == nil {
				return
			}
			ag.ObserveBatch(b)
			m.observeBatch(b)
		case 3:
			wb := take(1)
			b := batch()
			if b == nil {
				return
			}
			start := simclock.MeasurementStart.Add(simclock.Duration(wb[0]) * (simclock.Day / 64))
			w := simclock.Window{Start: start, End: start.Add(simclock.Days(2))}
			ObserveBatchSplit(ag, ext, b, w)
			for i := range b.Rows {
				s := &b.Rows[i]
				if w.Contains(s.Time) {
					m.observeSample(tab, s)
				} else {
					mExt.observeSample(tab, s)
				}
			}
		case 4:
			kb := take(1)
			if kb == nil {
				return
			}
			shards := []*Aggregator{ag}
			if k := 1 + int(kb[0])%3; k > 1 {
				shards = append(shards, ext)
				m.merge(mExt)
				if k == 3 {
					b := batch()
					if b == nil {
						return
					}
					third, mThird := fresh()
					third.ObserveBatch(b)
					mThird.observeBatch(b)
					shards = append(shards, third)
					m.merge(mThird)
				}
			}
			ag = MergeShards(shards)
			if len(shards) > 1 {
				ext, mExt = fresh()
			}
			checkMerged(t, what, ag, shards)
		case 5:
			if n := ag.ResetClients(); n != len(m.clients) {
				t.Fatalf("%s: ResetClients released %d profiles, model held %d", what, n, len(m.clients))
			}
			clear(m.clients)
		case 6:
			fb := take(1)
			if fb == nil {
				return
			}
			floor := int(fb[0]) * 32
			ag = MergeShards([]*Aggregator{ag, ext})
			m.merge(mExt)
			ag.ResetClients()
			clear(m.clients)
			kept := func(name string) bool {
				ns := m.names[name]
				return m.track[name] || ns.ANYPackets > 0 || ns.MaxSize >= floor
			}
			var want []string
			for id := range tab.Len() {
				if n := tab.Name(uint32(id)); kept(n) {
					want = append(want, n)
				}
			}
			ag.ReleaseNames(func(_ uint32, ns *NameStats) bool { return ns.ANYPackets > 0 || ns.MaxSize >= floor })
			for n := range m.names {
				if !kept(n) {
					delete(m.names, n)
				}
			}
			var have []string
			for id := range tab.Len() {
				have = append(have, tab.Name(uint32(id)))
			}
			if !slices.Equal(have, want) {
				t.Fatalf("%s: the table kept %v, want %v", what, have, want)
			}
			ext, mExt = fresh()
		case 7:
			ag = roundTrip(t, ag)
		}
		m.check(t, ag, what)
		mExt.check(t, ext, what+", extended")
	}
}

// checkMerged holds the barrier's own promises: the merged arena is in
// strictly increasing (day, client) order, so are the tracked rows in
// (slot, ID), and the shards hold nothing.
func checkMerged(t *testing.T, what string, ag *Aggregator, shards []*Aggregator) {
	t.Helper()
	prev, first := ClientDay{}, true
	ag.EachClient(func(key ClientDay, _ *ClientAgg) {
		if !first && prev.less(key) >= 0 {
			t.Fatalf("%s: merged arena out of order: %v after %v", what, key, prev)
		}
		prev, first = key, false
	})
	if !slices.IsSortedFunc(ag.pairs.rows, func(a, b pairRow) int {
		return cmp.Or(cmp.Compare(a.slot, b.slot), cmp.Compare(a.id, b.id))
	}) {
		t.Fatalf("%s: merged tracked rows out of (slot, ID) order", what)
	}
	for i, sh := range shards {
		if sh.chunks != nil || sh.n != 0 || sh.idx.ctrl != nil || sh.names != nil || sh.pairs.rows != nil || sh.pairs.ctrl != nil {
			t.Fatalf("%s: shard %d still holds %d chunks, %d profiles, %d index slots, %d name entries, %d tracked rows after the barrier",
				what, i, len(sh.chunks), sh.n, len(sh.idx.ctrl), len(sh.names), len(sh.pairs.rows))
		}
	}
}

// TestAggregatorMatchesModel runs seeded random programs, in explicit-
// track and track-all mode, against the model.
func TestAggregatorMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewPCG(seed, 26))
		prog := make([]byte, 3000)
		for i := range prog {
			prog[i] = byte(rng.IntN(256))
		}
		prog[0] = byte(seed) << 3 // alternate track-all
		runAggregatorProgram(t, prog)
	}
}

func FuzzAggregator(f *testing.F) {
	f.Add([]byte{0, 7, 0x40, 3, 9, 1, 7, 0x40, 3, 200, 2, 0x23, 1, 1, 1, 1, 2, 2, 2, 2, 5, 7})
	f.Add([]byte{8, 3, 60, 0x22, 0xc1, 0x81, 5, 17, 0x42, 0xc1, 6, 33, 4, 2, 1, 0x40, 9, 9, 6, 10, 7})
	f.Add([]byte{8, 2, 0x3f, 0x41, 0xc0, 2, 1, 0x40, 1, 0xc7, 3, 255, 0x4, 0x82, 0x03, 0x40, 0x02, 0x07, 0x41, 0x05, 4, 6, 0, 5})
	// Three shards at the barrier, one client-day held by all three.
	f.Add([]byte{2, 0x02, 1, 0x40, 3, 9, 2, 1, 7, 10, 1, 0x81, 2, 20,
		3, 100, 0x01, 1, 0x40, 3, 200, 65, 1, 2, 30,
		4, 2, 0x01, 1, 0x40, 5, 50, 2, 0x41, 4, 60, 7, 4, 1})
	// Track-all: one client-day asks for several names in ag, ext and a
	// third shard, so the barrier re-keys colliding rows from three
	// arenas; then a round trip, a reset and a refill.
	f.Add([]byte{10, 0x23, 5, 0x00, 3, 9, 5, 0x01, 3, 9, 5, 0x02, 4, 9, 5, 0x06, 5, 9,
		3, 0x40, 0x02, 5, 0x03, 3, 9, 5, 0x41, 2, 9, 5, 0x07, 4, 9,
		4, 2, 0x02, 5, 0x00, 3, 9, 5, 0x03, 3, 9, 5, 0x04, 3, 9,
		7, 5, 0, 5, 0x01, 3, 9, 0, 5, 0x02, 3, 9, 7})
	f.Fuzz(runAggregatorProgram)
}

// TestArenaChunksMatchModel pushes more than three chunks of profiles
// through every arena path — Observe, ObserveBatch, ResetClients, a
// snapshot round trip and the barrier over three shards whose
// client-days collide — and holds the aggregator to the model after
// each.
func TestArenaChunksMatchModel(t *testing.T) {
	const clients = 3*chunkLen + chunkLen/2
	tab := names.NewTable()
	row := func(c, day, salt int) ixp.BatchRecord {
		r := modelRow(tab, [4]byte{byte(day << 6), byte(c + salt), byte(c), byte(salt)})
		if r.Resp {
			r.Dst = [4]byte{10, 1, byte(c >> 8), byte(c)}
		} else {
			r.Src = [4]byte{10, 1, byte(c >> 8), byte(c)}
		}
		return r
	}
	// feed opens one profile per client on day, through Observe for
	// even clients and one batch for the odd ones.
	feed := func(ag *Aggregator, m *modelAgg, day, salt int) {
		b := &ixp.SampleBatch{Table: tab}
		for c := range clients {
			r := row(c, day, salt)
			if c%2 == 0 {
				ag.Observe(&r)
				m.observeSample(tab, &r)
				continue
			}
			b.Append(r)
		}
		ag.ObserveBatch(b)
		m.observeBatch(b)
	}
	ag, m := NewAggregator(tab, modelTrack), newModel(modelTrack, false)
	feed(ag, m, 0, 0)
	feed(ag, m, 1, 1)
	m.check(t, ag, "two days")
	if got := ag.ArenaCap(); got < 2*clients || got%chunkLen != 0 {
		t.Fatalf("ArenaCap %d for %d profiles", got, 2*clients)
	}
	ag.ResetClients()
	clear(m.clients)
	feed(ag, m, 2, 2)
	m.check(t, ag, "after the reset")
	ag = roundTrip(t, ag)
	m.check(t, ag, "after the round trip")

	shards := []*Aggregator{ag}
	for i := 1; i <= 2; i++ {
		sh, ms := NewAggregator(tab, modelTrack), newModel(modelTrack, false)
		feed(sh, ms, 2, 2+i) // day 2 again: every client-day collides
		feed(sh, ms, i-1, i)
		shards = append(shards, sh)
		m.merge(ms)
	}
	ag = MergeShards(shards)
	m.check(t, ag, "after the barrier")
	checkMerged(t, "after the barrier", ag, shards)
	if ag.NumClients() != 3*clients {
		t.Fatalf("%d merged profiles, want %d", ag.NumClients(), 3*clients)
	}
}

// refCollector is the pass-2 reference: the attack details of §4.2
// collected sample by sample over name strings, the plainest way, for
// Collector.ObserveBatch to be held equal to.
type refCollector struct {
	cands     map[string]bool
	recs      map[ClientDay]*AttackRecord
	visibleNS []int
}

func newRefCollector(cands map[string]bool, dets []*Detection) *refCollector {
	r := &refCollector{cands: cands, recs: map[ClientDay]*AttackRecord{}}
	for _, d := range dets {
		r.recs[ClientDay{Client: d.Victim, Day: d.Day}] = &AttackRecord{
			Victim: d.Victim, Day: d.Day, First: d.First, Last: d.Last,
			Names: map[string]int{}, TXIDs: map[uint16]int{}, Amplifiers: map[[4]byte]int{},
			ReqIngress: map[uint32]int{}, ReqTTLs: map[uint8]int{},
		}
	}
	return r
}

// observe collects one row, its name read in tab, taking its Ingress
// as the request's member AS.
func (r *refCollector) observe(tab *names.Table, s *ixp.BatchRecord) {
	client := s.Src
	if s.Resp {
		client = s.Dst
	}
	rec := r.recs[ClientDay{Client: client, Day: s.Time.Day()}]
	qname := tab.Name(s.Name)
	if rec == nil || !r.cands[qname] {
		return
	}
	rec.Packets++
	rec.Names[qname]++
	rec.TXIDs[s.TXID]++
	if s.QType == dnswire.TypeANY {
		rec.ANYPackets++
	}
	if s.Resp {
		rec.Responses++
		rec.Amplifiers[s.Src]++
		rec.Sizes = append(rec.Sizes, int(s.MsgSize))
		r.visibleNS = append(r.visibleNS, int(s.VisibleNS))
	} else {
		rec.Requests++
		rec.ReqIngress[s.Ingress]++
		rec.ReqTTLs[s.IPTTL]++
	}
	rec.First = min(rec.First, s.Time)
	rec.Last = max(rec.Last, s.Time)
}

// records returns the collected records in (day, victim) order.
func (r *refCollector) records() []*AttackRecord {
	var out []*AttackRecord
	for _, rec := range r.recs {
		out = append(out, rec)
	}
	slices.SortFunc(out, func(a, b *AttackRecord) int {
		if a.Day != b.Day {
			return a.Day - b.Day
		}
		return cmpAddr(a.Victim, b.Victim)
	})
	return out
}
