package ecosystem

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"sync/atomic"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
	"dnsamp/internal/topology"
	"dnsamp/internal/zonedb"
)

// TaggedRecord is one sampled IXP frame plus the ingress-port metadata
// the fabric knows (needed because spoofed packets cannot be attributed
// by source address). The frame-level path (WireDay) exists for wire
// fidelity tests and pcap-style consumers; the detection pipeline
// consumes the batch form.
type TaggedRecord struct {
	Rec sflow.Record
	// Ingress is the member ASN whose port the packet entered through;
	// 0 lets the capture point derive it from the source address.
	Ingress uint32
}

// SensorFlow aggregates the spoofed queries one honeypot sensor receives
// from one attack event. The honeypot package applies the CCC inference
// thresholds to these flows.
type SensorFlow struct {
	Sensor   int
	Victim   netip.Addr
	Start    simclock.Time
	Duration simclock.Duration
	Count    int
	QName    string
	QType    dnswire.Type
	TXID     uint16
	EventID  int
}

// Legitimate background traffic. The floats are typed, so that
// bgRootShare+bgMisusedShare rounds as the run-time sum of float64 fields
// did (an untyped sum folds exactly and moves a background draw).
const (
	// bgSamplesPerDay is the paper-scale expected sampled background
	// packets per day (~340k/day so that attack traffic lands at ~5% of
	// DNS packets), scaled by the campaign's Scale.
	bgSamplesPerDay = 340_000
	// bgClientCount is the paper-scale background client population,
	// scaled by the campaign's Scale.
	bgClientCount = 120_000
	// bgResponseShare is the response fraction (paper: 60% requests).
	bgResponseShare float64 = 0.40
	// bgRootShare is the share of background packets for the root name
	// — the reason some clients show low misused-name ratios in Fig. 4.
	bgRootShare float64 = 0.015
	// bgMisusedShare is the tiny share of organic traffic for misused
	// names (monitoring, research scanners).
	bgMisusedShare float64 = 0.0004
	// bgANYShare of background queries (debugging tools etc.);
	// calibrated so that ~68% of ANY packets belong to attacks.
	bgANYShare float64 = 0.025
)

// DayTraffic is everything one simulated day produces, with the sampled
// IXP traffic in batch form (name IDs into the generator's
// frozen interning table — see Generator.Table).
type DayTraffic struct {
	Day simclock.Time
	// Batch holds the sampled, sanitized IXP records (unordered within
	// the day).
	Batch *ixp.SampleBatch
	// Sensors holds the honeypot-side flows.
	Sensors []SensorFlow
}

// WireDayTraffic is the frame-level twin of DayTraffic: the same
// sampled packets materialized as truncated Ethernet/IPv4/UDP frames.
type WireDayTraffic struct {
	Day simclock.Time
	// IXP holds the sampled, truncated frames (unordered).
	IXP []TaggedRecord
	// Sensors holds the honeypot-side flows.
	Sensors []SensorFlow
}

// Generator materializes traffic for a campaign.
//
// Traffic is generated one day at a time, and each day is a pure
// function of (campaign, seed, day): Day derives a fresh per-day RNG
// stream, so materializing days out of order — or concurrently from
// several goroutines — yields exactly the traffic of a sequential
// day-by-day replay. All state shared across days (campaign, client
// population, Zipf tables, the name-interning table) is read-only after
// construction.
//
// Day (batches of rows) and WireDay (materialized frames) consume
// their per-day RNG stream identically: for every day, WireDay(d)
// sanitized through ixp.CapturePoint.Sanitize and appended row by row
// (source.AppendFrames) yields exactly the batch of Day(d). TestDayBatchMatchesWire
// holds this equivalence.
//
// Consumers normally do not call Day directly: source.Synthetic adapts
// a Generator to the streaming source.Source interface the detection
// pipeline consumes (pass 2 asks DayFor for its victims' rows only);
// the live service reads WireDay through a synthetic: input.
type Generator struct {
	C *Campaign
	// SkipAttacks suppresses the campaign's attack-event traffic (both
	// the IXP records and the honeypot sensor flows), leaving only the
	// organic background. The scenario library composes its own attack
	// overlays on top of this benign baseline so campaign events never
	// pollute a scenario's ground-truth labels. Skipping changes
	// per-day RNG consumption relative to a full run; the background
	// traffic itself stays deterministic for fixed (campaign, seed, day,
	// SkipAttacks).
	SkipAttacks bool

	seed int64
	// bgSamples is bgSamplesPerDay at the campaign's scale.
	bgSamples int

	// table is the frozen name-interning space: every name the
	// generator can emit (root, explicit zones, event names, procedural
	// namespace) is in it from construction, so day synthesis never
	// writes to it and batches from concurrent Day calls share it. The
	// procedural namespace is the table's range: bulk name i has ID
	// procBase+i.
	table    *names.Table
	rootID   uint32
	procBase uint32
	misIDs   []uint32 // MisusedCandidates index -> table ID

	// isExplicit flags the table IDs below procBase backed by an
	// explicit zone, replacing the per-packet zones-map lookup; no bulk
	// name has a zone.
	isExplicit []bool
	// sizes memoizes the response sizes of the names without an
	// explicit zone.
	sizes sizeCache

	// bgClients is the background client population; bgSet holds the
	// same addresses for DayFor's "is any of these a background client"
	// test.
	bgClients []netip.Addr
	bgSet     map[[4]byte]struct{}
	bgZipf    *stats.Zipf
	nameZipf  *stats.Zipf
	servers   []netip.Addr
}

// Table exposes the generator's frozen interning table (read-only).
func (g *Generator) Table() *names.Table { return g.table }

// dayGen carries the mutable per-day state: the day's RNG stream, its
// wire sink and the sink's sampler, the zone-response encoder, the
// response-template cache, and the sink every emitted packet goes to.
// One dayGen lives for exactly one Day/WireDay call, which is what
// makes both safe for concurrent use.
type dayGen struct {
	*Generator
	rng      *rand.Rand
	wire     WireSink
	enc      dnswire.Encoder
	respTmpl map[tmplKey]*respTemplate

	// The sink: rows into batch (Day), or, when batch is nil, frames
	// into wire.Out (WireDay).
	batch *ixp.SampleBatch
}

// daySeed mixes the generator seed with the day ordinal (splitmix64
// finalizer) so per-day streams are decorrelated.
func daySeed(seed int64, day int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(day)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// slice opens the per-day generation state for one day.
func (g *Generator) slice(day simclock.Time) *dayGen {
	h := daySeed(g.seed, day.Day())
	return &dayGen{
		Generator: g,
		rng:       rand.New(rand.NewSource(h)),
		wire:      WireSink{Sampler: sflow.NewSampler(h ^ 0x5a3c9d1)},
		respTmpl:  make(map[tmplKey]*respTemplate),
	}
}

type tmplKey struct {
	name string
	day  int
}

type respTemplate struct {
	nameID  uint32
	prefix  []byte // first snaplen-42 bytes of the DNS payload
	fullLen int    // full DNS message size
	anCount uint16 // announced answer count (from the prefix header)
	// meta caches, per parse-window length, what ixp.CheckDNS makes of
	// the truncated prefix.
	meta map[int]tmplMeta
}

type tmplMeta struct {
	visibleNS uint16
	drop      ixp.Drop
}

// NewGenerator builds a traffic generator. The background volume scales
// with the campaign's Scale.
func NewGenerator(c *Campaign, seed int64) *Generator {
	g := &Generator{
		C:         c,
		seed:      seed,
		bgSamples: scaleInt(bgSamplesPerDay, c.Cfg.Scale),
	}
	clients := scaleInt(bgClientCount, c.Cfg.Scale)

	// Background clients across all ASes; servers in hosting space.
	// This population is drawn once from a construction-time stream and
	// shared read-only by every day slice.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	asns := make([]uint32, 0, len(c.Topo.ASes))
	for asn := range c.Topo.ASes {
		asns = append(asns, asn)
	}
	slices.Sort(asns)
	g.bgSet = make(map[[4]byte]struct{}, clients)
	for i := 0; i < clients; i++ {
		asn := asns[rng.Intn(len(asns))]
		addr, _ := c.Topo.RandomAddrIn(rng, asn)
		g.bgClients = append(g.bgClients, addr)
		g.bgSet[addr.As4()] = struct{}{}
	}
	hosting := c.Topo.ASesOfType(topology.ASHosting)
	for i := 0; i < 400; i++ {
		addr, _ := c.Topo.RandomAddrIn(rng, hosting[rng.Intn(len(hosting))])
		g.servers = append(g.servers, addr)
	}
	g.bgZipf = stats.NewZipf(len(g.bgClients), 1.05)
	g.nameZipf = stats.NewZipf(namespaceRanks, 1.0)

	// Freeze the interning table over the full emittable namespace:
	// the named zones and events hashed, the bulk names as a range.
	g.table = names.NewTable()
	g.rootID = g.table.Intern(".")
	for _, n := range c.DB.ExplicitNames() {
		g.table.Intern(dnswire.CanonicalName(n))
	}
	for _, ev := range c.Events {
		g.table.Intern(dnswire.CanonicalName(ev.QName))
	}
	mis := c.DB.MisusedCandidates()
	g.misIDs = make([]uint32, len(mis))
	for i, n := range mis {
		g.misIDs[i] = g.table.Intern(dnswire.CanonicalName(n))
	}
	g.isExplicit = make([]bool, g.table.Len())
	for id := range g.isExplicit {
		_, g.isExplicit[id] = c.DB.Zone(g.table.Name(uint32(id)))
	}
	// The background name Zipf spans a fixed 200k-rank namespace that
	// may exceed the DB's procedural count, so freeze the union.
	g.procBase = g.table.AppendRange(zonedb.ProceduralRange(max(c.DB.NumProceduralNames(), g.nameZipf.N())))
	g.sizes = newSizeCache(g.table.Len(), int(g.procBase)+g.nameZipf.N())
	return g
}

// namespaceRanks is the background name Zipf's rank count, and so the
// fewest bulk names a generator's table holds.
const namespaceRanks = 200_000

// AdoptNamespace gives a table decoded from a generator's table its
// bulk namespace back as a range. A generator holds that namespace as
// its table's range (names.Table.AppendRange), which the table's
// encoding does not mark: its names are written like any other. Read
// back, the run of bulk names 0, 1, 2, ... from bulk name 0's ID becomes
// the range again when it spans at least namespaceRanks names, so the
// table opened is the table written; a table no generator built holds
// no such run. The run's end is found by bisection, and AdoptRange
// checks every name of it.
func AdoptNamespace(tab *names.Table) {
	all := zonedb.ProceduralRange(tab.Len())
	base, ok := tab.Lookup(string(all.AppendName(nil, 0)))
	if !ok {
		return
	}
	n := sort.Search(tab.Len()-int(base), func(j int) bool {
		i, ok := all.ParseName(tab.Name(base + uint32(j)))
		return !ok || i != j
	})
	if n >= namespaceRanks {
		tab.AdoptRange(base, zonedb.ProceduralRange(n))
	}
}

// sizeCache memoizes the response size of names without an explicit
// zone per (qtype slot, name ID): such a size is a time-independent pure
// function of (name, qtype), but costs two SHA-256 hashes to derive.
// Sizes are held capped at sizeCap, in 16-bit lanes two to a 32-bit
// word; 0 means "not yet computed" (no response is 0 bytes). Concurrent
// Day slices fill the lanes racelessly: a lane goes once from 0 to the
// one value every writer computes, set by an atomic OR.
//
// Slot 0 (ANY) covers every table ID, since organic ANY queries spread
// uniformly over the whole bulk namespace. The typed slots cover only
// the IDs a typed draw reaches, the hashed names and the name Zipf's
// ranks (typedReach): at dnsampdetect's default 4.4 M bulk names, 200 000
// of them. An ID outside a slot's cover is sized directly.
type sizeCache struct {
	lanes      [][]atomic.Uint32 // per qtype slot; ID i in word i/2
	typedReach uint32
}

// sizeCap is the largest size the cache holds. Its one reader,
// emitBackgroundResponse, adds under 24 bytes of jitter to the size of a
// name without an explicit zone and caps the sum at 4096, so a size held
// as min(size, 4096) yields the same packet.
const sizeCap = 4096

// newSizeCache covers ids table IDs in the ANY slot and the first
// typedReach in the typed slots.
func newSizeCache(ids, typedReach int) sizeCache {
	c := sizeCache{lanes: make([][]atomic.Uint32, len(qtypeSlots)), typedReach: uint32(typedReach)}
	for slot := range c.lanes {
		n := typedReach
		if slot == 0 {
			n = ids
		}
		c.lanes[slot] = make([]atomic.Uint32, (n+1)/2)
	}
	return c
}

// word returns the word holding the lane of (slot, id) and the lane's
// shift in it, or nil when no slot covers them.
func (c *sizeCache) word(slot int, id uint32) (*atomic.Uint32, int) {
	if slot < 0 || slot > 0 && id >= c.typedReach {
		return nil, 0
	}
	return &c.lanes[slot][id/2], int(id%2) * 16
}

// qtypeSlots maps the background query types to size-cache slots (slot
// 0 is ANY).
var qtypeSlots = []dnswire.Type{
	dnswire.TypeANY, dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypePTR,
	dnswire.TypeMX, dnswire.TypeTXT, dnswire.TypeNS, dnswire.TypeSOA,
	dnswire.TypeSRV, dnswire.TypeDNSKEY,
}

func qtypeSlot(qtype dnswire.Type) int {
	for i, t := range qtypeSlots {
		if t == qtype {
			return i
		}
	}
	return -1
}

// explicit reports whether name id has an explicit zone.
func (g *Generator) explicit(id uint32) bool {
	return int(id) < len(g.isExplicit) && g.isExplicit[id]
}

// responseSizeFor returns DB.ResponseSize(name, qtype, t) for a name
// with an explicit zone, and that size capped at sizeCap for any other,
// served from the size cache where a slot covers the name. The name
// string is only materialized on the slow paths; cache hits never
// touch it.
func (g *Generator) responseSizeFor(nameID uint32, qtype dnswire.Type, t simclock.Time) int {
	if g.explicit(nameID) {
		return g.C.DB.ResponseSize(g.table.Name(nameID), qtype, t)
	}
	w, shift := g.sizes.word(qtypeSlot(qtype), nameID)
	if w != nil {
		if v := w.Load() >> shift & 0xffff; v != 0 {
			return int(v)
		}
	}
	v := min(g.C.DB.ResponseSize(g.table.Name(nameID), qtype, t), sizeCap)
	if w != nil {
		w.Or(uint32(v) << shift)
	}
	return v
}

// Day materializes all traffic of one simulated day in batch form.
// Each day's output depends only on (campaign, seed, day), so Day may
// be called from multiple goroutines concurrently and in any day order.
//
// The batch is written into scratch, which Day resets first, so a
// caller that synthesizes day after day into one batch allocates its
// rows once; the returned DayTraffic.Batch is then scratch itself
// and is overwritten by the next call with it. Concurrent callers need
// one scratch each. A nil scratch gets a fresh batch.
func (g *Generator) Day(day simclock.Time, scratch *ixp.SampleBatch) *DayTraffic {
	return g.day(day, true, scratch)
}

// DayFor is Day for a consumer that reads only the rows whose client
// (ixp.BatchRecord.Client) is in clients: the returned batch holds, in
// generation order, at least every such row of Day(day).Batch, and the
// sensor flows of Day(day). The day's attack events come first on its
// RNG stream and are always synthesized; the background loop comes last
// and every row it emits has a background client as its client, so it
// runs only when one of clients is a background client — and skipping
// it moves no earlier draw. The batch's sanitization counters (Frames,
// NonUDP, NonDNS, Malformed) cover only the rows it holds: a consumer
// that accounts capture statistics must use Day. scratch is used as by
// Day.
func (g *Generator) DayFor(day simclock.Time, clients [][4]byte, scratch *ixp.SampleBatch) *DayTraffic {
	return g.day(day, g.anyBackgroundClient(clients), scratch)
}

// anyBackgroundClient reports whether any of clients is in the
// background population.
func (g *Generator) anyBackgroundClient(clients [][4]byte) bool {
	for _, c := range clients {
		if _, ok := g.bgSet[c]; ok {
			return true
		}
	}
	return false
}

// day is the body of Day and DayFor: the day's traffic into scratch (a
// fresh batch when nil), its background only when background is set.
func (g *Generator) day(day simclock.Time, background bool, scratch *ixp.SampleBatch) *DayTraffic {
	if scratch == nil {
		scratch = new(ixp.SampleBatch)
	}
	scratch.Reset(g.table)
	day = day.StartOfDay()
	dg := g.slice(day)
	dg.batch = scratch
	return &DayTraffic{Day: day, Batch: scratch, Sensors: dg.run(day, background)}
}

// WireDay materializes the same traffic as Day, as truncated wire
// frames (the capture-fidelity path).
func (g *Generator) WireDay(day simclock.Time) *WireDayTraffic {
	day = day.StartOfDay()
	dg := g.slice(day)
	sensors := dg.run(day, true)
	return &WireDayTraffic{Day: day, IXP: dg.wire.Out, Sensors: sensors}
}

// run emits the day's attack events (none with SkipAttacks), then, when
// background is set and the day lies in the main period, its organic
// background, and returns the day's honeypot flows.
func (g *dayGen) run(day simclock.Time, background bool) []SensorFlow {
	var events []*AttackEvent
	if !g.SkipAttacks {
		events = g.C.EventsOnDay(day)
	}
	sensors := g.attacks(events)
	if background && simclock.MainPeriod().Contains(day) {
		g.backgroundTraffic(day)
	}
	return sensors
}

// reserve makes room in the sink for n more packets.
func (g *dayGen) reserve(n int) {
	if g.batch != nil {
		g.batch.Grow(n)
	} else {
		g.wire.Out = slices.Grow(g.wire.Out, n)
	}
}

// attackSamples bounds the sampled packets of events from their own
// fields, before any draw: each amplifier's requests, thinned at the
// sampling rate, and as many responses again. An amplifier that is
// dead, routed around the fabric or rate-limited only lowers the count,
// so the attack rows fill this reservation without regrowing it.
func attackSamples(events []*AttackEvent) int {
	n := 0
	for _, ev := range events {
		n += len(ev.Amplifiers) * ev.ReqPerAmp
		if ev.RequestsViaIXP {
			n += len(ev.Amplifiers) * ev.ReqPerAmp
		}
	}
	return n / sflow.DefaultRate
}

// attacks materializes events into the sink, reserved for them first,
// and returns their honeypot flows: one allocation sized from the
// events' sensors, nil when they have none.
func (g *dayGen) attacks(events []*AttackEvent) []SensorFlow {
	g.reserve(attackSamples(events))
	n := 0
	for _, ev := range events {
		n += len(ev.Sensors)
	}
	var sensors []SensorFlow
	if n > 0 {
		sensors = make([]SensorFlow, 0, n)
	}
	for _, ev := range events {
		g.attackTraffic(&sensors, ev)
	}
	return sensors
}

// WireSink is the wire sink of synthesized packets: each packet, a
// batch row's addresses, ports, IP TTL, IP ID, TXID and ingress port
// around a DNS payload, is framed, sampled at the row's time and
// appended to Out. The generator's WireDay and the scenario overlays
// build every frame through one. The DNS message and the frame around
// it are built in one reused scratch, and the sampler copies each
// truncated frame into its slab, so a packet allocates nothing of its
// own. Sampler must be set; Out may start nil or reserved.
type WireSink struct {
	Sampler *sflow.Sampler
	Out     []TaggedRecord
	buf     []byte // the DNS message, then the frame behind it
}

// AppendQuery frames the EDNS query r describes (TXID, QType) for name.
func (w *WireSink) AppendQuery(r *ixp.BatchRecord, eth netmodel.Ethernet, name string) {
	w.buf = dnswire.AppendQuery(w.buf[:0], r.TXID, name, r.QType)
	w.appendFrame(r, eth, w.buf, 0)
}

// AppendResponse frames r's response (TXID, QType) to a query for name:
// rcode and, when answer is valid, one A record of it with a 300 s TTL.
// The UDP length field announces size bytes of DNS message, or the
// message's own length if larger: the frame materializes a prefix of
// the answer, like a truncated capture of a large one.
func (w *WireSink) AppendResponse(r *ixp.BatchRecord, eth netmodel.Ethernet, name string, rcode dnswire.RCode, answer netip.Addr, size int) {
	w.buf = dnswire.AppendResponse(w.buf[:0], r.TXID, name, r.QType, rcode)
	if answer.IsValid() {
		w.buf = dnswire.AppendAnswerA(w.buf, name, 300, answer.As4())
	}
	w.appendFrame(r, eth, w.buf, netmodel.UDPHeaderLen+max(size, len(w.buf)))
}

// appendFrame frames payload behind eth with r's TXID as the DNS ID and
// a UDP length field of udpLen (0: header plus payload). The frame is
// built after what the scratch holds (payload, when it is the scratch's
// message), and the scratch is empty again once the sampler has copied
// the frame.
func (w *WireSink) appendFrame(r *ixp.BatchRecord, eth netmodel.Ethernet, payload []byte, udpLen int) {
	ip := netmodel.IPv4{TTL: r.IPTTL, ID: r.IPID, Src: netip.AddrFrom4(r.Src), Dst: netip.AddrFrom4(r.Dst)}
	udp := netmodel.UDP{SrcPort: r.SrcPort, DstPort: r.DstPort, Length: uint16(udpLen)}
	start := len(w.buf)
	w.buf = netmodel.AppendUDPPacket(w.buf, eth, ip, udp, payload)
	frame := w.buf[start:]
	if len(payload) >= 2 {
		binary.BigEndian.PutUint16(frame[len(frame)-len(payload):], r.TXID)
	}
	w.Out = append(w.Out, TaggedRecord{Rec: w.Sampler.Take(r.Time, frame), Ingress: r.Ingress})
	w.buf = w.buf[:0]
}

// emitQuery emits the query r describes for name, a canonical name:
// framed around its encoding with EDNS0, or as a batch row.
func (g *dayGen) emitQuery(r ixp.BatchRecord, eth netmodel.Ethernet, name string) {
	if g.batch == nil {
		g.wire.AppendQuery(&r, eth, name)
		return
	}
	qlen := dnswire.QuerySize(name)
	g.emitSimple(r, name, qlen, qlen)
}

// emitSimple is the batch sink of one query or one-answer background
// response for name. Its whole payload is materialized, and such a
// message carries no NS record, so ixp.CheckDNS keeps it exactly when
// the header and first question fit the bytes the decode leaves (a
// generated name is well formed).
func (g *dayGen) emitSimple(r ixp.BatchRecord, name string, payloadLen, msgSize int) {
	avail, size, ok := netmodel.DecodeLengths(payloadLen, msgSize, sflow.DefaultSnaplen)
	drop := ixp.Keep
	switch {
	case !ok:
		drop = ixp.DropNonUDP
	case avail < dnswire.QuestionSize(name):
		drop = ixp.DropNonDNS
	}
	if g.batch.Count(drop) {
		r.MsgSize = int32(size)
		g.batch.Append(r)
	}
}

// attackTraffic materializes one event's sampled IXP records and
// honeypot flows.
func (g *dayGen) attackTraffic(sensors *[]SensorFlow, ev *AttackEvent) {
	c := g.C
	end := ev.End()

	// Responses: amplifier -> victim.
	for _, id := range ev.Amplifiers {
		amp := c.Pool.Get(id)
		if !amp.AliveAt(ev.Start) {
			continue
		}
		if !c.RouteViaIXP(amp.ASN, ev.VictimASN) {
			continue
		}
		eff := 0.95
		if amp.RRL {
			eff = 0.15
		}
		if ev.IsEntity {
			eff *= c.Entity.ResponseEfficiency(ev.Start)
		}
		n := int(float64(ev.ReqPerAmp) * eff)
		k := g.wire.Sampler.ThinFlow(n)
		if k == 0 {
			continue
		}
		tmpl := g.responseTemplate(ev.QName, ev.Start)
		for i := 0; i < k; i++ {
			t := ev.Start.Add(simclock.Duration(g.rng.Int63n(int64(ev.Duration) + 1)))
			g.emitAttackResponse(amp, ev, tmpl, t, end)
		}
	}

	// Requests: attacker -> amplifiers, visible only when the back-end
	// sits inside a member's cone (entity phases 1-2).
	if ev.RequestsViaIXP {
		evName := dnswire.CanonicalName(ev.QName)
		evNameID, _ := g.table.Lookup(evName)
		for _, id := range ev.Amplifiers {
			amp := c.Pool.Get(id)
			if c.Topo.MemberFor(amp.ASN) == ev.IngressAS {
				continue // stays inside the ingress cone
			}
			k := g.wire.Sampler.ThinFlow(ev.ReqPerAmp)
			for i := 0; i < k; i++ {
				t := ev.Start.Add(simclock.Duration(g.rng.Int63n(int64(ev.Duration) + 1)))
				g.emitAttackRequest(amp, ev, evName, evNameID, t, end)
			}
		}
	}

	g.sensorFlows(sensors, ev)
}

// emitAttackResponse draws and emits one amplifier->victim response,
// applying the amplifier's EDNS cap: the template's prefix, cut to the
// capped size, announcing that size.
func (g *dayGen) emitAttackResponse(amp *Amplifier, ev *AttackEvent, tmpl *respTemplate, t, end simclock.Time) {
	size := tmpl.fullLen
	if amp.MinimalANY {
		size = 60
	} else if amp.EDNSCap > 0 && size > amp.EDNSCap {
		size = amp.EDNSCap
	}
	r := ixp.BatchRecord{
		Time: t, Src: amp.Addr.As4(), Dst: ev.Victim.As4(), IPTTL: amp.ObservedTTL(),
		Resp: true, Name: tmpl.nameID, QType: dnswire.TypeANY, ANCount: tmpl.anCount,
		TXID:    g.pickTXID(ev, t, end),
		IPID:    uint16(g.rng.Intn(1 << 16)),
		SrcPort: 53,
		DstPort: uint16(1024 + g.rng.Intn(60000)),
	}
	payload := tmpl.prefix[:min(len(tmpl.prefix), size)]
	if g.batch == nil {
		eth := netmodel.Ethernet{Src: MACForAS(amp.ASN), Dst: MACForAS(ev.VictimASN)}
		g.wire.appendFrame(&r, eth, payload, netmodel.UDPHeaderLen+size)
		return
	}
	avail, msgSize, ok := netmodel.DecodeLengths(len(payload), size, sflow.DefaultSnaplen)
	meta := tmplMeta{drop: ixp.DropNonUDP}
	if ok {
		meta = tmpl.metaFor(avail)
	}
	if g.batch.Count(meta.drop) {
		r.MsgSize, r.VisibleNS = int32(msgSize), meta.visibleNS
		g.batch.Append(r)
	}
}

// emitAttackRequest draws and emits one spoofed attacker->amplifier
// query.
func (g *dayGen) emitAttackRequest(amp *Amplifier, ev *AttackEvent, evName string, evNameID uint32, t, end simclock.Time) {
	g.emitQuery(ixp.BatchRecord{
		Time: t, Src: ev.Victim.As4(), Dst: amp.Addr.As4(), IPTTL: ev.ReqIPTTL, // spoofed source
		Name: evNameID, QType: ev.QType, Ingress: ev.IngressAS,
		TXID:    g.pickTXID(ev, t, end),
		IPID:    uint16(g.rng.Intn(1 << 16)),
		SrcPort: uint16(1024 + g.rng.Intn(60000)),
		DstPort: 53,
	}, netmodel.Ethernet{Src: MACForAS(ev.IngressAS), Dst: MACForAS(amp.ASN)}, evName)
}

// sensorFlows emits the honeypot-side flows of one event.
func (g *dayGen) sensorFlows(sensors *[]SensorFlow, ev *AttackEvent) {
	for _, sensor := range ev.Sensors {
		*sensors = append(*sensors, SensorFlow{
			Sensor:   sensor,
			Victim:   ev.Victim,
			Start:    ev.Start,
			Duration: ev.Duration,
			Count:    ev.ReqPerSensor,
			QName:    ev.QName,
			QType:    ev.QType,
			TXID:     g.pickTXID(ev, ev.Start, ev.End()),
			EventID:  ev.ID,
		})
	}
}

// pickTXID draws a transaction ID honouring the event's pools and the
// phase split of straddling events.
func (g *dayGen) pickTXID(ev *AttackEvent, t, end simclock.Time) uint16 {
	pool := ev.TXIDs
	if len(ev.TXIDs2) > 0 {
		// The shift happens at the event's temporal midpoint.
		mid := ev.Start.Add(ev.Duration / 2)
		if !t.Before(mid) {
			pool = ev.TXIDs2
		}
	}
	if len(pool) == 0 {
		return uint16(g.rng.Intn(1 << 16))
	}
	return pool[g.rng.Intn(len(pool))]
}

// responseTemplate returns (building if needed) the encoded ANY response
// for a misused name on a given day, as an uncapped amplifier would emit
// it; per-amplifier EDNS caps are applied at emission time.
func (g *dayGen) responseTemplate(name string, t simclock.Time) *respTemplate {
	key := tmplKey{name, t.Day()}
	tmpl, ok := g.respTmpl[key]
	if !ok {
		tmpl = g.buildTemplate(name, t)
		g.respTmpl[key] = tmpl
	}
	return tmpl
}

func (g *dayGen) buildTemplate(name string, t simclock.Time) *respTemplate {
	nameID, _ := g.table.Lookup(dnswire.CanonicalName(name))
	tmpl := &respTemplate{nameID: nameID, meta: make(map[int]tmplMeta, 4)}
	if z, ok := g.C.DB.Zone(name); ok {
		wire := g.enc.Encode(z.BuildANYResponse(dnswire.NewQuery(0, name, dnswire.TypeANY, 4096), t))
		snapPayload := sflow.DefaultSnaplen - netmodel.EthernetHeaderLen - netmodel.IPv4HeaderLen - netmodel.UDPHeaderLen
		tmpl.prefix, tmpl.fullLen = slices.Clone(wire[:min(len(wire), snapPayload)]), len(wire)
	} else {
		// Procedural name: small synthetic answer.
		tmpl.prefix, tmpl.fullLen = dnswire.AppendResponse(nil, 0, name, dnswire.TypeANY, dnswire.RCodeNoError), g.C.DB.ANYSize(name, t)
	}
	if len(tmpl.prefix) >= dnswire.HeaderLen {
		tmpl.anCount = uint16(tmpl.prefix[6])<<8 | uint16(tmpl.prefix[7])
	}
	return tmpl
}

// metaFor runs ixp.CheckDNS on the first n prefix bytes, caching per
// window length (the handful of distinct EDNS caps a template meets).
func (tmpl *respTemplate) metaFor(n int) tmplMeta {
	n = min(n, len(tmpl.prefix))
	m, ok := tmpl.meta[n]
	if !ok {
		var s dnswire.Scanned
		drop := ixp.CheckDNS(&s, tmpl.prefix[:n], nil)
		m = tmplMeta{visibleNS: uint16(s.NS), drop: drop}
		tmpl.meta[n] = m
	}
	return m
}

// backgroundQTypes is the organic query-type mix (§3.1: A 57%, AAAA 13%).
var backgroundQTypes = []struct {
	t dnswire.Type
	w float64
}{
	{dnswire.TypeA, 0.57},
	{dnswire.TypeAAAA, 0.13},
	{dnswire.TypePTR, 0.09},
	{dnswire.TypeMX, 0.05},
	{dnswire.TypeTXT, 0.05},
	{dnswire.TypeNS, 0.03},
	{dnswire.TypeSOA, 0.03},
	{dnswire.TypeSRV, 0.02},
	{dnswire.TypeDNSKEY, 0.01},
}

// backgroundTraffic synthesizes the day's organic sampled DNS packets.
func (g *dayGen) backgroundTraffic(day simclock.Time) {
	// Weekly pattern: small dip on weekends (§3.1).
	n := g.bgSamples
	if wd := day.Std().Weekday(); wd == 0 || wd == 6 {
		n = n * 88 / 100
	}
	// Room for every draw, reserved once the attack rows are in.
	g.reserve(n)
	misused := g.C.DB.MisusedCandidates()
	for i := 0; i < n; i++ {
		client := g.bgClients[g.bgZipf.Draw(g.rng)-1]
		server := g.servers[g.rng.Intn(len(g.servers))]
		t := day.Add(simclock.Duration(g.rng.Int63n(int64(simclock.Day))))

		// Name and type selection.
		var nameID uint32
		qtype := dnswire.TypeA
		u := g.rng.Float64()
		switch {
		case u < bgRootShare:
			// Root priming and monitoring traffic: the root name is a
			// misused name AND a common legitimate query (§4.2's low-
			// share clients).
			nameID = g.rootID
			if g.rng.Float64() < 0.05 {
				qtype = dnswire.TypeANY
			} else if g.rng.Float64() < 0.7 {
				qtype = dnswire.TypeNS
			}
		case u < bgRootShare+bgMisusedShare:
			// Research scanners and monitoring probes against
			// amplification-prone names — these often use ANY.
			nameID = g.misIDs[g.rng.Intn(len(misused))]
			if g.rng.Float64() < 0.5 {
				qtype = dnswire.TypeANY
			}
		case g.rng.Float64() < bgANYShare:
			// Organic ANY (debugging tools): spread uniformly across
			// the bulk namespace rather than by popularity.
			nameID = g.procBase + uint32(g.rng.Intn(g.C.DB.NumProceduralNames()))
			qtype = dnswire.TypeANY
		default:
			nameID = g.procBase + uint32(g.nameZipf.Draw(g.rng)-1)
			v := g.rng.Float64()
			acc := 0.0
			for _, tw := range backgroundQTypes {
				acc += tw.w
				if v < acc {
					qtype = tw.t
					break
				}
			}
		}
		if g.rng.Float64() < bgResponseShare {
			g.emitBackgroundResponse(server, client, nameID, qtype, t)
		} else {
			g.emitBackgroundQuery(client, server, nameID, qtype, t)
		}
	}
}

// emitBackgroundQuery draws and emits one organic client->server query.
// The batch path never copies the name: sizes come from the length of
// its slab view, which the table's end column gives.
func (g *dayGen) emitBackgroundQuery(client, server netip.Addr, nameID uint32, qtype dnswire.Type, t simclock.Time) {
	g.emitQuery(ixp.BatchRecord{
		Time: t, Src: client.As4(), Dst: server.As4(), Name: nameID, QType: qtype,
		TXID:    uint16(g.rng.Intn(1 << 16)),
		IPTTL:   uint8(32 + g.rng.Intn(200)),
		IPID:    uint16(g.rng.Intn(1 << 16)),
		SrcPort: uint16(1024 + g.rng.Intn(60000)),
		DstPort: 53,
	}, netmodel.Ethernet{}, g.table.Name(nameID))
}

// emitBackgroundResponse draws and emits one organic server->client
// response: one A record for the name, announcing at least its size.
func (g *dayGen) emitBackgroundResponse(server, client netip.Addr, nameID uint32, qtype dnswire.Type, t simclock.Time) {
	size := g.responseSizeFor(nameID, qtype, t)
	// Organic jitter: caches, case randomization, EDNS variations.
	size += g.rng.Intn(24)
	if !g.explicit(nameID) && size > 4096 {
		// Recursive resolvers answering organic queries for bulk names
		// cap at the common EDNS buffer; only the misused-name zones
		// (queried at their authoritatives or via uncapped resolvers)
		// show larger answers in practice.
		size = 4096
	}
	r := ixp.BatchRecord{
		Time: t, Src: server.As4(), Dst: client.As4(), Resp: true, Name: nameID, QType: qtype, ANCount: 1,
		TXID:    uint16(g.rng.Intn(1 << 16)),
		IPTTL:   uint8(32 + g.rng.Intn(200)),
		IPID:    uint16(g.rng.Intn(1 << 16)),
		SrcPort: 53,
		DstPort: uint16(1024 + g.rng.Intn(60000)),
	}
	name := g.table.Name(nameID)
	if g.batch == nil {
		g.wire.AppendResponse(&r, netmodel.Ethernet{}, name, dnswire.RCodeNoError, server, size)
		return
	}
	respLen := dnswire.AnswerASize(name)
	g.emitSimple(r, name, respLen, max(size, respLen))
}

// MACForAS derives the stable router MAC of a member/AS.
func MACForAS(asn uint32) netmodel.MAC {
	return netmodel.MAC{0x02, 0x42, byte(asn >> 24), byte(asn >> 16), byte(asn >> 8), byte(asn)}
}
