// Chunks: how a datagram crosses from its reader to the consumer
// without a heap object of its own. A runner decodes each datagram into
// a reused sflow.Datagram whose header bytes are views into its read
// buffer, and its Writer copies that into the chunk it is filling: one
// Head row, one row per flow sample, and the header bytes in one slab.
// None of the three holds a pointer, so the collector never scans them,
// and none changes length once made: the writer keeps the fill counts
// and appends behind rows already published without touching them.
//
// A chunk has one writer until it is retired and any number of items
// referring into it. It goes back to its writer's free list when the
// last of them is released — by the consumer once its drain is done, or
// by whoever sheds, skips or abandons the item on the way. A release
// that never comes leaves the chunk to the collector; nothing is reused
// early for it.
package ingest

import (
	"sync/atomic"

	"dnsamp/internal/sflow"
)

// Chunk geometry: a chunk holds up to chunkDatagrams datagrams,
// chunkSamples flow samples and chunkSlab header bytes (about 230 of the
// one-sample datagrams a sampled IXP feed mostly sends; three full
// 64-sample ones). A writer keeps up to freeChunks released chunks for
// reuse, so a reader's steady state allocates nothing and an idle one
// holds little.
const (
	chunkDatagrams = 256
	chunkSamples   = 512
	chunkSlab      = 32 << 10
	freeChunks     = 4
)

// Head is one datagram's header row.
type Head struct {
	Agent    [4]byte
	SubAgent uint32
	Seq      uint32
	Uptime   uint32
	// Samples is the datagram's flow-sample count.
	Samples int32
	first   int32 // the chunk row of its first sample

	// The source row's summary of the samples, in datagram order:
	// FirstRate and LastRate are the first and last non-zero Rate,
	// RateSwitches counts non-zero Rates that differ from the non-zero
	// Rate before them, and MaxDrops is the largest Drops.
	FirstRate, LastRate, RateSwitches, MaxDrops uint32
}

// sampleRow is a flow sample without its header slice: the header is
// slab[off : off+n] of the same chunk.
type sampleRow struct {
	seq, sourceID, rate, pool, drops uint32
	input, output                    uint32
	frameLen, stripped               uint32
	off, n                           uint32
}

// Chunk is a block of decoded datagrams. Its rows are written by one
// Writer and read through Refs.
type Chunk struct {
	heads   []Head
	samples []sampleRow
	slab    []byte
	home    chan *Chunk // the writer's free list; nil for a one-off
	// refs is released items minus published ones until the writer
	// retires the chunk and adds what it published: the release that
	// brings it to zero recycles. The pad keeps the consumer's releases
	// off the cache line the writer reads the row slices from.
	_    [64]byte
	refs atomic.Int32
}

func newChunk(datagrams, samples, slab int, home chan *Chunk) *Chunk {
	return &Chunk{
		heads:   make([]Head, datagrams),
		samples: make([]sampleRow, samples),
		slab:    make([]byte, slab),
		home:    home,
	}
}

// recycle offers the chunk back to its writer; a full free list leaves
// it to the collector.
func (c *Chunk) recycle() {
	select {
	case c.home <- c:
	default:
	}
}

// Ref is one datagram in a chunk: what an Item carries instead of a
// *sflow.Datagram. Its rows are valid until it is released.
type Ref struct {
	c *Chunk
	i int32
}

// Head returns the datagram's header row.
func (r Ref) Head() Head { return r.c.heads[r.i] }

// Sample returns the datagram's i-th flow sample (0 ≤ i < Head().Samples).
// Its Header is a view into the chunk, valid until the Ref is released.
func (r Ref) Sample(i int) sflow.FlowSample {
	row := &r.c.samples[int(r.c.heads[r.i].first)+i]
	return sflow.FlowSample{
		Seq: row.seq, SourceID: row.sourceID, Rate: row.rate, Pool: row.pool, Drops: row.drops,
		Input: row.input, Output: row.output, FrameLen: row.frameLen, Stripped: row.stripped,
		Header: r.c.slab[row.off : row.off+row.n : row.off+row.n],
	}
}

// Datagram rebuilds the datagram as sflow.ParseDatagram would have
// returned it, owning its bytes: for the cold paths (fault hooks, poison
// files) that need one.
func (r Ref) Datagram() *sflow.Datagram {
	h := r.Head()
	dg := &sflow.Datagram{Agent: h.Agent, SubAgent: h.SubAgent, Seq: h.Seq, Uptime: h.Uptime}
	for i := range int(h.Samples) {
		fs := r.Sample(i)
		fs.Header = append([]byte(nil), fs.Header...)
		dg.Samples = append(dg.Samples, fs)
	}
	return dg
}

// Release gives up the reference. Release each Ref once at most; the
// zero Ref releases nothing.
func (r Ref) Release() {
	if r.c != nil && r.c.refs.Add(-1) == 0 {
		r.c.recycle()
	}
}

// Writer appends datagrams to the chunk it is filling, taking a new
// one — from its free list when it can — when the next datagram does
// not fit. A Writer belongs to one goroutine. The zero Writer works but
// recycles nothing.
type Writer struct {
	cur        *Chunk
	nh, ns, nb int // cur's fill counts: heads, sample rows, slab bytes
	free       chan *Chunk
}

// NewWriter returns a writer with its own free list.
func NewWriter() *Writer { return &Writer{free: make(chan *Chunk, freeChunks)} }

// Append copies dg into the writer's chunk — header bytes included, so
// dg may alias a read buffer — and returns the reference an Item
// carries.
func (w *Writer) Append(dg *sflow.Datagram) Ref {
	hb := 0
	for i := range dg.Samples {
		hb += len(dg.Samples[i].Header)
	}
	c := w.cur
	if c == nil || w.nh == len(c.heads) || w.ns+len(dg.Samples) > len(c.samples) || w.nb+hb > len(c.slab) {
		w.retire()
		c = w.take(len(dg.Samples), hb)
		w.cur = c
	}
	h := &c.heads[w.nh]
	*h = Head{Agent: dg.Agent, SubAgent: dg.SubAgent, Seq: dg.Seq, Uptime: dg.Uptime,
		Samples: int32(len(dg.Samples)), first: int32(w.ns)}
	for i := range dg.Samples {
		fs := &dg.Samples[i]
		n := copy(c.slab[w.nb:], fs.Header)
		c.samples[w.ns] = sampleRow{
			seq: fs.Seq, sourceID: fs.SourceID, rate: fs.Rate, pool: fs.Pool, drops: fs.Drops,
			input: fs.Input, output: fs.Output, frameLen: fs.FrameLen, stripped: fs.Stripped,
			off: uint32(w.nb), n: uint32(n),
		}
		w.ns++
		w.nb += n
		if fs.Rate != 0 {
			if h.FirstRate == 0 {
				h.FirstRate = fs.Rate
			} else if fs.Rate != h.LastRate {
				h.RateSwitches++
			}
			h.LastRate = fs.Rate
		}
		h.MaxDrops = max(h.MaxDrops, fs.Drops)
	}
	r := Ref{c, int32(w.nh)}
	w.nh++
	return r
}

// retire stops writing the current chunk and adds what it published to
// its count, recycling it if every item is already released.
func (w *Writer) retire() {
	if c := w.cur; c != nil && c.refs.Add(int32(w.nh)) == 0 {
		c.recycle()
	}
	w.cur, w.nh, w.ns, w.nb = nil, 0, 0, 0
}

// take returns an empty chunk with room for a datagram of ns samples
// and nb header bytes.
func (w *Writer) take(ns, nb int) *Chunk {
	if ns > chunkSamples || nb > chunkSlab {
		// Larger than a whole chunk: one of its own, left to the collector.
		return newChunk(1, ns, nb, nil)
	}
	select {
	case c := <-w.free:
		return c
	default:
		return newChunk(chunkDatagrams, chunkSamples, chunkSlab, w.free)
	}
}
