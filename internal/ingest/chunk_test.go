package ingest

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"dnsamp/internal/sflow"
)

// randomDatagram draws a datagram of the given sample count, each with a
// header of 0–128 random bytes.
func randomDatagram(rng *rand.Rand, samples int) *sflow.Datagram {
	dg := &sflow.Datagram{Agent: [4]byte{192, 0, 2, byte(rng.Intn(4))}, SubAgent: rng.Uint32() % 3,
		Seq: rng.Uint32(), Uptime: rng.Uint32()}
	for range samples {
		hdr := make([]byte, rng.Intn(129))
		rng.Read(hdr)
		dg.Samples = append(dg.Samples, sflow.FlowSample{
			Seq: rng.Uint32(), SourceID: rng.Uint32(), Rate: rng.Uint32() % 3 * 8192, Pool: rng.Uint32(),
			Drops: rng.Uint32() % 100, Input: rng.Uint32(), Output: rng.Uint32(),
			FrameLen: rng.Uint32() % 1500, Stripped: rng.Uint32() % 8, Header: hdr,
		})
	}
	return dg
}

// TestChunkRecycleProperty writes random datagrams of 0–64 samples — and
// one larger than a whole chunk — through one writer, decoded as the
// runners decode them (headers aliasing a read buffer that is scribbled
// over right after), with releases interleaved at random. Whenever a
// datagram is checked, and last just before its release, its rebuild
// must encode to what the reference decode of its body encodes to, however
// often the chunks under it were recycled.
func TestChunkRecycleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := NewWriter()
	type live struct {
		ref  Ref
		want []byte
	}
	var held []live
	check := func(l live) {
		t.Helper()
		if got := sflow.EncodeDatagram(l.ref.Datagram()); !bytes.Equal(got, l.want) {
			t.Fatalf("datagram %d of chunk %p rebuilds to %d bytes unlike its body's %d", l.ref.i, l.ref.c, len(got), len(l.want))
		}
	}
	var scratch sflow.Datagram
	chunks := map[*Chunk]bool{}
	fills := 0
	var last *Chunk
	const n = 4000
	for i := range n {
		dg := randomDatagram(rng, rng.Intn(65))
		if i == n/2 {
			dg = randomDatagram(rng, chunkSamples+1) // no chunk holds it
		}
		body := sflow.EncodeDatagram(dg)
		ref, err := sflow.ParseDatagram(body)
		if err != nil {
			t.Fatal(err)
		}
		want := sflow.EncodeDatagram(ref)
		if err := sflow.ParseDatagramInto(&scratch, body); err != nil {
			t.Fatal(err)
		}
		l := live{w.Append(&scratch), want}
		clear(body) // the read buffer is reused: the chunk must own its copy
		check(l)
		if l.ref.c != last {
			last = l.ref.c
			chunks[last] = true
			fills++
		}
		held = append(held, l)

		// Release a random share of what is held, checking each first.
		for range rng.Intn(3) {
			if len(held) == 0 {
				break
			}
			k := rng.Intn(len(held))
			check(held[k])
			held[k].ref.Release()
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		if len(held) > 0 {
			check(held[rng.Intn(len(held))])
		}
	}
	for _, l := range held {
		check(l)
		l.ref.Release()
	}
	if len(chunks) >= fills {
		t.Fatalf("%d chunks filled, %d distinct: nothing was recycled", fills, len(chunks))
	}
	t.Logf("%d datagrams, %d chunk fills over %d distinct chunks", n, fills, len(chunks))
}

// TestChunkHandoffConcurrent: a writer goroutine appends while a reader
// goroutine checks and releases, as a reader and the consumer do. The
// race detector holds the rows a released chunk's next fill overwrites
// to the reads that came before the release.
func TestChunkHandoffConcurrent(t *testing.T) {
	type msg struct {
		ref  Ref
		want []byte
	}
	ch := make(chan msg, 64)
	done := make(chan error)
	go func() {
		var err error
		for m := range ch {
			if got := sflow.EncodeDatagram(m.ref.Datagram()); err == nil && !bytes.Equal(got, m.want) {
				err = errMismatch
			}
			m.ref.Release()
		}
		done <- err
	}()
	rng := rand.New(rand.NewSource(7))
	w := NewWriter()
	var scratch sflow.Datagram
	for range 3000 {
		body := sflow.EncodeDatagram(randomDatagram(rng, rng.Intn(4)))
		if err := sflow.ParseDatagramInto(&scratch, body); err != nil {
			t.Fatal(err)
		}
		ref := w.Append(&scratch)
		want := append([]byte(nil), body...)
		clear(body)
		ch <- msg{ref, want}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

var errMismatch = errors.New("a released datagram's rebuild differs from its body")
