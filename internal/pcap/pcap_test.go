package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/netmodel"
	"dnsamp/internal/simclock"
)

var update = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// dnsFrames builds a deterministic set of DNS-over-UDP frames, the
// traffic shape the ingestion pipeline decodes.
func dnsFrames() []Packet {
	mk := func(i int, name string, qtype dnswire.Type, resp bool) []byte {
		var m *dnswire.Message
		q := dnswire.NewQuery(uint16(0x1000+i), name, qtype, 4096)
		if resp {
			m = dnswire.NewResponse(q)
		} else {
			m = q
		}
		eth := netmodel.Ethernet{
			Dst: netmodel.MAC{2, 0, 0, 0, 0, 1},
			Src: netmodel.MAC{2, 0, 0, 0, 0, byte(2 + i)},
		}
		ip := netmodel.IPv4{
			TTL: 64,
			Src: netip.AddrFrom4([4]byte{198, 51, 100, byte(1 + i)}),
			Dst: netip.AddrFrom4([4]byte{203, 0, 113, 53}),
		}
		udp := netmodel.UDP{SrcPort: uint16(40000 + i), DstPort: 53}
		if resp {
			udp.SrcPort, udp.DstPort = 53, uint16(40000+i)
		}
		return netmodel.AppendUDPPacket(nil, eth, ip, udp, new(dnswire.Encoder).Encode(m))
	}
	base := simclock.MeasurementStart
	var pkts []Packet
	for i, f := range [][]byte{
		mk(0, "example.org.", dnswire.TypeA, false),
		mk(1, "example.org.", dnswire.TypeA, true),
		mk(2, "peacecorps.gov.", dnswire.TypeANY, false),
		mk(3, "isc.org.", dnswire.TypeTXT, true),
	} {
		pkts = append(pkts, Packet{
			Time: base.Add(simclock.Duration(i)),
			Frac: uint32(1000 * i),
			Orig: len(f),
			Data: f,
		})
	}
	// One frame longer than the fixture snaplen, to pin truncation.
	long := mk(4, "example.com.", dnswire.TypeA, false)
	long = append(long, make([]byte, 200)...)
	pkts = append(pkts, Packet{Time: base.Add(5), Orig: len(long), Data: long})
	return pkts
}

const fixtureSnaplen = 128

func encodeFixture(t *testing.T) ([]byte, []Packet) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, fixtureSnaplen)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	pkts := dnsFrames()
	for i := range pkts {
		p := &pkts[i]
		if err := w.WritePacket(p.Time, p.Frac, p.Orig, p.Data); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
		if len(p.Data) > fixtureSnaplen {
			p.Data = p.Data[:fixtureSnaplen] // what the reader must yield
		}
	}
	return buf.Bytes(), pkts
}

func TestRoundTrip(t *testing.T) {
	enc, want := encodeFixture(t)
	r, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Snaplen != fixtureSnaplen || r.Nanos {
		t.Fatalf("header: snaplen %d nanos %v, want %d/false", r.Snaplen, r.Nanos, fixtureSnaplen)
	}
	for i := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("packet %d mismatch:\nwant %+v\ngot  %+v", i, want[i], got)
		}
		// The decoded frame must still parse as DNS-over-UDP.
		if pkt, err := netmodel.DecodeFrame(got.Data); err != nil {
			t.Fatalf("packet %d: frame no longer decodes: %v", i, err)
		} else if pkt.UDP.SrcPort != 53 && pkt.UDP.DstPort != 53 {
			t.Fatalf("packet %d: not DNS ports", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("trailer: err = %v, want io.EOF", err)
	}
}

// TestBigEndianAndNanos pins the reader's byte-order and resolution
// detection: the same records, hand-encoded big-endian with the
// nanosecond magic, must read back identically.
func TestBigEndianAndNanos(t *testing.T) {
	_, want := encodeFixture(t)
	var buf bytes.Buffer
	be := binary.BigEndian
	var g [ghdrLen]byte
	be.PutUint32(g[0:], magicNanos)
	be.PutUint16(g[4:], versionMaj)
	be.PutUint16(g[6:], versionMin)
	be.PutUint32(g[16:], fixtureSnaplen)
	be.PutUint32(g[20:], LinkTypeEth)
	buf.Write(g[:])
	for _, p := range want {
		var h [phdrLen]byte
		be.PutUint32(h[0:], uint32(int64(p.Time)))
		be.PutUint32(h[4:], p.Frac)
		be.PutUint32(h[8:], uint32(len(p.Data)))
		be.PutUint32(h[12:], uint32(p.Orig))
		buf.Write(h[:])
		buf.Write(p.Data)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !r.Nanos {
		t.Fatal("nanosecond magic not detected")
	}
	for i := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("packet %d differs in big-endian read", i)
		}
	}
}

func TestReaderRejects(t *testing.T) {
	enc, _ := encodeFixture(t)
	if _, err := NewReader(bytes.NewReader(enc[:10])); !errors.Is(err, ErrFormat) {
		t.Errorf("short header: %v", err)
	}
	bad := append([]byte{}, enc...)
	bad[0] = 0x0a // pcapng section header starts 0x0a0d0d0a
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: %v", err)
	}
	wrongLink := append([]byte{}, enc...)
	wrongLink[20] = 101 // LINKTYPE_RAW
	if _, err := NewReader(bytes.NewReader(wrongLink)); !errors.Is(err, ErrFormat) {
		t.Errorf("linktype: %v", err)
	}
	// Truncated mid-record: a clean ErrFormat, not a panic or silent EOF.
	r, err := NewReader(bytes.NewReader(enc[:len(enc)-3]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = r.Next()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFormat) {
		t.Errorf("truncated record: err = %v, want ErrFormat", err)
	}
	// Oversized length field must fail before allocating.
	huge := append([]byte{}, enc[:ghdrLen]...)
	huge = append(huge, make([]byte, phdrLen)...)
	binary.LittleEndian.PutUint32(huge[ghdrLen+8:], 1<<30)
	r, err = NewReader(bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrFormat) {
		t.Errorf("oversized record: err = %v, want ErrFormat", err)
	}
}

// TestPacketOwnsBytes pins the ingest-boundary contract: packets
// retained across Next calls (and across exhausting the reader) must
// keep their bytes.
func TestPacketOwnsBytes(t *testing.T) {
	enc, want := encodeFixture(t)
	r, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	var got []Packet
	for {
		p, err := r.Next()
		if err != nil {
			break
		}
		got = append(got, p)
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("packet %d corrupted after reader advanced", i)
		}
	}
}

func FuzzReader(f *testing.F) {
	enc, _ := func() ([]byte, []Packet) {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, 96)
		w.WritePacket(1559347200, 5, 300, bytes.Repeat([]byte{0x42}, 80))
		return buf.Bytes(), nil
	}()
	f.Add(enc)
	f.Add(enc[:ghdrLen])
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			p, err := r.Next()
			if err != nil {
				return // io.EOF or ErrFormat; never a panic
			}
			if len(p.Data) > maxPacketLen {
				t.Fatalf("oversized packet escaped validation: %d", len(p.Data))
			}
		}
	})
}

// TestGoldenPCAP pins the on-disk bytes: the committed fixture must be
// byte-identical to today's writer output and read back to the
// canonical frames.
func TestGoldenPCAP(t *testing.T) {
	path := filepath.Join("testdata", "golden.pcap")
	enc, want := encodeFixture(t)
	if *update {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(disk, enc) {
		t.Fatalf("writer output drifted from the committed fixture (%d vs %d bytes)", len(enc), len(disk))
	}
	r, err := NewReader(bytes.NewReader(disk))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("fixture packet %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("fixture packet %d differs", i)
		}
	}
}
