// Package pcap reads and writes classic libpcap capture files without
// any external dependency, covering what the ingestion pipeline needs:
// Ethernet-linktype captures of UDP/DNS frames, truncated at a
// snaplen, as produced by tcpdump-style tooling at a capture point.
//
// The writer always emits the standard little-endian
// microsecond-resolution format (magic 0xa1b2c3d4, version 2.4). The
// reader additionally accepts big-endian files and the
// nanosecond-resolution magic (0xa1b23c4d), so real captures from
// either byte order ingest directly. The pcapng container is out of
// scope — convert with `tcpdump -r in.pcapng -w out.pcap` (or editcap)
// first.
//
// Reader.Next hands out packets that own their bytes: the data is
// copied out of the internal read buffer, so retaining packets across
// calls is safe — the property the capture pipeline's ingest boundary
// relies on (see sflow.Sampler's frame-aliasing note).
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dnsamp/internal/simclock"
)

// File-format constants.
const (
	magicUsec   = 0xa1b2c3d4 // microsecond timestamps, writer's native
	magicNanos  = 0xa1b23c4d // nanosecond timestamps
	versionMaj  = 2
	versionMin  = 4
	phdrLen     = 16 // per-packet record header
	ghdrLen     = 24 // global file header
	LinkTypeEth = 1  // LINKTYPE_ETHERNET, the only linktype accepted
)

// maxPacketLen bounds the captured length accepted by the reader; it
// is far above any physical snaplen, and keeps corrupt length fields
// from allocating unbounded buffers.
const maxPacketLen = 1 << 18

// ErrFormat is wrapped by every malformed-file failure (bad magic,
// unsupported linktype, oversized or truncated records).
var ErrFormat = errors.New("pcap: malformed capture file")

// Packet is one captured frame.
type Packet struct {
	// Time is the capture timestamp truncated to seconds (the
	// resolution the simulated capture pipeline operates at).
	Time simclock.Time
	// Frac is the sub-second part in the file's native resolution
	// (microseconds or nanoseconds; Nanos on the Reader tells which).
	Frac uint32
	// Orig is the original frame length on the wire.
	Orig int
	// Data is the captured (possibly snaplen-truncated) frame. The
	// packet owns it: it never aliases the reader's buffer.
	Data []byte
}

// Writer emits a classic little-endian microsecond pcap file.
type Writer struct {
	w       io.Writer
	snaplen uint32
	err     error
}

// NewWriter writes the global header for an Ethernet capture truncated
// at snaplen (<= 0 means 65535, tcpdump's default).
func NewWriter(w io.Writer, snaplen int) (*Writer, error) {
	if snaplen <= 0 {
		snaplen = 65535
	}
	le := binary.LittleEndian
	var hdr [ghdrLen]byte
	le.PutUint32(hdr[0:], magicUsec)
	le.PutUint16(hdr[4:], versionMaj)
	le.PutUint16(hdr[6:], versionMin)
	// thiszone and sigfigs stay zero (UTC, no accuracy claim).
	le.PutUint32(hdr[16:], uint32(snaplen))
	le.PutUint32(hdr[20:], LinkTypeEth)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w, snaplen: uint32(snaplen)}, nil
}

// WritePacket appends one frame record. data longer than the writer's
// snaplen is clipped (orig still records the full wire length; when
// orig <= 0 it defaults to len(data)).
func (w *Writer) WritePacket(t simclock.Time, usec uint32, orig int, data []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(data) > int(w.snaplen) {
		data = data[:w.snaplen]
	}
	if orig <= 0 {
		orig = len(data)
	}
	le := binary.LittleEndian
	var hdr [phdrLen]byte
	le.PutUint32(hdr[0:], uint32(int64(t)))
	le.PutUint32(hdr[4:], usec)
	le.PutUint32(hdr[8:], uint32(len(data)))
	le.PutUint32(hdr[12:], uint32(orig))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
	} else if _, err := w.w.Write(data); err != nil {
		w.err = err
	}
	return w.err
}

// Reader streams packets out of a classic pcap file.
type Reader struct {
	r io.Reader
	// Order is the file's byte order, detected from the magic.
	order binary.ByteOrder
	// Nanos reports nanosecond timestamp resolution (magic 0xa1b23c4d).
	Nanos bool
	// Snaplen is the capture truncation length declared in the header.
	Snaplen int

	buf [phdrLen]byte
}

// NewReader parses the global header. Only Ethernet linktype files are
// accepted: the capture pipeline decodes Ethernet/IPv4/UDP frames.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [ghdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short global header (%v)", ErrFormat, err)
	}
	rd := &Reader{r: r}
	le, be := binary.ByteOrder(binary.LittleEndian), binary.ByteOrder(binary.BigEndian)
	switch {
	case le.Uint32(hdr[:4]) == magicUsec:
		rd.order = le
	case be.Uint32(hdr[:4]) == magicUsec:
		rd.order = be
	case le.Uint32(hdr[:4]) == magicNanos:
		rd.order, rd.Nanos = le, true
	case be.Uint32(hdr[:4]) == magicNanos:
		rd.order, rd.Nanos = be, true
	default:
		return nil, fmt.Errorf("%w: bad magic %#x (pcapng? convert with tcpdump -r in -w out.pcap)",
			ErrFormat, le.Uint32(hdr[:4]))
	}
	if maj := rd.order.Uint16(hdr[4:6]); maj != versionMaj {
		return nil, fmt.Errorf("%w: version %d.%d", ErrFormat, maj, rd.order.Uint16(hdr[6:8]))
	}
	rd.Snaplen = int(rd.order.Uint32(hdr[16:20]))
	if lt := rd.order.Uint32(hdr[20:24]); lt != LinkTypeEth {
		return nil, fmt.Errorf("%w: linktype %d (want Ethernet)", ErrFormat, lt)
	}
	return rd, nil
}

// Next reads the next packet. It returns io.EOF at a clean end of file
// and an ErrFormat-wrapped error when the file stops mid-record (that
// one wraps io.ErrUnexpectedEOF too) or a length field is implausible.
func (r *Reader) Next() (Packet, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("%w: truncated record header: %w", ErrFormat, err)
	}
	incl := int(r.order.Uint32(r.buf[8:12]))
	orig := int(r.order.Uint32(r.buf[12:16]))
	if incl > maxPacketLen {
		return Packet{}, fmt.Errorf("%w: %d-byte record", ErrFormat, incl)
	}
	data := make([]byte, incl) // fresh per packet: the packet owns it
	if _, err := io.ReadFull(r.r, data); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // the record header promised the data
		}
		return Packet{}, fmt.Errorf("%w: truncated packet data: %w", ErrFormat, err)
	}
	return Packet{
		Time: simclock.Time(int64(r.order.Uint32(r.buf[0:4]))),
		Frac: r.order.Uint32(r.buf[4:8]),
		Orig: orig,
		Data: data,
	}, nil
}
