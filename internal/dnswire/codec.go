package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"strings"
)

// Decode errors.
var (
	ErrShortMessage   = errors.New("dnswire: message shorter than header")
	ErrBadName        = errors.New("dnswire: malformed name")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrTruncatedRData = errors.New("dnswire: truncated rdata")
)

// Encoder serializes DNS messages with owner-name compression. The zero
// value is ready to use; Reset allows reuse across messages.
type Encoder struct {
	buf     []byte
	offsets map[string]int
}

// Reset clears the encoder for reuse, keeping the buffer capacity and
// the offsets map's buckets.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	clear(e.offsets)
}

// Encode serializes m and returns the wire bytes. The returned slice is
// owned by the encoder until the next Encode/Reset; copy it if retained.
func (e *Encoder) Encode(m *Message) []byte {
	if e.offsets == nil {
		e.offsets = make(map[string]int)
	}
	e.Reset()
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	h.NSCount = uint16(len(m.Authority))
	h.ARCount = uint16(len(m.Additional))
	e.buf = appendHeader(e.buf, &h)
	for _, q := range m.Questions {
		e.appendCompressedName(q.Name)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(q.Type))
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(q.Class))
	}
	for _, rr := range m.Answers {
		e.appendRR(rr)
	}
	for _, rr := range m.Authority {
		e.appendRR(rr)
	}
	for _, rr := range m.Additional {
		e.appendRR(rr)
	}
	return e.buf
}

func appendHeader(dst []byte, h *Header) []byte {
	dst = binary.BigEndian.AppendUint16(dst, h.ID)
	var flags uint16
	if h.QR {
		flags |= 1 << 15
	}
	flags |= uint16(h.OpCode&0xf) << 11
	if h.AA {
		flags |= 1 << 10
	}
	if h.TC {
		flags |= 1 << 9
	}
	if h.RD {
		flags |= 1 << 8
	}
	if h.RA {
		flags |= 1 << 7
	}
	if h.AD {
		flags |= 1 << 5
	}
	if h.CD {
		flags |= 1 << 4
	}
	flags |= uint16(h.RCode & 0xf)
	dst = binary.BigEndian.AppendUint16(dst, flags)
	dst = binary.BigEndian.AppendUint16(dst, h.QDCount)
	dst = binary.BigEndian.AppendUint16(dst, h.ANCount)
	dst = binary.BigEndian.AppendUint16(dst, h.NSCount)
	return binary.BigEndian.AppendUint16(dst, h.ARCount)
}

// appendCompressedName writes name using a compression pointer when any
// suffix of the name was written before within pointer range.
func (e *Encoder) appendCompressedName(name string) {
	name = strings.TrimSuffix(CanonicalName(name), ".")
	for name != "" {
		if off, ok := e.offsets[name]; ok && off < 0x3fff {
			e.buf = binary.BigEndian.AppendUint16(e.buf, 0xc000|uint16(off))
			return
		}
		if len(e.buf) < 0x3fff {
			e.offsets[name] = len(e.buf)
		}
		var label string
		label, name = cutLabel(name)
		e.buf = appendLabel(e.buf, label)
	}
	e.buf = append(e.buf, 0)
}

// appendQName writes a message's first name, canonical, as
// appendCompressedName does: nothing before it can compress it.
func appendQName(dst []byte, name string) []byte {
	for name = strings.TrimSuffix(name, "."); name != ""; {
		var label string
		label, name = cutLabel(name)
		dst = appendLabel(dst, label)
	}
	return append(dst, 0)
}

// cutLabel splits a name without its trailing dot into its first label
// and the rest.
func cutLabel(name string) (label, rest string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// appendLabel writes one label, cut to 63 bytes. Empty labels (leading
// or consecutive dots in a name given in presentation form; the decoder
// never yields one) have no wire form: a zero length octet would
// terminate the name early and shift every following record.
func appendLabel(dst []byte, label string) []byte {
	if label == "" {
		return dst
	}
	if len(label) > 63 {
		label = label[:63]
	}
	dst = append(dst, byte(len(label)))
	return append(dst, label...)
}

func (e *Encoder) appendRR(rr RR) {
	e.appendCompressedName(rr.Name)
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(rr.Type))
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(rr.Class))
	e.buf = binary.BigEndian.AppendUint32(e.buf, rr.TTL)
	lenOff := len(e.buf)
	e.buf = append(e.buf, 0, 0)
	if rr.Data != nil {
		e.buf = rr.Data.appendTo(e.buf)
	}
	binary.BigEndian.PutUint16(e.buf[lenOff:], uint16(len(e.buf)-lenOff-2))
}

// ParseResult reports how much of a message the tolerant parser decoded.
type ParseResult struct {
	Msg *Message
	// Complete is true when every record announced by the header was
	// decoded. False typically means the input was truncated (IXP
	// 128-byte snaplen).
	Complete bool
	// DecodedAnswers etc. count fully decoded records per section.
	DecodedAnswers, DecodedAuthority, DecodedAdditional int
}

// Parse decodes as much of b as possible. It fails only when the header
// or the first question is unreadable; truncated record sections yield a
// partial result with Complete=false — matching the paper's observation
// that the first 128 bytes always suffice to analyze queries and to see
// roughly two resource records of answers.
func Parse(b []byte) (*ParseResult, error) {
	if len(b) < HeaderLen {
		return nil, ErrShortMessage
	}
	var m Message
	m.Header = decodeHeader(b)
	off := HeaderLen
	for i := 0; i < int(m.Header.QDCount); i++ {
		q, n, err := decodeQuestion(b, off)
		if err != nil {
			if i == 0 {
				return nil, err
			}
			return &ParseResult{Msg: &m}, nil
		}
		m.Questions = append(m.Questions, q)
		off = n
	}
	res := &ParseResult{Msg: &m}
	sections := []struct {
		count uint16
		dst   *[]RR
		done  *int
	}{
		{m.Header.ANCount, &m.Answers, &res.DecodedAnswers},
		{m.Header.NSCount, &m.Authority, &res.DecodedAuthority},
		{m.Header.ARCount, &m.Additional, &res.DecodedAdditional},
	}
	for _, sec := range sections {
		for i := 0; i < int(sec.count); i++ {
			rr, n, err := decodeRR(b, off)
			if err != nil {
				return res, nil
			}
			*sec.dst = append(*sec.dst, rr)
			*sec.done++
			off = n
		}
	}
	res.Complete = true
	return res, nil
}

func decodeHeader(b []byte) Header {
	var h Header
	h.ID = binary.BigEndian.Uint16(b[0:2])
	flags := binary.BigEndian.Uint16(b[2:4])
	h.QR = flags&(1<<15) != 0
	h.OpCode = OpCode(flags >> 11 & 0xf)
	h.AA = flags&(1<<10) != 0
	h.TC = flags&(1<<9) != 0
	h.RD = flags&(1<<8) != 0
	h.RA = flags&(1<<7) != 0
	h.AD = flags&(1<<5) != 0
	h.CD = flags&(1<<4) != 0
	h.RCode = RCode(flags & 0xf)
	h.QDCount = binary.BigEndian.Uint16(b[4:6])
	h.ANCount = binary.BigEndian.Uint16(b[6:8])
	h.NSCount = binary.BigEndian.Uint16(b[8:10])
	h.ARCount = binary.BigEndian.Uint16(b[10:12])
	return h
}

func decodeQuestion(b []byte, off int) (Question, int, error) {
	name, off, err := decodeName(b, off)
	if err != nil {
		return Question{}, 0, err
	}
	if off+4 > len(b) {
		return Question{}, 0, ErrTruncatedRData
	}
	q := Question{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(b[off : off+2])),
		Class: Class(binary.BigEndian.Uint16(b[off+2 : off+4])),
	}
	return q, off + 4, nil
}

func decodeRR(b []byte, off int) (RR, int, error) {
	name, off, err := decodeName(b, off)
	if err != nil {
		return RR{}, 0, err
	}
	if off+10 > len(b) {
		return RR{}, 0, ErrTruncatedRData
	}
	rr := RR{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(b[off : off+2])),
		Class: Class(binary.BigEndian.Uint16(b[off+2 : off+4])),
		TTL:   binary.BigEndian.Uint32(b[off+4 : off+8]),
	}
	rdlen := int(binary.BigEndian.Uint16(b[off+8 : off+10]))
	off += 10
	if off+rdlen > len(b) {
		return RR{}, 0, ErrTruncatedRData
	}
	rdata := b[off : off+rdlen]
	rr.Data, err = decodeRData(rr.Type, b, off, rdata)
	if err != nil {
		return RR{}, 0, err
	}
	return rr, off + rdlen, nil
}

// decodeRData decodes rdata; msg and absOff are needed because rdata of
// NS/CNAME/SOA/... may contain compression pointers into the message.
func decodeRData(t Type, msg []byte, absOff int, rdata []byte) (RData, error) {
	switch t {
	case TypeA:
		if len(rdata) != 4 {
			return nil, ErrTruncatedRData
		}
		var a [4]byte
		copy(a[:], rdata)
		return AData{netip.AddrFrom4(a)}, nil
	case TypeAAAA:
		if len(rdata) != 16 {
			return nil, ErrTruncatedRData
		}
		var a [16]byte
		copy(a[:], rdata)
		return AAAAData{netip.AddrFrom16(a)}, nil
	case TypeNS, TypeCNAME, TypePTR:
		name, _, err := decodeName(msg, absOff)
		if err != nil {
			return nil, err
		}
		return NameData{name}, nil
	case TypeSOA:
		mname, off, err := decodeName(msg, absOff)
		if err != nil {
			return nil, err
		}
		rname, off, err := decodeName(msg, off)
		if err != nil {
			return nil, err
		}
		if off+20 > len(msg) {
			return nil, ErrTruncatedRData
		}
		return SOAData{
			MName: mname, RName: rname,
			Serial:  binary.BigEndian.Uint32(msg[off : off+4]),
			Refresh: binary.BigEndian.Uint32(msg[off+4 : off+8]),
			Retry:   binary.BigEndian.Uint32(msg[off+8 : off+12]),
			Expire:  binary.BigEndian.Uint32(msg[off+12 : off+16]),
			Min:     binary.BigEndian.Uint32(msg[off+16 : off+20]),
		}, nil
	case TypeMX:
		if len(rdata) < 3 {
			return nil, ErrTruncatedRData
		}
		host, _, err := decodeName(msg, absOff+2)
		if err != nil {
			return nil, err
		}
		return MXData{Pref: binary.BigEndian.Uint16(rdata[:2]), Host: host}, nil
	case TypeTXT, TypeSPF:
		var strs []string
		for i := 0; i < len(rdata); {
			l := int(rdata[i])
			i++
			if i+l > len(rdata) {
				return nil, ErrTruncatedRData
			}
			strs = append(strs, string(rdata[i:i+l]))
			i += l
		}
		return TXTData{strs}, nil
	case TypeSRV:
		if len(rdata) < 7 {
			return nil, ErrTruncatedRData
		}
		target, end, err := decodeName(msg, absOff+6)
		if err != nil {
			return nil, err
		}
		// The target may run past rdlen, as validRData allows too.
		return flattenName(rdata[:6], target, rdata[min(end-absOff, len(rdata)):]), nil
	case TypeURI, TypeDS:
		if len(rdata) < 4 {
			return nil, ErrTruncatedRData
		}
		return RawData{append([]byte(nil), rdata...)}, nil
	case TypeDNSKEY:
		if len(rdata) < 4 {
			return nil, ErrTruncatedRData
		}
		return DNSKEYData{
			Flags:     binary.BigEndian.Uint16(rdata[0:2]),
			Protocol:  rdata[2],
			Algorithm: rdata[3],
			PublicKey: append([]byte(nil), rdata[4:]...),
		}, nil
	case TypeRRSIG:
		if len(rdata) < 19 {
			return nil, ErrTruncatedRData
		}
		signer, off, err := decodeName(msg, absOff+18)
		if err != nil {
			return nil, err
		}
		sigStart := off - absOff
		if sigStart > len(rdata) {
			return nil, ErrTruncatedRData
		}
		return RRSIGData{
			TypeCovered: Type(binary.BigEndian.Uint16(rdata[0:2])),
			Algorithm:   rdata[2],
			Labels:      rdata[3],
			OriginalTTL: binary.BigEndian.Uint32(rdata[4:8]),
			Expiration:  binary.BigEndian.Uint32(rdata[8:12]),
			Inception:   binary.BigEndian.Uint32(rdata[12:16]),
			KeyTag:      binary.BigEndian.Uint16(rdata[16:18]),
			SignerName:  signer,
			Signature:   append([]byte(nil), rdata[sigStart:]...),
		}, nil
	case TypeCAA:
		if len(rdata) < 2 {
			return nil, ErrTruncatedRData
		}
		tagLen := int(rdata[1])
		if 2+tagLen > len(rdata) {
			return nil, ErrTruncatedRData
		}
		return CAAData{
			Flags: rdata[0],
			Tag:   string(rdata[2 : 2+tagLen]),
			Value: string(rdata[2+tagLen:]),
		}, nil
	case TypeNSEC:
		next, end, err := decodeName(msg, absOff)
		if err != nil {
			return nil, err
		}
		bitmapStart := end - absOff
		if bitmapStart > len(rdata) {
			return nil, ErrTruncatedRData
		}
		if err := decodeTypeBitmap(rdata[bitmapStart:]); err != nil {
			return nil, err
		}
		return flattenName(nil, next, rdata[bitmapStart:]), nil
	case TypeOPT:
		var opts []EDNSOption
		for i := 0; i+4 <= len(rdata); {
			code := binary.BigEndian.Uint16(rdata[i : i+2])
			l := int(binary.BigEndian.Uint16(rdata[i+2 : i+4]))
			i += 4
			if i+l > len(rdata) {
				return nil, ErrTruncatedRData
			}
			opts = append(opts, EDNSOption{Code: code, Data: append([]byte(nil), rdata[i:i+l]...)})
			i += l
		}
		return OPTData{opts}, nil
	default:
		return RawData{append([]byte(nil), rdata...)}, nil
	}
}

// flattenName returns prefix, name written uncompressed, and tail as
// one rdata. An embedded name copied verbatim could hold a compression
// pointer, which would point at other bytes once the encoder has
// compressed the names in front of it.
func flattenName(prefix []byte, name string, tail []byte) RawData {
	b := appendName(append([]byte(nil), prefix...), name)
	return RawData{append(b, tail...)}
}

// decodeTypeBitmap walks an NSEC window-block type bitmap: each block a
// window number, a length of 1 to 32 and that many bitmap bytes.
func decodeTypeBitmap(b []byte) error {
	for len(b) > 0 {
		if len(b) < 2 {
			return ErrTruncatedRData
		}
		blen := int(b[1])
		if blen == 0 || blen > 32 || 2+blen > len(b) {
			return ErrTruncatedRData
		}
		b = b[2+blen:]
	}
	return nil
}

// decodeName reads a possibly-compressed name starting at off and returns
// the canonical name plus the offset just past the name in the original
// (non-pointer) position.
func decodeName(b []byte, off int) (string, int, error) {
	var buf [64]byte
	name, end, err := readName(b, off, buf[:0], true)
	if err != nil {
		return "", 0, err
	}
	return string(name), end, nil
}

// readName walks the possibly-compressed name starting at off and
// returns the offset just past it in the original (non-pointer)
// position. With keep set it also appends the flattened name to dst:
// every label followed by '.', "." alone for the root, ASCII letters
// lowercased. DNS case folding is ASCII-only (RFC 4343), so bytes
// >= 0x80 pass through unchanged and never fold onto a letter. A label
// holding a '.' byte is refused with ErrBadName, kept or not: joined
// unescaped it would read back as two labels, a different name.
func readName(b []byte, off int, dst []byte, keep bool) ([]byte, int, error) {
	start := len(dst)
	end := -1 // offset after the name at the original position
	jumps := 0
	for {
		if off >= len(b) {
			return dst, 0, ErrTruncatedRData
		}
		c := int(b[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if keep && len(dst) == start {
				dst = append(dst, '.')
			}
			return dst, end, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(b) {
				return dst, 0, ErrTruncatedRData
			}
			if end < 0 {
				end = off + 2
			}
			ptr := (c&0x3f)<<8 | int(b[off+1])
			if ptr >= off {
				return dst, 0, ErrPointerLoop
			}
			off = ptr
			jumps++
			if jumps > 64 {
				return dst, 0, ErrPointerLoop
			}
		case c&0xc0 != 0:
			return dst, 0, ErrBadName
		default:
			if off+1+c > len(b) {
				return dst, 0, ErrTruncatedRData
			}
			label := b[off+1 : off+1+c]
			if keep {
				n := len(dst)
				dst = append(dst, label...)
				for i, ch := range dst[n:] {
					switch {
					case 'A' <= ch && ch <= 'Z':
						dst[n+i] = ch + ('a' - 'A')
					case ch == '.':
						return dst, 0, ErrBadName
					}
				}
				dst = append(dst, '.')
			} else if bytes.IndexByte(label, '.') >= 0 {
				return dst, 0, ErrBadName
			}
			off += 1 + c
		}
	}
}

// NewQuery builds a standard recursive query for (name, type) with the
// given transaction ID, optionally advertising an EDNS0 payload size.
func NewQuery(id uint16, name string, qtype Type, ednsSize uint16) *Message {
	m := &Message{
		Header:    Header{ID: id, RD: true, OpCode: OpQuery},
		Questions: []Question{{Name: CanonicalName(name), Type: qtype, Class: ClassIN}},
	}
	if ednsSize > 0 {
		m.Additional = append(m.Additional, RR{
			Name:  ".",
			Type:  TypeOPT,
			Class: Class(ednsSize),
			Data:  OPTData{},
		})
	}
	return m
}

// ednsBufSize is the UDP payload size every synthesized query
// advertises in its OPT record.
const ednsBufSize = 4096

// AppendQuery appends the encoding of NewQuery(id, name, qtype, 4096),
// QuerySize(CanonicalName(name)) bytes, without building the message.
func AppendQuery(dst []byte, id uint16, name string, qtype Type) []byte {
	dst = appendHeader(dst, &Header{ID: id, RD: true, OpCode: OpQuery, QDCount: 1, ARCount: 1})
	dst = appendQuestion(dst, CanonicalName(name), qtype)
	// The OPT record: the root as owner, the buffer size as its class,
	// a zero TTL and no options.
	dst = append(dst, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(TypeOPT))
	dst = binary.BigEndian.AppendUint16(dst, ednsBufSize)
	return append(dst, 0, 0, 0, 0, 0, 0)
}

// AppendResponse appends the encoding of NewResponse of a query for
// (name, qtype) with transaction ID id, carrying rcode and no record,
// QuestionSize(CanonicalName(name)) bytes, without building the
// message. AppendAnswerA adds an answer to it.
func AppendResponse(dst []byte, id uint16, name string, qtype Type, rcode RCode) []byte {
	dst = appendHeader(dst, &Header{ID: id, QR: true, OpCode: OpQuery, RD: true, RA: true, RCode: rcode, QDCount: 1})
	return appendQuestion(dst, CanonicalName(name), qtype)
}

// AppendAnswerA appends to msg, one whole message that AppendResponse
// began for name, an A record of addr for its question name, and counts
// it in the header. It is encoded as the Encoder writes an answer owned
// by the question name: a compression pointer to the question at
// offset HeaderLen, or the root's single octet, which it never points
// at. AnswerASize gives the message's size with one such answer.
func AppendAnswerA(msg []byte, name string, ttl uint32, addr [4]byte) []byte {
	if strings.TrimSuffix(name, ".") == "" { // CanonicalName(name) is the root
		msg = append(msg, 0)
	} else {
		msg = binary.BigEndian.AppendUint16(msg, 0xc000|HeaderLen)
	}
	msg = binary.BigEndian.AppendUint16(msg, uint16(TypeA))
	msg = binary.BigEndian.AppendUint16(msg, uint16(ClassIN))
	msg = binary.BigEndian.AppendUint32(msg, ttl)
	msg = binary.BigEndian.AppendUint16(msg, 4)
	msg = append(msg, addr[:]...)
	binary.BigEndian.PutUint16(msg[6:8], binary.BigEndian.Uint16(msg[6:8])+1)
	return msg
}

// appendQuestion appends one question for a canonical name, class IN.
func appendQuestion(dst []byte, name string, qtype Type) []byte {
	dst = appendQName(dst, name)
	dst = binary.BigEndian.AppendUint16(dst, uint16(qtype))
	return binary.BigEndian.AppendUint16(dst, uint16(ClassIN))
}

// QuestionSize is the wire size of a header and one question for the
// canonical name (CanonicalName(name) == name): an empty response, or a
// query without EDNS.
func QuestionSize(name string) int {
	return HeaderLen + canonicalNameLen(name) + 4
}

// QuerySize is the wire size of NewQuery(id, name, qtype, ednsSize) for
// a canonical name and ednsSize > 0: the question and the option-less
// OPT record.
func QuerySize(name string) int {
	return QuestionSize(name) + rrLen(".", 0)
}

// AnswerASize is the wire size of the response AppendResponse and one
// AppendAnswerA build for a canonical name.
func AnswerASize(name string) int {
	owner := 2
	if len(name) == 1 {
		owner = 1
	}
	return QuestionSize(name) + owner + 10 + 4
}

// MinimalANYSize is the uncompressed wire size of an RFC 8482 minimal
// answer to an EDNS ANY query for a canonical name: the query and one
// HINFO record with 9 bytes of rdata.
func MinimalANYSize(name string) int {
	return QuerySize(name) + rrLen(name, 9)
}

// canonicalNameLen is EncodedNameLen for a canonical name, read off its
// length alone (the root is its one name of length 1): loading the last
// byte of a name viewed in a large table costs a cache miss.
func canonicalNameLen(name string) int {
	if len(name) == 1 {
		return 1
	}
	return len(name) + 1
}

// NewResponse builds a response message skeleton mirroring query q.
func NewResponse(q *Message) *Message {
	m := &Message{
		Header: Header{
			ID: q.Header.ID, QR: true, OpCode: q.Header.OpCode,
			RD: q.Header.RD, RA: true,
		},
		Questions: append([]Question(nil), q.Questions...),
	}
	return m
}
