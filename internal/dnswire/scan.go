package dnswire

import "encoding/binary"

// Scanned is what the capture path needs from one sampled message: the
// header, the first question, and how many NS records are visible. It
// is what Parse would report for the same bytes, without the message.
type Scanned struct {
	Header Header
	// QName is the first question name as decodeName flattens it, empty
	// when the header announces no question. It aliases the buffer
	// handed to Scan.
	QName []byte
	// QType is the first question type, TypeNone without a question.
	QType Type
	// NS counts the TypeNS records among the answer and authority
	// records Parse would have decoded from these bytes.
	NS int
}

// Scan reads b the way Parse does but materialises nothing: the first
// question name is flattened into name[:0] and the records are only
// walked. It fails exactly when Parse fails, with the same error, and
// stops walking records where Parse stops decoding them, so a 128-byte
// sample yields the same name, type and NS count either way.
func Scan(b, name []byte) (Scanned, error) {
	if len(b) < HeaderLen {
		return Scanned{}, ErrShortMessage
	}
	s := Scanned{Header: decodeHeader(b)}
	off := HeaderLen
	if s.Header.QDCount > 0 {
		var err error
		if s.QName, off, err = readName(b, off, name[:0], true); err != nil {
			return Scanned{}, err
		}
		if off+4 > len(b) {
			return Scanned{}, ErrTruncatedRData
		}
		s.QType = Type(binary.BigEndian.Uint16(b[off:]))
		off += 4
	}
	for i := 1; i < int(s.Header.QDCount); i++ {
		end, ok := skipName(b, off)
		if !ok || end+4 > len(b) {
			return s, nil // as Parse: later questions unreadable, no records
		}
		off = end + 4
	}
	// Additional records cannot change the count: stop after authority.
	for n := int(s.Header.ANCount) + int(s.Header.NSCount); n > 0; n-- {
		t, end, ok := skipRR(b, off)
		if !ok {
			break
		}
		if t == TypeNS {
			s.NS++
		}
		off = end
	}
	return s, nil
}

// skipName is readName for callers that only need the end offset.
func skipName(b []byte, off int) (int, bool) {
	_, end, err := readName(b, off, nil, false)
	return end, err == nil
}

// skipRR reports the type of the record at off and the offset past it,
// or false where decodeRR would fail.
func skipRR(b []byte, off int) (Type, int, bool) {
	off, ok := skipName(b, off)
	if !ok || off+10 > len(b) {
		return 0, 0, false
	}
	t := Type(binary.BigEndian.Uint16(b[off:]))
	rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
	off += 10
	if off+rdlen > len(b) || !validRData(t, b, off, b[off:off+rdlen]) {
		return 0, 0, false
	}
	return t, off + rdlen, true
}

// validRData reports whether decodeRData would accept the rdata: the
// same length bounds and embedded-name walks per type, nothing built.
func validRData(t Type, msg []byte, absOff int, rdata []byte) bool {
	switch t {
	case TypeA:
		return len(rdata) == 4
	case TypeAAAA:
		return len(rdata) == 16
	case TypeNS, TypeCNAME, TypePTR:
		_, ok := skipName(msg, absOff)
		return ok
	case TypeSOA:
		off, ok := skipName(msg, absOff)
		if ok {
			off, ok = skipName(msg, off)
		}
		return ok && off+20 <= len(msg)
	case TypeMX:
		if len(rdata) < 3 {
			return false
		}
		_, ok := skipName(msg, absOff+2)
		return ok
	case TypeTXT, TypeSPF:
		for i := 0; i < len(rdata); {
			if i += 1 + int(rdata[i]); i > len(rdata) {
				return false
			}
		}
		return true
	case TypeSRV:
		if len(rdata) < 7 {
			return false
		}
		_, ok := skipName(msg, absOff+6)
		return ok
	case TypeURI, TypeDNSKEY, TypeDS:
		return len(rdata) >= 4
	case TypeRRSIG:
		if len(rdata) < 19 {
			return false
		}
		off, ok := skipName(msg, absOff+18)
		return ok && off-absOff <= len(rdata)
	case TypeCAA:
		return len(rdata) >= 2 && 2+int(rdata[1]) <= len(rdata)
	case TypeNSEC:
		off, ok := skipName(msg, absOff)
		return ok && off-absOff <= len(rdata) && validTypeBitmap(rdata[off-absOff:])
	case TypeOPT:
		for i := 0; i+4 <= len(rdata); {
			if i += 4 + int(binary.BigEndian.Uint16(rdata[i+2:])); i > len(rdata) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// validTypeBitmap reports whether decodeTypeBitmap would accept b.
func validTypeBitmap(b []byte) bool {
	for i := 0; i < len(b); {
		if i+2 > len(b) {
			return false
		}
		blen := int(b[i+1])
		i += 2
		if blen == 0 || blen > 32 || i+blen > len(b) {
			return false
		}
		i += blen
	}
	return true
}
