package packet

import (
	"fmt"
	"strings"
)

// DNS record types and classes used by LACeS (§4.2.3: A and CHAOS TXT
// queries).
const (
	DNSTypeA   uint16 = 1
	DNSTypeTXT uint16 = 16

	DNSClassIN    uint16 = 1
	DNSClassCHAOS uint16 = 3
)

// DNS header flag bits (within the 16-bit flags word).
const (
	dnsFlagQR uint16 = 1 << 15
	dnsFlagRD uint16 = 1 << 8
	dnsFlagRA uint16 = 1 << 7
)

// maxDNSNameLen bounds decoded name length per RFC 1035.
const maxDNSNameLen = 255

// DNSQuestion is one entry of the question section.
type DNSQuestion struct {
	Name  string // fully qualified, trailing dot optional
	Type  uint16
	Class uint16
}

// DNSRecord is one resource record of the answer section. For TXT records
// Data holds the concatenated character strings; for A/AAAA it holds the
// address bytes.
type DNSRecord struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// DNSMessage is a DNS query or response with the sections LACeS uses.
type DNSMessage struct {
	ID       uint16
	Response bool
	RD       bool
	RA       bool
	RCode    uint8
	Question []DNSQuestion
	Answer   []DNSRecord
}

// AppendTo appends the encoded message. Names are encoded without
// compression (legal, and what a minimal prober emits).
func (m *DNSMessage) AppendTo(dst []byte) ([]byte, error) {
	var hdr [12]byte
	put16(hdr[:], 0, m.ID)
	var flags uint16
	if m.Response {
		flags |= dnsFlagQR
	}
	if m.RD {
		flags |= dnsFlagRD
	}
	if m.RA {
		flags |= dnsFlagRA
	}
	flags |= uint16(m.RCode & 0x0f)
	put16(hdr[:], 2, flags)
	put16(hdr[:], 4, uint16(len(m.Question)))
	put16(hdr[:], 6, uint16(len(m.Answer)))
	dst = append(dst, hdr[:]...)

	var err error
	for _, q := range m.Question {
		dst, err = appendDNSName(dst, q.Name)
		if err != nil {
			return nil, err
		}
		var b [4]byte
		put16(b[:], 0, q.Type)
		put16(b[:], 2, q.Class)
		dst = append(dst, b[:]...)
	}
	for _, r := range m.Answer {
		dst, err = appendDNSName(dst, r.Name)
		if err != nil {
			return nil, err
		}
		if len(r.Data) > 0xffff {
			return nil, fmt.Errorf("dns: rdata of %d bytes too long", len(r.Data))
		}
		var b [10]byte
		put16(b[:], 0, r.Type)
		put16(b[:], 2, r.Class)
		put32(b[:], 4, r.TTL)
		put16(b[:], 8, uint16(len(r.Data)))
		dst = append(dst, b[:]...)
		dst = append(dst, r.Data...)
	}
	return dst, nil
}

// DecodeFrom parses a DNS message, following compression pointers in
// names (responders commonly compress the answer section).
func (m *DNSMessage) DecodeFrom(b []byte) error {
	if len(b) < 12 {
		return fmt.Errorf("dns: header: %w", ErrTruncated)
	}
	m.ID = get16(b, 0)
	flags := get16(b, 2)
	m.Response = flags&dnsFlagQR != 0
	m.RD = flags&dnsFlagRD != 0
	m.RA = flags&dnsFlagRA != 0
	m.RCode = uint8(flags & 0x0f)
	qd := int(get16(b, 4))
	an := int(get16(b, 6))

	m.Question = m.Question[:0]
	m.Answer = m.Answer[:0]
	off := 12
	for i := 0; i < qd; i++ {
		name, n, err := decodeDNSName(b, off)
		if err != nil {
			return fmt.Errorf("dns: question %d: %w", i, err)
		}
		off = n
		if off+4 > len(b) {
			return fmt.Errorf("dns: question %d fixed part: %w", i, ErrTruncated)
		}
		m.Question = append(m.Question, DNSQuestion{
			Name:  name,
			Type:  get16(b, off),
			Class: get16(b, off+2),
		})
		off += 4
	}
	for i := 0; i < an; i++ {
		name, n, err := decodeDNSName(b, off)
		if err != nil {
			return fmt.Errorf("dns: answer %d: %w", i, err)
		}
		off = n
		if off+10 > len(b) {
			return fmt.Errorf("dns: answer %d fixed part: %w", i, ErrTruncated)
		}
		rec := DNSRecord{
			Name:  name,
			Type:  get16(b, off),
			Class: get16(b, off+2),
			TTL:   get32(b, off+4),
		}
		rdLen := int(get16(b, off+8))
		off += 10
		if off+rdLen > len(b) {
			return fmt.Errorf("dns: answer %d rdata: %w", i, ErrTruncated)
		}
		rec.Data = b[off : off+rdLen]
		off += rdLen
		m.Answer = append(m.Answer, rec)
	}
	return nil
}

// appendDNSName appends name in wire format (length-prefixed labels).
func appendDNSName(dst []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 {
				return nil, fmt.Errorf("dns: empty label in %q", name)
			}
			if len(label) > 63 {
				return nil, fmt.Errorf("dns: label %q exceeds 63 bytes", label)
			}
			dst = append(dst, byte(len(label)))
			dst = append(dst, label...)
		}
	}
	return append(dst, 0), nil
}

// decodeDNSName reads a possibly compressed name starting at off,
// returning the dotted name and the offset just past it in the original
// stream.
func decodeDNSName(b []byte, off int) (string, int, error) {
	var sb strings.Builder
	end := -1 // offset after the name in the original stream
	jumps := 0
	for {
		if off >= len(b) {
			return "", 0, fmt.Errorf("dns name: %w", ErrTruncated)
		}
		c := int(b[off])
		switch {
		case c == 0:
			if end == -1 {
				end = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			return name, end, nil
		case c&0xc0 == 0xc0: // compression pointer
			if off+1 >= len(b) {
				return "", 0, fmt.Errorf("dns name pointer: %w", ErrTruncated)
			}
			if end == -1 {
				end = off + 2
			}
			off = (c&0x3f)<<8 | int(b[off+1])
			jumps++
			if jumps > 32 {
				return "", 0, fmt.Errorf("dns name: too many compression pointers")
			}
		case c&0xc0 != 0:
			return "", 0, fmt.Errorf("dns name: reserved label type %#x", c&0xc0)
		default:
			if off+1+c > len(b) {
				return "", 0, fmt.Errorf("dns label: %w", ErrTruncated)
			}
			if sb.Len()+c+1 > maxDNSNameLen {
				return "", 0, fmt.Errorf("dns name exceeds %d bytes", maxDNSNameLen)
			}
			sb.Write(b[off+1 : off+1+c])
			sb.WriteByte('.')
			off += 1 + c
		}
	}
}

// NewDNSProbe builds the DNS query for the identity. For IN-class probes
// the query asks for the probe name itself (qtype A or AAAA), encoding the
// identity in the name. For CHAOS probes the conventional
// "id.server" / "hostname.bind" names (RFC 4892) cannot carry the
// identity, so the DNS message ID carries the worker index instead.
func NewDNSProbe(id Identity, zone string, qtype uint16, class uint16) *DNSMessage {
	q := DNSQuestion{Type: qtype, Class: class}
	msgID := id.Measurement
	if class == DNSClassCHAOS {
		q.Name = "id.server."
		q.Type = DNSTypeTXT
		msgID = uint16(id.Worker)<<8 | id.Measurement&0xff
	} else {
		q.Name = DNSProbeName(id, zone)
	}
	return &DNSMessage{ID: msgID, RD: false, Question: []DNSQuestion{q}}
}

// Reply builds a response to the query echoing the question section, with
// the given answers. Simulated targets use this.
func (m *DNSMessage) Reply(answers ...DNSRecord) *DNSMessage {
	return &DNSMessage{
		ID:       m.ID,
		Response: true,
		RD:       m.RD,
		RA:       true,
		Question: append([]DNSQuestion(nil), m.Question...),
		Answer:   answers,
	}
}
