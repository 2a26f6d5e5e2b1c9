package packet

import (
	"fmt"
	"net/netip"
)

// TCP flag bits.
const (
	TCPFlagSYN = 0x02
	TCPFlagRST = 0x04
	TCPFlagACK = 0x10
)

// TCPHeaderLen is the length of a TCP header without options; LACeS probes
// carry none.
const TCPHeaderLen = 20

// TCPProbePort is the high destination port LACeS sends SYN/ACK probes to
// (§4.2.3: "TCP probing uses SYN/ACK packets to high port numbers, for
// which we receive RST packets" — responsible because no state is created
// at the target).
const TCPProbePort = 62853

// TCPSegment is a TCP header (options unsupported) plus payload.
type TCPSegment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Payload          []byte
}

// HasFlags reports whether all of the given flag bits are set.
func (s *TCPSegment) HasFlags(f uint8) bool { return s.Flags&f == f }

// AppendTo appends the encoded segment with a correct pseudo-header
// checksum for the given address pair (both IPv4 or both IPv6).
func (s *TCPSegment) AppendTo(dst []byte, src, dstAddr netip.Addr) ([]byte, error) {
	if src.Is4() != dstAddr.Is4() {
		return nil, fmt.Errorf("tcp: mixed address families (src=%v dst=%v)", src, dstAddr)
	}
	off := len(dst)
	var b [TCPHeaderLen]byte
	put16(b[:], 0, s.SrcPort)
	put16(b[:], 2, s.DstPort)
	put32(b[:], 4, s.Seq)
	put32(b[:], 8, s.Ack)
	b[12] = 5 << 4 // data offset: 5 words, no options
	b[13] = s.Flags
	win := s.Window
	if win == 0 {
		win = 65535
	}
	put16(b[:], 14, win)
	dst = append(dst, b[:]...)
	dst = append(dst, s.Payload...)

	segLen := len(dst) - off
	var initial uint32
	if src.Is4() {
		sa, da := src.As4(), dstAddr.As4()
		initial = pseudoHeaderSum(sa[:], da[:], ProtoTCP, segLen)
	} else {
		sa, da := src.As16(), dstAddr.As16()
		initial = pseudoHeaderSum(sa[:], da[:], ProtoTCP, segLen)
	}
	cs := Checksum(dst[off:], initial)
	put16(dst, off+16, cs)
	return dst, nil
}

// DecodeFrom parses a TCP segment and verifies the pseudo-header checksum.
// The Payload slice aliases b.
func (s *TCPSegment) DecodeFrom(b []byte, src, dst netip.Addr) error {
	if len(b) < TCPHeaderLen {
		return fmt.Errorf("tcp: %w", ErrTruncated)
	}
	var initial uint32
	if src.Is4() && dst.Is4() {
		sa, da := src.As4(), dst.As4()
		initial = pseudoHeaderSum(sa[:], da[:], ProtoTCP, len(b))
	} else {
		sa, da := src.As16(), dst.As16()
		initial = pseudoHeaderSum(sa[:], da[:], ProtoTCP, len(b))
	}
	if Checksum(b, initial) != 0 {
		return fmt.Errorf("tcp: %w", ErrBadChecksum)
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(b) {
		return fmt.Errorf("tcp: data offset %d: %w", dataOff, ErrTruncated)
	}
	s.SrcPort = get16(b, 0)
	s.DstPort = get16(b, 2)
	s.Seq = get32(b, 4)
	s.Ack = get32(b, 8)
	s.Flags = b[13]
	s.Window = get16(b, 14)
	s.Payload = b[dataOff:]
	return nil
}

// NewTCPProbe builds the SYN/ACK probe for the identity. The
// acknowledgement number carries the identity per §4.2.2; the source port
// is derived from the measurement ID so that flow headers stay static
// across a measurement (keeping per-flow load balancers from splitting
// probes to the same target — §5.1.4).
func NewTCPProbe(id Identity) *TCPSegment {
	return &TCPSegment{
		SrcPort: 33000 + id.Measurement%16384,
		DstPort: TCPProbePort,
		Seq:     uint32(id.Measurement)<<16 | uint32(id.Worker)<<8 | 1,
		Ack:     TCPAck(id.Worker, id.TxTime),
		Flags:   TCPFlagSYN | TCPFlagACK,
	}
}

// RSTReply returns the RST segment a target with no matching connection
// sends back for an unsolicited SYN/ACK: per RFC 9293 §3.10.7.1, the RST
// carries SEQ = SEG.ACK and swapped ports. This echoes our encoded
// acknowledgement number back to whichever worker receives it.
func (s *TCPSegment) RSTReply() *TCPSegment {
	return &TCPSegment{
		SrcPort: s.DstPort,
		DstPort: s.SrcPort,
		Seq:     s.Ack,
		Flags:   TCPFlagRST,
	}
}

// IsProbeReply reports whether the segment looks like the RST elicited by
// a LACeS SYN/ACK probe of the given measurement: RST flag, source port
// equal to the probe port, and destination port matching the
// measurement-derived source port.
func (s *TCPSegment) IsProbeReply(measurement uint16) bool {
	return s.HasFlags(TCPFlagRST) &&
		s.SrcPort == TCPProbePort &&
		s.DstPort == 33000+measurement%16384
}
