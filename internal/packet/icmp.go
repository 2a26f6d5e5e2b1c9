package packet

import (
	"fmt"
	"net/netip"
)

// ICMP message types used by LACeS.
const (
	ICMPv4EchoRequest = 8
	ICMPv4EchoReply   = 0
	ICMPv6EchoRequest = 128
	ICMPv6EchoReply   = 129
)

// ICMPEcho is an ICMP echo request or reply, shared between ICMPv4 and
// ICMPv6 (they differ only in type codes and checksum pseudo-header).
type ICMPEcho struct {
	Type    uint8
	Code    uint8
	ID      uint16
	Seq     uint16
	Payload []byte
}

// AppendTo appends the encoded ICMPv4 message with correct checksum.
//
//laces:hotpath encodes every outgoing ICMPv4 probe; appends into the caller's buffer
func (m *ICMPEcho) AppendTo(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, m.Type, m.Code, 0, 0)
	var hdr [4]byte
	put16(hdr[:], 0, m.ID)
	put16(hdr[:], 2, m.Seq)
	dst = append(dst, hdr[:]...)
	dst = append(dst, m.Payload...)
	cs := Checksum(dst[off:], 0)
	put16(dst, off+2, cs)
	return dst
}

// AppendToV6 appends the encoded ICMPv6 message; the checksum covers the
// IPv6 pseudo-header, so source and destination addresses are required.
func (m *ICMPEcho) AppendToV6(dst []byte, src, dstAddr netip.Addr) ([]byte, error) {
	if !src.Is6() || !dstAddr.Is6() {
		return nil, fmt.Errorf("icmpv6: pseudo-header requires IPv6 addresses (src=%v dst=%v)", src, dstAddr)
	}
	off := len(dst)
	dst = append(dst, m.Type, m.Code, 0, 0)
	var hdr [4]byte
	put16(hdr[:], 0, m.ID)
	put16(hdr[:], 2, m.Seq)
	dst = append(dst, hdr[:]...)
	dst = append(dst, m.Payload...)
	s := src.As16()
	d := dstAddr.As16()
	initial := pseudoHeaderSum(s[:], d[:], ProtoICMPv6, len(dst)-off)
	cs := Checksum(dst[off:], initial)
	put16(dst, off+2, cs)
	return dst, nil
}

// DecodeFrom parses an ICMPv4 message, verifying the checksum. The Payload
// slice aliases b.
//
//laces:hotpath decodes every incoming ICMPv4 reply; the happy path is allocation-free
func (m *ICMPEcho) DecodeFrom(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("icmp: %w", ErrTruncated) //laces:allow hotalloc error path, not the per-packet happy path
	}
	if Checksum(b, 0) != 0 {
		return fmt.Errorf("icmp: %w", ErrBadChecksum) //laces:allow hotalloc error path, not the per-packet happy path
	}
	m.decodeFields(b)
	return nil
}

// DecodeFromV6 parses an ICMPv6 message, verifying the pseudo-header
// checksum.
func (m *ICMPEcho) DecodeFromV6(b []byte, src, dst netip.Addr) error {
	if len(b) < 8 {
		return fmt.Errorf("icmpv6: %w", ErrTruncated)
	}
	s := src.As16()
	d := dst.As16()
	initial := pseudoHeaderSum(s[:], d[:], ProtoICMPv6, len(b))
	if Checksum(b, initial) != 0 {
		return fmt.Errorf("icmpv6: %w", ErrBadChecksum)
	}
	m.decodeFields(b)
	return nil
}

//laces:hotpath shared by the v4 and v6 decoders; aliases the input, never copies
func (m *ICMPEcho) decodeFields(b []byte) {
	m.Type = b[0]
	m.Code = b[1]
	m.ID = get16(b, 4)
	m.Seq = get16(b, 6)
	m.Payload = b[8:]
}

// NewICMPProbe builds the echo request carrying the probe identity for the
// given address family. id.Worker also seeds the ICMP identifier so that
// kernels demultiplex replies back to the right socket, and seq carries
// the low bits of the measurement for quick filtering.
func NewICMPProbe(id Identity, v6 bool) *ICMPEcho {
	typ := uint8(ICMPv4EchoRequest)
	if v6 {
		typ = ICMPv6EchoRequest
	}
	return &ICMPEcho{
		Type:    typ,
		ID:      uint16(id.Worker)<<8 | uint16(id.Measurement&0xff),
		Seq:     id.Measurement,
		Payload: id.AppendICMPPayload(nil),
	}
}

// EchoReply returns the reply a well-behaved target produces for the
// request: identical ID, Seq and payload with the reply type. The
// simulator uses this to generate responses from real request bytes.
func (m *ICMPEcho) EchoReply(v6 bool) *ICMPEcho {
	typ := uint8(ICMPv4EchoReply)
	if v6 {
		typ = ICMPv6EchoReply
	}
	return &ICMPEcho{Type: typ, Code: 0, ID: m.ID, Seq: m.Seq, Payload: m.Payload}
}
