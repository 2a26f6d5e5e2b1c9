package packet

import (
	"fmt"
	"net/netip"
)

// ICMP time-exceeded message types (RFC 792 / RFC 4443). Traceroute relies
// on routers answering TTL-expired probes with these messages, quoting the
// offending datagram so the sender can match the response to its probe.
const (
	ICMPv4TimeExceeded = 11
	ICMPv6TimeExceeded = 3
)

// icmpErrHeaderLen is the fixed ICMP error header: type, code, checksum
// and 4 unused bytes before the quoted datagram.
const icmpErrHeaderLen = 8

// TimeExceeded is an ICMP "time exceeded in transit" error, carrying the
// leading bytes of the expired datagram. The traceroute engine extracts
// the probe identity from the quote exactly as it would from a reply.
type TimeExceeded struct {
	Type uint8
	Code uint8
	// Quote is the start of the original datagram: its IP header plus at
	// least the first 8 payload bytes (RFC 792; modern routers quote
	// more, RFC 1812 §4.3.2.3).
	Quote []byte
}

// NewTimeExceeded builds the error message a router emits when the quoted
// datagram's TTL expires.
func NewTimeExceeded(v6 bool, quote []byte) *TimeExceeded {
	typ := uint8(ICMPv4TimeExceeded)
	if v6 {
		typ = ICMPv6TimeExceeded
	}
	return &TimeExceeded{Type: typ, Quote: quote}
}

// AppendTo appends the encoded ICMPv4 error with correct checksum.
func (m *TimeExceeded) AppendTo(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, m.Type, m.Code, 0, 0, 0, 0, 0, 0)
	dst = append(dst, m.Quote...)
	cs := Checksum(dst[off:], 0)
	put16(dst, off+2, cs)
	return dst
}

// AppendToV6 appends the encoded ICMPv6 error; the checksum covers the
// IPv6 pseudo-header.
func (m *TimeExceeded) AppendToV6(dst []byte, src, dstAddr netip.Addr) ([]byte, error) {
	if !src.Is6() || !dstAddr.Is6() {
		return nil, fmt.Errorf("icmpv6 time-exceeded: pseudo-header requires IPv6 addresses (src=%v dst=%v)", src, dstAddr)
	}
	off := len(dst)
	dst = append(dst, m.Type, m.Code, 0, 0, 0, 0, 0, 0)
	dst = append(dst, m.Quote...)
	s := src.As16()
	d := dstAddr.As16()
	initial := pseudoHeaderSum(s[:], d[:], ProtoICMPv6, len(dst)-off)
	cs := Checksum(dst[off:], initial)
	put16(dst, off+2, cs)
	return dst, nil
}

// DecodeFrom parses an ICMPv4 time-exceeded message, verifying the
// checksum. The Quote slice aliases b.
func (m *TimeExceeded) DecodeFrom(b []byte) error {
	if len(b) < icmpErrHeaderLen {
		return fmt.Errorf("icmp time-exceeded: %w", ErrTruncated)
	}
	if Checksum(b, 0) != 0 {
		return fmt.Errorf("icmp time-exceeded: %w", ErrBadChecksum)
	}
	m.Type = b[0]
	m.Code = b[1]
	m.Quote = b[icmpErrHeaderLen:]
	return nil
}

// DecodeFromV6 parses an ICMPv6 time-exceeded message, verifying the
// pseudo-header checksum.
func (m *TimeExceeded) DecodeFromV6(b []byte, src, dst netip.Addr) error {
	if len(b) < icmpErrHeaderLen {
		return fmt.Errorf("icmpv6 time-exceeded: %w", ErrTruncated)
	}
	s := src.As16()
	d := dst.As16()
	initial := pseudoHeaderSum(s[:], d[:], ProtoICMPv6, len(b))
	if Checksum(b, initial) != 0 {
		return fmt.Errorf("icmpv6 time-exceeded: %w", ErrBadChecksum)
	}
	m.Type = b[0]
	m.Code = b[1]
	m.Quote = b[icmpErrHeaderLen:]
	return nil
}

// QuotedIdentity recovers the probe identity from the quoted datagram of
// an ICMPv4 error: it parses the quoted IPv4 header, then the quoted ICMP
// echo header and payload. Routers that truncate the quote below the
// identity payload produce ErrTruncated.
func (m *TimeExceeded) QuotedIdentity() (Identity, error) {
	var ip IPv4
	payload, err := ip.DecodeFrom(m.Quote)
	if err != nil {
		return Identity{}, fmt.Errorf("quoted datagram: %w", err)
	}
	if ip.Protocol != ProtoICMP {
		return Identity{}, fmt.Errorf("quoted datagram: protocol %d is not ICMP", ip.Protocol)
	}
	if len(payload) < icmpErrHeaderLen {
		return Identity{}, fmt.Errorf("quoted ICMP header: %w", ErrTruncated)
	}
	// The quoted echo's checksum may be recomputed by the quoting router
	// after TTL decrement implementations vary; match on structure only.
	return ParseICMPPayload(payload[8:])
}
