// Package packet implements the wire formats LACeS probes with: IPv4/IPv6
// headers, ICMP echo (v4 and v6), TCP SYN/ACK and RST segments, UDP
// datagrams and DNS messages (A, AAAA and CHAOS TXT queries).
//
// All encoders write real, checksum-correct bytes; all decoders parse them
// back, so the probe-identity round trip the paper relies on (§4.2.2: "we
// encode the sending Worker ID and the transmission time in fields that are
// echoed in responses from targets") is exercised on genuine packets even
// when the transport is the network simulator.
//
// The layer design follows the in-place decoding idiom: each layer type has
// DecodeFrom([]byte) that resets the receiver, and AppendTo(dst []byte)
// that appends the encoded form, avoiding per-packet allocation in the hot
// probing path.
package packet

import (
	"errors"
	"fmt"
)

// Protocol identifies a probing protocol supported by LACeS (R4:
// multi-protocol probing).
type Protocol uint8

// Probing protocols.
const (
	ICMP Protocol = iota // ICMP echo (ping)
	TCP                  // TCP SYN/ACK to a high port, expecting RST
	DNS                  // DNS over UDP: A or CHAOS TXT query
)

// Protocols lists all probing protocols once.
func Protocols() []Protocol { return []Protocol{ICMP, TCP, DNS} }

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ICMP:
		return "ICMP"
	case TCP:
		return "TCP"
	case DNS:
		return "DNS"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// ParseProtocol converts a protocol name (as printed by String, case
// sensitive) back into a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "ICMP":
		return ICMP, nil
	case "TCP":
		return TCP, nil
	case "DNS":
		return DNS, nil
	}
	return 0, fmt.Errorf("packet: unknown protocol %q", s)
}

// Errors shared by the decoders.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadMagic    = errors.New("packet: probe identity magic mismatch")
	ErrNotProbe    = errors.New("packet: not a LACeS probe")
)

// Checksum computes the Internet checksum (RFC 1071) over data with the
// given initial partial sum, which callers use to fold in pseudo-headers.
func Checksum(data []byte, initial uint32) uint16 {
	sum := initial
	i := 0
	for ; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < len(data) {
		sum += uint32(data[i]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the partial sum of a TCP/UDP/ICMPv6
// pseudo-header: src, dst, zero+protocol, and the upper-layer length.
func pseudoHeaderSum(src, dst []byte, proto uint8, length int) uint32 {
	var sum uint32
	add := func(b []byte) {
		for i := 0; i+1 < len(b); i += 2 {
			sum += uint32(b[i])<<8 | uint32(b[i+1])
		}
	}
	add(src)
	add(dst)
	sum += uint32(proto)
	sum += uint32(length >> 16)
	sum += uint32(length & 0xffff)
	return sum
}

// put16 writes v big-endian at b[off:].
func put16(b []byte, off int, v uint16) {
	b[off] = byte(v >> 8)
	b[off+1] = byte(v)
}

// put32 writes v big-endian at b[off:].
func put32(b []byte, off int, v uint32) {
	b[off] = byte(v >> 24)
	b[off+1] = byte(v >> 16)
	b[off+2] = byte(v >> 8)
	b[off+3] = byte(v)
}

// get16 reads a big-endian uint16 at b[off:].
func get16(b []byte, off int) uint16 {
	return uint16(b[off])<<8 | uint16(b[off+1])
}

// get32 reads a big-endian uint32 at b[off:].
func get32(b []byte, off int) uint32 {
	return uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
}
