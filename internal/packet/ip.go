package packet

import (
	"fmt"
	"net/netip"
)

// IP protocol numbers used by LACeS probes.
const (
	ProtoICMP   = 1
	ProtoTCP    = 6
	ProtoICMPv6 = 58
)

// IPv4HeaderLen is the length of an IPv4 header without options; LACeS
// never emits options.
const IPv4HeaderLen = 20

// IPv6HeaderLen is the fixed IPv6 header length.
const IPv6HeaderLen = 40

// IPv4 is a minimal IPv4 header (no options). Zero value plus Src/Dst/
// Protocol/TTL is a valid probe header after AppendTo fills in lengths and
// checksum.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
	// PayloadLen is set by DecodeFrom; AppendTo derives it from payloadLen.
	PayloadLen int
}

// AppendTo appends the encoded header for a packet carrying payloadLen
// upper-layer bytes.
func (h *IPv4) AppendTo(dst []byte, payloadLen int) ([]byte, error) {
	if !h.Src.Is4() || !h.Dst.Is4() {
		return nil, fmt.Errorf("packet: IPv4 header requires 4-byte addresses (src=%v dst=%v)", h.Src, h.Dst)
	}
	total := IPv4HeaderLen + payloadLen
	if total > 0xffff {
		return nil, fmt.Errorf("packet: IPv4 total length %d exceeds 65535", total)
	}
	off := len(dst)
	var b [IPv4HeaderLen]byte
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	put16(b[:], 2, uint16(total))
	put16(b[:], 4, h.ID)
	// flags+fragment offset zero: probes are never fragmented.
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	b[8] = ttl
	b[9] = h.Protocol
	src := h.Src.As4()
	dstA := h.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dstA[:])
	cs := Checksum(b[:], 0)
	put16(b[:], 10, cs)
	_ = off
	return append(dst, b[:]...), nil
}

// DecodeFrom parses an IPv4 header from b, returning the payload bytes.
func (h *IPv4) DecodeFrom(b []byte) (payload []byte, err error) {
	if len(b) < IPv4HeaderLen {
		return nil, fmt.Errorf("ipv4: %w", ErrTruncated)
	}
	if b[0]>>4 != 4 {
		return nil, fmt.Errorf("ipv4: version %d: %w", b[0]>>4, ErrNotProbe)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return nil, fmt.Errorf("ipv4: bad IHL %d: %w", ihl, ErrTruncated)
	}
	if Checksum(b[:ihl], 0) != 0 {
		return nil, fmt.Errorf("ipv4: %w", ErrBadChecksum)
	}
	total := int(get16(b, 2))
	if total < ihl || total > len(b) {
		return nil, fmt.Errorf("ipv4: total length %d outside packet of %d bytes: %w", total, len(b), ErrTruncated)
	}
	h.TOS = b[1]
	h.ID = get16(b, 4)
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Src = netip.AddrFrom4([4]byte(b[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	h.PayloadLen = total - ihl
	return b[ihl:total], nil
}

// IPv6 is the fixed IPv6 header.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits used
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
	PayloadLen   int // set by DecodeFrom
}

// AppendTo appends the encoded header for payloadLen upper-layer bytes.
func (h *IPv6) AppendTo(dst []byte, payloadLen int) ([]byte, error) {
	if !h.Src.Is6() || h.Src.Is4In6() || !h.Dst.Is6() || h.Dst.Is4In6() {
		return nil, fmt.Errorf("packet: IPv6 header requires 16-byte addresses (src=%v dst=%v)", h.Src, h.Dst)
	}
	if payloadLen > 0xffff {
		return nil, fmt.Errorf("packet: IPv6 payload length %d exceeds 65535", payloadLen)
	}
	var b [IPv6HeaderLen]byte
	b[0] = 6<<4 | h.TrafficClass>>4
	b[1] = h.TrafficClass<<4 | byte(h.FlowLabel>>16&0x0f)
	b[2] = byte(h.FlowLabel >> 8)
	b[3] = byte(h.FlowLabel)
	put16(b[:], 4, uint16(payloadLen))
	b[6] = h.NextHeader
	hop := h.HopLimit
	if hop == 0 {
		hop = 64
	}
	b[7] = hop
	src := h.Src.As16()
	dstA := h.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dstA[:])
	return append(dst, b[:]...), nil
}

// DecodeFrom parses an IPv6 header from b, returning the payload bytes.
// Extension headers are not traversed: LACeS probes never carry them.
func (h *IPv6) DecodeFrom(b []byte) (payload []byte, err error) {
	if len(b) < IPv6HeaderLen {
		return nil, fmt.Errorf("ipv6: %w", ErrTruncated)
	}
	if b[0]>>4 != 6 {
		return nil, fmt.Errorf("ipv6: version %d: %w", b[0]>>4, ErrNotProbe)
	}
	h.TrafficClass = b[0]<<4 | b[1]>>4
	h.FlowLabel = uint32(b[1]&0x0f)<<16 | uint32(b[2])<<8 | uint32(b[3])
	plen := int(get16(b, 4))
	if IPv6HeaderLen+plen > len(b) {
		return nil, fmt.Errorf("ipv6: payload length %d outside packet of %d bytes: %w", plen, len(b), ErrTruncated)
	}
	h.NextHeader = b[6]
	h.HopLimit = b[7]
	h.Src = netip.AddrFrom16([16]byte(b[8:24]))
	h.Dst = netip.AddrFrom16([16]byte(b[24:40]))
	h.PayloadLen = plen
	return b[IPv6HeaderLen : IPv6HeaderLen+plen], nil
}
