package packet

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	v4src = netip.MustParseAddr("192.0.2.1")
	v4dst = netip.MustParseAddr("198.51.100.7")
	v6src = netip.MustParseAddr("2001:db8::1")
	v6dst = netip.MustParseAddr("2001:db8:ffff::42")
)

func TestIPv4RoundTrip(t *testing.T) {
	payload := []byte("hello anycast")
	h := IPv4{TOS: 0x10, ID: 0xbeef, TTL: 57, Protocol: ProtoICMP, Src: v4src, Dst: v4dst}
	buf, err := h.AppendTo(nil, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, payload...)

	var got IPv4
	gotPayload, err := got.DecodeFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != v4src || got.Dst != v4dst || got.Protocol != ProtoICMP ||
		got.TTL != 57 || got.ID != 0xbeef || got.TOS != 0x10 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if string(gotPayload) != string(payload) {
		t.Fatalf("payload mismatch: %q", gotPayload)
	}
	if got.PayloadLen != len(payload) {
		t.Fatalf("PayloadLen = %d, want %d", got.PayloadLen, len(payload))
	}
}

func TestIPv4DefaultTTL(t *testing.T) {
	h := IPv4{Src: v4src, Dst: v4dst, Protocol: ProtoTCP}
	buf, err := h.AppendTo(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv4
	if _, err := got.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if got.TTL != 64 {
		t.Fatalf("default TTL = %d, want 64", got.TTL)
	}
}

func TestIPv4RejectsV6Addrs(t *testing.T) {
	h := IPv4{Src: v6src, Dst: v4dst}
	if _, err := h.AppendTo(nil, 0); err == nil {
		t.Fatal("expected error for IPv6 source in IPv4 header")
	}
}

func TestIPv4RejectsOversize(t *testing.T) {
	h := IPv4{Src: v4src, Dst: v4dst}
	if _, err := h.AppendTo(nil, 65536); err == nil {
		t.Fatal("expected error for oversize payload")
	}
}

func TestIPv4DecodeCorruption(t *testing.T) {
	h := IPv4{Src: v4src, Dst: v4dst, Protocol: ProtoICMP}
	buf, _ := h.AppendTo(nil, 0)

	var got IPv4
	// Truncated.
	if _, err := got.DecodeFrom(buf[:10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated decode err = %v, want ErrTruncated", err)
	}
	// Checksum corruption.
	bad := append([]byte(nil), buf...)
	bad[8] ^= 0xff
	if _, err := got.DecodeFrom(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt decode err = %v, want ErrBadChecksum", err)
	}
	// Wrong version.
	bad = append([]byte(nil), buf...)
	bad[0] = 0x65
	if _, err := got.DecodeFrom(bad); err == nil {
		t.Fatal("version 6 in IPv4 decode should fail")
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	h := IPv6{TrafficClass: 0xa2, FlowLabel: 0xabcde, NextHeader: ProtoICMPv6, HopLimit: 33, Src: v6src, Dst: v6dst}
	buf, err := h.AppendTo(nil, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, payload...)

	var got IPv6
	gotPayload, err := got.DecodeFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != v6src || got.Dst != v6dst || got.NextHeader != ProtoICMPv6 ||
		got.HopLimit != 33 || got.TrafficClass != 0xa2 || got.FlowLabel != 0xabcde {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(gotPayload) != len(payload) {
		t.Fatalf("payload length mismatch: %d", len(gotPayload))
	}
}

func TestIPv6RejectsV4Addrs(t *testing.T) {
	h := IPv6{Src: v4src, Dst: v6dst}
	if _, err := h.AppendTo(nil, 0); err == nil {
		t.Fatal("expected error for IPv4 source in IPv6 header")
	}
}

func TestIPv6DecodeTruncated(t *testing.T) {
	var got IPv6
	if _, err := got.DecodeFrom(make([]byte, 20)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Declared payload longer than buffer.
	h := IPv6{Src: v6src, Dst: v6dst, NextHeader: 17} // UDP
	buf, _ := h.AppendTo(nil, 100)
	if _, err := got.DecodeFrom(buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestIPv4PropertyRoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, proto uint8, a, b [4]byte, plen uint8) bool {
		h := IPv4{
			TOS: tos, ID: id, TTL: ttl, Protocol: proto,
			Src: netip.AddrFrom4(a), Dst: netip.AddrFrom4(b),
		}
		buf, err := h.AppendTo(nil, int(plen))
		if err != nil {
			return false
		}
		buf = append(buf, make([]byte, plen)...)
		var got IPv4
		payload, err := got.DecodeFrom(buf)
		if err != nil {
			return false
		}
		wantTTL := ttl
		if wantTTL == 0 {
			wantTTL = 64
		}
		return got.Src == h.Src && got.Dst == h.Dst && got.Protocol == proto &&
			got.ID == id && got.TOS == tos && got.TTL == wantTTL && len(payload) == int(plen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
