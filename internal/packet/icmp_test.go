package packet

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

var testIdentity = Identity{
	Measurement: 0x2a17,
	Worker:      7,
	TxTime:      time.Date(2024, 3, 21, 12, 0, 0, 123456789, time.UTC),
}

func TestICMPv4RoundTrip(t *testing.T) {
	req := NewICMPProbe(testIdentity, false)
	buf := req.AppendTo(nil)

	var got ICMPEcho
	if err := got.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if got.Type != ICMPv4EchoRequest {
		t.Fatalf("decoded type %d should be a request", got.Type)
	}
	if got.ID != req.ID || got.Seq != req.Seq {
		t.Fatalf("id/seq mismatch: %+v vs %+v", got, req)
	}
	id, err := ParseICMPPayload(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != testIdentity {
		t.Fatalf("identity round trip: got %+v want %+v", id, testIdentity)
	}
}

func TestICMPv6RoundTripWithPseudoHeader(t *testing.T) {
	req := NewICMPProbe(testIdentity, true)
	buf, err := req.AppendToV6(nil, v6src, v6dst)
	if err != nil {
		t.Fatal(err)
	}
	var got ICMPEcho
	if err := got.DecodeFromV6(buf, v6src, v6dst); err != nil {
		t.Fatal(err)
	}
	if got.Type != ICMPv6EchoRequest {
		t.Fatalf("type = %d, want ICMPv6 echo request", got.Type)
	}
	// Decoding against a different address must fail the checksum: the
	// pseudo-header binds the ICMPv6 message to its IP endpoints. (Note a
	// plain swap would pass — the Internet checksum is commutative.)
	other := netip.MustParseAddr("2001:db8::dead")
	if err := got.DecodeFromV6(buf, v6src, other); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("wrong-address decode err = %v, want ErrBadChecksum", err)
	}
}

func TestICMPv6RequiresV6Addrs(t *testing.T) {
	req := NewICMPProbe(testIdentity, true)
	if _, err := req.AppendToV6(nil, v4src, v6dst); err == nil {
		t.Fatal("AppendToV6 with IPv4 source should fail")
	}
}

func TestICMPEchoReplyEchoesPayload(t *testing.T) {
	req := NewICMPProbe(testIdentity, false)
	reply := req.EchoReply(false)
	if reply.Type != ICMPv4EchoReply {
		t.Fatal("EchoReply should produce a reply type")
	}
	if reply.ID != req.ID || reply.Seq != req.Seq {
		t.Fatal("reply must echo id and seq")
	}
	id, err := ParseICMPPayload(reply.Payload)
	if err != nil || id != testIdentity {
		t.Fatalf("reply payload identity: %+v, %v", id, err)
	}
	v6 := req.EchoReply(true)
	if v6.Type != ICMPv6EchoReply {
		t.Fatalf("v6 reply type = %d", v6.Type)
	}
}

func TestICMPDecodeCorruption(t *testing.T) {
	buf := NewICMPProbe(testIdentity, false).AppendTo(nil)
	var got ICMPEcho
	if err := got.DecodeFrom(buf[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated err = %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0x01
	if err := got.DecodeFrom(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt err = %v, want ErrBadChecksum", err)
	}
}

func TestICMPChecksumCoversWholeMessage(t *testing.T) {
	f := func(id, seq uint16, payload []byte) bool {
		m := ICMPEcho{Type: ICMPv4EchoRequest, ID: id, Seq: seq, Payload: payload}
		buf := m.AppendTo(nil)
		var got ICMPEcho
		if err := got.DecodeFrom(buf); err != nil {
			return false
		}
		return got.ID == id && got.Seq == seq && string(got.Payload) == string(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestICMPProbeStaticFlowFields(t *testing.T) {
	// §5.1.4: flow headers must stay static across workers for the same
	// measurement so per-flow load balancers don't split probes. The ICMP
	// Seq (used in flow hashing by some LBs) depends only on measurement.
	a := NewICMPProbe(Identity{Measurement: 99, Worker: 1, TxTime: time.Now()}, false)
	b := NewICMPProbe(Identity{Measurement: 99, Worker: 30, TxTime: time.Now()}, false)
	if a.Seq != b.Seq {
		t.Fatalf("Seq differs across workers: %d vs %d", a.Seq, b.Seq)
	}
}

func BenchmarkICMPProbeEncode(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		m := NewICMPProbe(testIdentity, false)
		buf = m.AppendTo(buf)
	}
}

func BenchmarkICMPDecode(b *testing.B) {
	buf := NewICMPProbe(testIdentity, false).AppendTo(nil)
	var m ICMPEcho
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.DecodeFrom(buf); err != nil {
			b.Fatal(err)
		}
	}
}
