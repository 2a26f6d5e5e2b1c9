package packet

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestTCPRoundTripV4(t *testing.T) {
	seg := NewTCPProbe(testIdentity)
	buf, err := seg.AppendTo(nil, v4src, v4dst)
	if err != nil {
		t.Fatal(err)
	}
	var got TCPSegment
	if err := got.DecodeFrom(buf, v4src, v4dst); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != seg.SrcPort || got.DstPort != TCPProbePort ||
		got.Seq != seg.Seq || got.Ack != seg.Ack {
		t.Fatalf("fields mismatch: %+v vs %+v", got, seg)
	}
	if !got.HasFlags(TCPFlagSYN | TCPFlagACK) {
		t.Fatal("probe must be SYN/ACK")
	}
}

func TestTCPRoundTripV6(t *testing.T) {
	seg := NewTCPProbe(testIdentity)
	buf, err := seg.AppendTo(nil, v6src, v6dst)
	if err != nil {
		t.Fatal(err)
	}
	var got TCPSegment
	if err := got.DecodeFrom(buf, v6src, v6dst); err != nil {
		t.Fatal(err)
	}
	if got.Ack != seg.Ack {
		t.Fatalf("ack mismatch: %#x vs %#x", got.Ack, seg.Ack)
	}
}

func TestTCPChecksumBindsAddresses(t *testing.T) {
	seg := NewTCPProbe(testIdentity)
	buf, _ := seg.AppendTo(nil, v4src, v4dst)
	var got TCPSegment
	other := netip.MustParseAddr("203.0.113.200")
	if err := got.DecodeFrom(buf, v4src, other); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("wrong-address err = %v, want ErrBadChecksum", err)
	}
}

func TestTCPMixedFamiliesRejected(t *testing.T) {
	seg := NewTCPProbe(testIdentity)
	if _, err := seg.AppendTo(nil, v4src, v6dst); err == nil {
		t.Fatal("mixed families should fail")
	}
}

func TestTCPDecodeTruncated(t *testing.T) {
	var got TCPSegment
	if err := got.DecodeFrom(make([]byte, 10), v4src, v4dst); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestRSTReplyEchoesAckAsSeq(t *testing.T) {
	// RFC 9293: RST in response to our SYN/ACK carries SEQ = our ACK.
	// This is how the identity survives the round trip.
	probe := NewTCPProbe(testIdentity)
	rst := probe.RSTReply()
	if !rst.HasFlags(TCPFlagRST) {
		t.Fatal("reply must set RST")
	}
	if rst.Seq != probe.Ack {
		t.Fatalf("RST seq = %#x, want probe ack %#x", rst.Seq, probe.Ack)
	}
	if rst.SrcPort != probe.DstPort || rst.DstPort != probe.SrcPort {
		t.Fatal("RST must swap ports")
	}
	if !rst.IsProbeReply(testIdentity.Measurement) {
		t.Fatal("RST should be recognised as a probe reply")
	}
	if rst.IsProbeReply(testIdentity.Measurement + 1) {
		t.Fatal("RST should not match a different measurement")
	}
}

func TestTCPAckIdentityRoundTrip(t *testing.T) {
	tx := time.Date(2025, 1, 6, 10, 30, 0, 250_000_000, time.UTC)
	for worker := 0; worker < 256; worker += 17 {
		ack := TCPAck(uint8(worker), tx)
		if got := TCPAckWorker(ack); got != uint8(worker) {
			t.Fatalf("worker round trip: got %d want %d", got, worker)
		}
	}
}

func TestTCPAckRTTRecovery(t *testing.T) {
	f := func(worker uint8, rttMicros uint32) bool {
		rtt := time.Duration(rttMicros%10_000_000) * time.Microsecond // < 10s
		tx := time.Date(2025, 3, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(rttMicros) * time.Microsecond)
		ack := TCPAck(worker, tx)
		got := TCPAckRTT(ack, tx.Add(rtt))
		return got == rtt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPAckRTTWrap(t *testing.T) {
	// TX just below the 24-bit microsecond wrap; RX just above it.
	tx := time.Unix(0, 0).Add(time.Duration(tcpAckMicrosMask) * time.Microsecond)
	ack := TCPAck(3, tx)
	rtt := 150 * time.Millisecond
	if got := TCPAckRTT(ack, tx.Add(rtt)); got != rtt {
		t.Fatalf("wrapped RTT = %v, want %v", got, rtt)
	}
}

func TestTCPProbeStaticFlowHeaders(t *testing.T) {
	// §5.1.4: source/destination ports must not vary across workers or
	// probes of the same measurement, keeping per-flow load balancers
	// deterministic.
	now := time.Now()
	a := NewTCPProbe(Identity{Measurement: 500, Worker: 0, TxTime: now})
	b := NewTCPProbe(Identity{Measurement: 500, Worker: 31, TxTime: now.Add(time.Second)})
	if a.SrcPort != b.SrcPort || a.DstPort != b.DstPort {
		t.Fatalf("flow headers differ: %d/%d vs %d/%d", a.SrcPort, a.DstPort, b.SrcPort, b.DstPort)
	}
}

func TestTCPPropertyRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, a, b [4]byte) bool {
		src := netip.AddrFrom4(a)
		dst := netip.AddrFrom4(b)
		seg := TCPSegment{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags}
		buf, err := seg.AppendTo(nil, src, dst)
		if err != nil {
			return false
		}
		var got TCPSegment
		if err := got.DecodeFrom(buf, src, dst); err != nil {
			return false
		}
		return got.SrcPort == sp && got.DstPort == dp && got.Seq == seq &&
			got.Ack == ack && got.Flags == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTCPProbeEncode(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		seg := NewTCPProbe(testIdentity)
		var err error
		buf, err = seg.AppendTo(buf, v4src, v4dst)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TCPAckRTT recovers the round-trip time from an echoed acknowledgement
// number given the receive time, handling the 24-bit wrap. The result is
// accurate to 1 µs for RTTs below ~16.8 s.
func TCPAckRTT(ack uint32, rxTime time.Time) time.Duration {
	txMicros := ack & tcpAckMicrosMask
	rxMicros := uint32(rxTime.UnixMicro()) & tcpAckMicrosMask
	delta := (rxMicros - txMicros) & tcpAckMicrosMask
	return time.Duration(delta) * time.Microsecond
}
