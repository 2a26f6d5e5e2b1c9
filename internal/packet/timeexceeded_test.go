package packet

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

// buildQuotedProbe encodes a full ICMPv4 echo probe (IP header + ICMP) as
// a router would see it: the bytes that end up quoted in a time-exceeded
// error.
func buildQuotedProbe(t testing.TB, id Identity) []byte {
	t.Helper()
	echo := NewICMPProbe(id, false)
	ip := IPv4{
		TTL:      1,
		Protocol: ProtoICMP,
		Src:      netip.MustParseAddr("192.0.2.1"),
		Dst:      netip.MustParseAddr("198.51.100.7"),
	}
	icmp := echo.AppendTo(nil)
	b, err := ip.AppendTo(nil, len(icmp))
	if err != nil {
		t.Fatal(err)
	}
	return append(b, icmp...)
}

func TestTimeExceededRoundTripV4(t *testing.T) {
	id := Identity{Measurement: 0x1ace, Worker: 7, TxTime: time.Unix(1711000000, 123000).UTC()}
	quote := buildQuotedProbe(t, id)

	wire := NewTimeExceeded(false, quote).AppendTo(nil)

	var m TimeExceeded
	if err := m.DecodeFrom(wire); err != nil {
		t.Fatal(err)
	}
	if m.Type != ICMPv4TimeExceeded {
		t.Fatalf("type %d not recognised as time-exceeded", m.Type)
	}
	got, err := m.QuotedIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if got.Measurement != id.Measurement || got.Worker != id.Worker || !got.TxTime.Equal(id.TxTime) {
		t.Fatalf("quoted identity = %+v, want %+v", got, id)
	}
}

func TestTimeExceededRoundTripV6(t *testing.T) {
	src := netip.MustParseAddr("2001:db8::1")
	dst := netip.MustParseAddr("2001:db8::2")
	quote := []byte("quoted-v6-datagram-bytes")
	wire, err := NewTimeExceeded(true, quote).AppendToV6(nil, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	var m TimeExceeded
	if err := m.DecodeFromV6(wire, src, dst); err != nil {
		t.Fatal(err)
	}
	if m.Type != ICMPv6TimeExceeded {
		t.Fatalf("type = %d, want %d", m.Type, ICMPv6TimeExceeded)
	}
	if string(m.Quote) != string(quote) {
		t.Fatalf("quote = %q, want %q", m.Quote, quote)
	}
}

func TestTimeExceededChecksumValidation(t *testing.T) {
	wire := NewTimeExceeded(false, []byte("some quote")).AppendTo(nil)
	wire[len(wire)-1] ^= 0xff
	var m TimeExceeded
	if err := m.DecodeFrom(wire); err == nil {
		t.Fatal("corrupted time-exceeded accepted")
	}
}

func TestTimeExceededTruncated(t *testing.T) {
	var m TimeExceeded
	if err := m.DecodeFrom([]byte{11, 0, 0}); err == nil {
		t.Fatal("3-byte message accepted")
	}
	// A quote cut below the identity payload must fail identity recovery.
	id := Identity{Measurement: 1, Worker: 2, TxTime: time.Unix(0, 0)}
	quote := buildQuotedProbe(t, id)
	short := NewTimeExceeded(false, quote[:IPv4HeaderLen+8])
	if _, err := short.QuotedIdentity(); err == nil {
		t.Fatal("truncated quote yielded an identity")
	}
}

func TestTimeExceededRejectsNonICMPQuote(t *testing.T) {
	ip := IPv4{
		TTL:      1,
		Protocol: ProtoTCP,
		Src:      netip.MustParseAddr("192.0.2.1"),
		Dst:      netip.MustParseAddr("198.51.100.7"),
	}
	b, err := ip.AppendTo(nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, make([]byte, 20)...)
	m := NewTimeExceeded(false, b)
	if _, err := m.QuotedIdentity(); err == nil {
		t.Fatal("TCP quote yielded an ICMP identity")
	}
}

func TestTimeExceededQuotedIdentityProperty(t *testing.T) {
	f := func(meas uint16, worker uint8, nanos int64) bool {
		id := Identity{Measurement: meas, Worker: worker, TxTime: time.Unix(0, nanos).UTC()}
		quote := buildQuotedProbe(t, id)
		wire := NewTimeExceeded(false, quote).AppendTo(nil)
		var m TimeExceeded
		if err := m.DecodeFrom(wire); err != nil {
			return false
		}
		got, err := m.QuotedIdentity()
		if err != nil {
			return false
		}
		return got.Measurement == meas && got.Worker == worker && got.TxTime.Equal(id.TxTime)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
