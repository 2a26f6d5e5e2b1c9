package packet

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestICMPPayloadRoundTrip(t *testing.T) {
	f := func(meas uint16, worker uint8, nanos int64) bool {
		id := Identity{Measurement: meas, Worker: worker, TxTime: time.Unix(0, nanos).UTC()}
		got, err := ParseICMPPayload(id.AppendICMPPayload(nil))
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestICMPPayloadRejectsForeign(t *testing.T) {
	// Too short.
	if _, err := ParseICMPPayload([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short payload err = %v, want ErrTruncated", err)
	}
	// Wrong magic (e.g. a regular ping payload).
	b := make([]byte, ICMPPayloadLen)
	copy(b, "ping")
	if _, err := ParseICMPPayload(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign payload err = %v, want ErrBadMagic", err)
	}
	// Wrong version.
	b = testIdentity.AppendICMPPayload(nil)
	b[7] = 99
	if _, err := ParseICMPPayload(b); err == nil {
		t.Fatal("unknown payload version should be rejected")
	}
}

func TestICMPPayloadExtraBytesTolerated(t *testing.T) {
	// Some targets pad echoed payloads; trailing bytes must not break
	// identity recovery.
	b := testIdentity.AppendICMPPayload(nil)
	b = append(b, 0xde, 0xad)
	got, err := ParseICMPPayload(b)
	if err != nil || got != testIdentity {
		t.Fatalf("padded payload: %+v, %v", got, err)
	}
}

func TestIdentityTimestampPrecision(t *testing.T) {
	// Nanosecond precision must survive: RTTs feed GCD radii where 1 ms
	// is already 100 km of disc radius.
	tx := time.Date(2024, 6, 1, 0, 0, 0, 999999999, time.UTC)
	id := Identity{Measurement: 1, Worker: 2, TxTime: tx}
	got, err := ParseICMPPayload(id.AppendICMPPayload(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.TxTime.Equal(tx) {
		t.Fatalf("timestamp = %v, want %v", got.TxTime, tx)
	}
}

func TestTCPAckWorkerExhaustive(t *testing.T) {
	tx := time.Now()
	for w := 0; w < 256; w++ {
		if got := TCPAckWorker(TCPAck(uint8(w), tx)); got != uint8(w) {
			t.Fatalf("worker %d round-trips to %d", w, got)
		}
	}
}

// BenchmarkProbeEncodeIdentity compares the three identity carriers
// (ICMP payload, DNS query name, TCP acknowledgement number) — the
// encoding-format ablation.
func BenchmarkProbeEncodeIdentity(b *testing.B) {
	b.Run("ICMPPayload", func(b *testing.B) {
		buf := make([]byte, 0, ICMPPayloadLen)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = testIdentity.AppendICMPPayload(buf[:0])
		}
	})
	b.Run("DNSName", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = DNSProbeName(testIdentity, "census.example")
		}
	})
	b.Run("TCPAck", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = TCPAck(testIdentity.Worker, testIdentity.TxTime)
		}
	})
}
