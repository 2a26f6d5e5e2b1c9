package packet

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDNSQueryRoundTrip(t *testing.T) {
	q := NewDNSProbe(testIdentity, "probe.example.org", DNSTypeA, DNSClassIN)
	buf, err := q.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got DNSMessage
	if err := got.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if got.Response || got.ID != q.ID || len(got.Question) != 1 {
		t.Fatalf("decoded query mismatch: %+v", got)
	}
	if got.Question[0].Type != DNSTypeA || got.Question[0].Class != DNSClassIN {
		t.Fatalf("question type/class mismatch: %+v", got.Question[0])
	}
	id, zone, err := ParseDNSProbeName(got.Question[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if id != testIdentity {
		t.Fatalf("identity mismatch: %+v vs %+v", id, testIdentity)
	}
	if zone != "probe.example.org" {
		t.Fatalf("zone = %q", zone)
	}
}

func TestDNSReplyEchoesQuestion(t *testing.T) {
	q := NewDNSProbe(testIdentity, "probe.example.org", DNSTypeA, DNSClassIN)
	addr := netip.MustParseAddr("203.0.113.9").As4()
	resp := q.Reply(DNSRecord{
		Name: q.Question[0].Name, Type: DNSTypeA, Class: DNSClassIN,
		TTL: 300, Data: addr[:],
	})
	buf, err := resp.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got DNSMessage
	if err := got.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if !got.Response || !got.RA {
		t.Fatal("reply flags wrong")
	}
	// Identity recoverable from the echoed question even at a worker that
	// did not send the query.
	id, _, err := ParseDNSProbeName(got.Question[0].Name)
	if err != nil || id != testIdentity {
		t.Fatalf("identity from reply: %+v, %v", id, err)
	}
	a, err := got.Answer[0].Addr()
	if err != nil || a != netip.MustParseAddr("203.0.113.9") {
		t.Fatalf("answer addr = %v, %v", a, err)
	}
}

func TestDNSChaosProbe(t *testing.T) {
	q := NewDNSProbe(testIdentity, "", DNSTypeTXT, DNSClassCHAOS)
	if q.Question[0].Name != "id.server." {
		t.Fatalf("CHAOS probe name = %q, want id.server.", q.Question[0].Name)
	}
	if q.Question[0].Class != DNSClassCHAOS || q.Question[0].Type != DNSTypeTXT {
		t.Fatalf("CHAOS probe question: %+v", q.Question[0])
	}
	// Worker recoverable from message ID (RFC 4892 names can't carry it).
	if uint8(q.ID>>8) != testIdentity.Worker {
		t.Fatalf("worker not in message ID: %#x", q.ID)
	}

	resp := q.Reply(DNSRecord{
		Name: "id.server.", Type: DNSTypeTXT, Class: DNSClassCHAOS,
		Data: txtData("ams01.example-cdn.net"),
	})
	buf, err := resp.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got DNSMessage
	if err := got.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	strs, err := got.Answer[0].TXT()
	if err != nil || len(strs) != 1 || strs[0] != "ams01.example-cdn.net" {
		t.Fatalf("TXT round trip: %v, %v", strs, err)
	}
}

func TestDNSTXTMultipleStrings(t *testing.T) {
	rec := DNSRecord{Type: DNSTypeTXT, Data: append(txtData("auth1"), txtData("auth2")...)}
	strs, err := rec.TXT()
	if err != nil || len(strs) != 2 || strs[0] != "auth1" || strs[1] != "auth2" {
		t.Fatalf("TXT = %v, %v", strs, err)
	}
	// Truncated string data.
	rec.Data = []byte{5, 'a'}
	if _, err := rec.TXT(); err == nil {
		t.Fatal("truncated TXT should fail")
	}
	// Wrong type.
	rec = DNSRecord{Type: DNSTypeA, Data: []byte{1, 2, 3, 4}}
	if _, err := rec.TXT(); err == nil {
		t.Fatal("TXT() on A record should fail")
	}
}

func TestDNSNameCompressionPointer(t *testing.T) {
	// Hand-craft a response using a compression pointer for the answer
	// name (pointing at the question name at offset 12).
	q := DNSMessage{ID: 1, Question: []DNSQuestion{{Name: "ns1.example.org.", Type: DNSTypeA, Class: DNSClassIN}}}
	buf, err := q.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mark as response with one answer.
	buf[2] |= 0x80
	put16(buf, 6, 1)
	// Answer: pointer to offset 12, type A, class IN, TTL 60, 4-byte rdata.
	buf = append(buf, 0xc0, 12)
	var fixed [10]byte
	put16(fixed[:], 0, DNSTypeA)
	put16(fixed[:], 2, DNSClassIN)
	put32(fixed[:], 4, 60)
	put16(fixed[:], 8, 4)
	buf = append(buf, fixed[:]...)
	buf = append(buf, 203, 0, 113, 77)

	var got DNSMessage
	if err := got.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if got.Answer[0].Name != "ns1.example.org." {
		t.Fatalf("compressed name = %q", got.Answer[0].Name)
	}
	a, _ := got.Answer[0].Addr()
	if a != netip.MustParseAddr("203.0.113.77") {
		t.Fatalf("rdata = %v", a)
	}
}

func TestDNSCompressionLoopRejected(t *testing.T) {
	// Header + a name that is a pointer to itself.
	buf := make([]byte, 12, 14)
	put16(buf, 4, 1) // one question
	buf = append(buf, 0xc0, 12)
	var got DNSMessage
	if err := got.DecodeFrom(buf); err == nil {
		t.Fatal("self-referencing pointer must be rejected")
	}
}

func TestDNSDecodeTruncated(t *testing.T) {
	var got DNSMessage
	if err := got.DecodeFrom(make([]byte, 5)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	q := NewDNSProbe(testIdentity, "example.org", DNSTypeA, DNSClassIN)
	buf, _ := q.AppendTo(nil)
	if err := got.DecodeFrom(buf[:len(buf)-3]); err == nil {
		t.Fatal("truncated question should fail")
	}
}

func TestDNSLabelLimits(t *testing.T) {
	long := strings.Repeat("a", 64)
	m := DNSMessage{Question: []DNSQuestion{{Name: long + ".org", Type: DNSTypeA, Class: DNSClassIN}}}
	if _, err := m.AppendTo(nil); err == nil {
		t.Fatal("64-byte label must be rejected")
	}
	m.Question[0].Name = "a..b.org"
	if _, err := m.AppendTo(nil); err == nil {
		t.Fatal("empty label must be rejected")
	}
}

func TestDNSRootName(t *testing.T) {
	m := DNSMessage{Question: []DNSQuestion{{Name: ".", Type: DNSTypeA, Class: DNSClassIN}}}
	buf, err := m.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got DNSMessage
	if err := got.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if got.Question[0].Name != "." {
		t.Fatalf("root name = %q", got.Question[0].Name)
	}
}

func TestDNSProbeNameProperty(t *testing.T) {
	f := func(meas uint16, worker uint8, nanos int64) bool {
		id := Identity{
			Measurement: meas,
			Worker:      worker,
			TxTime:      time.Unix(0, nanos).UTC(),
		}
		got, zone, err := ParseDNSProbeName(DNSProbeName(id, "census.example.com"))
		return err == nil && got == id && zone == "census.example.com"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseDNSProbeNameRejectsForeign(t *testing.T) {
	for _, name := range []string{
		"www.example.com.",
		"lx-zz-07-00.example.com.",
		"lx-0001-07.example.com.",
		"singlelabel",
	} {
		if _, _, err := ParseDNSProbeName(name); err == nil {
			t.Errorf("ParseDNSProbeName(%q) should fail", name)
		}
	}
}

// txtData encodes one TXT character-string.
func txtData(s string) []byte {
	return append([]byte{byte(len(s))}, s...)
}

func BenchmarkDNSQueryEncode(b *testing.B) {
	q := NewDNSProbe(testIdentity, "probe.example.org", DNSTypeA, DNSClassIN)
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = q.AppendTo(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSDecode(b *testing.B) {
	q := NewDNSProbe(testIdentity, "probe.example.org", DNSTypeA, DNSClassIN)
	buf, _ := q.AppendTo(nil)
	var m DNSMessage
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.DecodeFrom(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TXT returns the record data interpreted as a TXT character-string
// sequence, decoded into its strings.
func (r DNSRecord) TXT() ([]string, error) {
	if r.Type != DNSTypeTXT {
		return nil, fmt.Errorf("dns: record type %d is not TXT", r.Type)
	}
	var out []string
	b := r.Data
	for len(b) > 0 {
		n := int(b[0])
		if 1+n > len(b) {
			return nil, fmt.Errorf("dns: TXT string: %w", ErrTruncated)
		}
		out = append(out, string(b[1:1+n]))
		b = b[1+n:]
	}
	return out, nil
}

// Addr returns the record data interpreted as an IP address (A or AAAA).
func (r DNSRecord) Addr() (netip.Addr, error) {
	a, ok := netip.AddrFromSlice(r.Data)
	if !ok {
		return netip.Addr{}, fmt.Errorf("dns: %d-byte rdata is not an address", len(r.Data))
	}
	return a, nil
}
