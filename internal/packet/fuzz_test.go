package packet

import (
	"net/netip"
	"runtime"
	"testing"
)

// Pseudo-header addresses the fuzzed v6 and TCP decoders verify
// checksums against; the seed packets are encoded for them.
var (
	fuzzSrc4 = netip.MustParseAddr("192.0.2.1")
	fuzzDst4 = netip.MustParseAddr("198.51.100.7")
	fuzzSrc6 = netip.MustParseAddr("2001:db8::1")
	fuzzDst6 = netip.MustParseAddr("2001:db8:ffff::7")
)

// fuzzAllocBound is the most allocations, and bytes allocated, decoding
// n bytes may take: the error paths' fixed cost, plus per input byte at
// most a share of one DNS name — a 2-byte compression pointer can stand
// for a 255-byte name, whose builder grows about six times to 512 bytes —
// and of the section slices' growth. A decoder that sizes anything by a
// header count instead of by the bytes present breaks it.
func fuzzAllocBound(n int) (mallocs, bytes uint64) {
	return 32 + 4*uint64(n), 1024 + 256*uint64(n)
}

// allocsOf runs f once to warm up, then once more measured, and returns
// that run's allocations and bytes allocated (testing.AllocsPerRun, with
// bytes).
func allocsOf(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// decodeAll runs every wire decoder a reply can reach — ICMPv4 and
// ICMPv6 echo with the identity payload, TCP over both families, DNS with
// its TXT and address records — over b.
func decodeAll(b []byte) {
	var echo ICMPEcho
	if echo.DecodeFrom(b) == nil {
		ParseICMPPayload(echo.Payload)
	}
	if echo.DecodeFromV6(b, fuzzSrc6, fuzzDst6) == nil {
		ParseICMPPayload(echo.Payload)
	}
	var seg TCPSegment
	seg.DecodeFrom(b, fuzzSrc4, fuzzDst4)
	seg.DecodeFrom(b, fuzzSrc6, fuzzDst6)
	var msg DNSMessage
	if msg.DecodeFrom(b) == nil {
		for _, q := range msg.Question {
			ParseDNSProbeName(q.Name)
		}
		for _, r := range msg.Answer {
			r.TXT()
			r.Addr()
		}
	}
}

// FuzzPacketDecode feeds arbitrary bytes to the ICMPv4/ICMPv6, TCP and
// DNS decoders. None may panic, and allocation must stay within a bound
// linear in the input's length. The seed corpus is what the round-trip
// encoders emit, so mutations start from well-formed, checksum-correct
// packets.
func FuzzPacketDecode(f *testing.F) {
	add := func(b []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(NewICMPProbe(testIdentity, false).AppendTo(nil), nil)
	add(NewICMPProbe(testIdentity, false).EchoReply(false).AppendTo(nil), nil)
	add(NewICMPProbe(testIdentity, true).AppendToV6(nil, fuzzSrc6, fuzzDst6))
	add(NewTCPProbe(testIdentity).AppendTo(nil, fuzzSrc4, fuzzDst4))
	add(NewTCPProbe(testIdentity).RSTReply().AppendTo(nil, fuzzSrc6, fuzzDst6))
	q := NewDNSProbe(testIdentity, "probe.example.org", DNSTypeA, DNSClassIN)
	add(q.AppendTo(nil))
	addr := fuzzDst4.As4()
	add(q.Reply(DNSRecord{Name: q.Question[0].Name, Type: DNSTypeA, Class: DNSClassIN, TTL: 300, Data: addr[:]}).AppendTo(nil))
	chaos := NewDNSProbe(testIdentity, "", DNSTypeTXT, DNSClassCHAOS)
	add(chaos.Reply(DNSRecord{Name: "id.server.", Type: DNSTypeTXT, Class: DNSClassCHAOS, Data: []byte("\x06ams-01\x03fra")}).AppendTo(nil))
	// A compressed answer name: a pointer back to the question's name.
	comp, err := q.Reply().AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	comp[7] = 1 // ANCOUNT
	f.Add(append(comp, 0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1))

	f.Fuzz(func(t *testing.T, b []byte) {
		mallocs, bytes := allocsOf(func() { decodeAll(b) })
		if maxMallocs, maxBytes := fuzzAllocBound(len(b)); mallocs > maxMallocs || bytes > maxBytes {
			t.Fatalf("decoding %d bytes took %d allocations (%d bytes), bound %d (%d bytes)",
				len(b), mallocs, bytes, maxMallocs, maxBytes)
		}
	})
}
