package core

import (
	"bytes"
	"cmp"
	"net/netip"
	"strings"
	"testing"
)

// synthDoc builds a deterministic synthetic document for codec tests.
func synthDoc(day, entries int) *Document {
	d := &Document{
		Date:               "2024-03-21",
		Family:             "ipv4",
		HitlistSize:        entries * 3,
		Workers:            32,
		ProbesAnycastStage: int64(entries) * 96,
		ProbesGCDStage:     int64(entries) * 7,
	}
	for i := 0; i < entries; i++ {
		e := DocumentEntry{
			Prefix:    synthPrefix(i),
			OriginASN: uint32(64500 + i%200),
		}
		switch i % 3 {
		case 0:
			e.ACProtocols = []string{"ICMP", "TCP"}
			e.MaxReceivers = 2 + (i+day)%7
			e.GCDMeasured = true
			e.GCDAnycast = true
			e.GCDSites = 2 + i%9
			e.GCDCities = []string{"Amsterdam", "Tokyo"}
			e.GCDVPs = 40 + i%13
			d.GCount++
		case 1:
			e.ACProtocols = []string{"DNS"}
			e.MaxReceivers = 2
			e.GCDMeasured = true
			e.GlobalBGP = i%5 == 1
			d.MCount++
		default:
			e.FromFeedback = true
			e.GCDMeasured = true
			e.GCDAnycast = i%2 == 0
			if e.GCDAnycast {
				e.GCDSites = 3
				e.GCDCities = []string{"Sydney"}
				d.GCount++
			}
			e.PartialAnycast = i%7 == 2
		}
		d.Entries = append(d.Entries, e)
	}
	sortEntriesCanonical(d)
	return d
}

// synthPrefix spreads prefixes over addresses whose lexicographic and
// numeric orders differ (2.x vs 10.x vs 100.x).
func synthPrefix(i int) string {
	bases := []string{"2", "10", "100", "192", "23"}
	return bases[i%len(bases)] + "." + itoa((i/5)%250) + "." + itoa(i%250) + ".0/24"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func sortEntriesCanonical(d *Document) {
	es := d.Entries
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && ComparePrefixStrings(es[j].Prefix, es[j-1].Prefix) < 0; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// TestStreamWriterByteIdentical pins the codec's contract: StreamDocument
// (past its flush size too) and CanonicalDay.Stream must produce exactly
// the bytes encoding/json writes for the canonical document,
// `"entries": []` for empty non-nil entries included.
func TestStreamWriterByteIdentical(t *testing.T) {
	emptied := synthDoc(3, 0)
	emptied.Entries = []DocumentEntry{}
	for _, doc := range []*Document{synthDoc(3, 0), emptied, synthDoc(3, 1), synthDoc(3, 2), synthDoc(3, 57), synthDoc(3, 400)} {
		want, err := refIndented(doc)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := StreamDocument(&got, doc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Fatalf("entries=%d (nil %v): streamed bytes differ from encoding/json\nwant: %q\ngot:  %q",
				len(doc.Entries), doc.Entries == nil, want, got.String())
		}
		var c CanonicalDay
		if err := c.Stream(doc); err != nil || !bytes.Equal(want, c.Bytes()) {
			t.Fatalf("entries=%d (nil %v): CanonicalDay.Stream (%v) differs from encoding/json\nwant: %q\ngot:  %q",
				len(doc.Entries), doc.Entries == nil, err, want, c.Bytes())
		}
	}
}

// TestStreamReaderRoundTrip reads a streamed document back through the
// archive's split and row decoder and re-encodes it byte-identically.
func TestStreamReaderRoundTrip(t *testing.T) {
	for _, entries := range []int{0, 1, 41} {
		doc := synthDoc(9, entries)
		var buf bytes.Buffer
		if err := StreamDocument(&buf, doc); err != nil {
			t.Fatal(err)
		}
		back, err := new(RowDecoder).Document(splitOnRows(t, buf.Bytes()))
		if err != nil {
			t.Fatalf("entries=%d: %v", entries, err)
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("entries=%d: decode lost information", entries)
		}
		if back.ProbesAnycastStage != doc.ProbesAnycastStage || back.GCount != doc.GCount {
			t.Fatalf("header scalars lost: %+v", back)
		}
	}
}

// TestComparePrefixNumeric pins the satellite fix: 2.0.0.0/24 sorts
// before 10.0.0.0/24 despite the lexicographic order saying otherwise.
func TestComparePrefixNumeric(t *testing.T) {
	order := []string{"2.0.0.0/24", "10.0.0.0/24", "10.0.0.0/25", "100.0.0.0/24", "192.0.2.0/24"}
	for i := range order {
		for j := range order {
			got := ComparePrefixStrings(order[i], order[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Fatalf("ComparePrefixStrings(%s, %s) = %d, want %d", order[i], order[j], got, want)
			}
		}
	}
	if ComparePrefixStrings("10.0.0.0/24", "2.0.0.0/24") < 0 {
		t.Fatal("lexicographic ordering leaked back in")
	}
}

// TestPrefixKeyOrder holds the parsed keys' order to the comparison of
// netip prefixes ComparePrefixStrings made before keys did: IPv4 before
// IPv6 (4in6 included), then address and length, and the strings that
// do not parse after every prefix, in string order.
func TestPrefixKeyOrder(t *testing.T) {
	ref := func(a, b string) int {
		pa, ea := netip.ParsePrefix(a)
		pb, eb := netip.ParsePrefix(b)
		switch {
		case ea == nil && eb == nil:
			if c := pa.Addr().Compare(pb.Addr()); c != 0 {
				return c
			}
			return cmp.Compare(pa.Bits(), pb.Bits())
		case ea == nil:
			return -1
		case eb == nil:
			return 1
		}
		return strings.Compare(a, b)
	}
	ps := []string{"0.0.0.0/0", "1.2.3.0/24", "1.2.3.0/25", "1.2.3.4/32", "2.0.0.0/8", "255.255.255.255/32",
		"::/0", "::/128", "::1/128", "0::1/128", "::ffff:1.2.3.4/128", "::ffff:1.2.3.0/120", "2001:db8::/32",
		"2001:db8::/48", "2001:0db8::/32", "ffff::/16", "", "bogus", "1.2.3.0/33", "x/24"}
	for _, a := range ps {
		for _, b := range ps {
			if got, want := ParsePrefixKey(a).order(ParsePrefixKey(b)), ref(a, b); got != want {
				t.Errorf("order(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
	}
}
