package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// fuzzNames is the name list bits b choose: nil, empty, one name or two.
func fuzzNames(b uint16, a, c string) []string {
	switch b & 3 {
	case 1:
		return []string{}
	case 2:
		return []string{a}
	case 3:
		return []string{a, c}
	}
	return nil
}

// fuzzDocument builds a document and a delta from fuzzed fields. flags
// picks nil or empty name lists and entries, the booleans per row, a
// governance block and header rows in the delta.
func fuzzDocument(date, prefix, proto, city, removed string, asn uint32, vps, sites int64, flags uint16, rows uint8) (*Document, *DocumentDelta) {
	d := &Document{Date: date, Family: "ipv4", HitlistSize: int(vps), Workers: int(sites), ProbesAnycastStage: vps * sites}
	if flags&1 != 0 {
		d.Entries = []DocumentEntry{}
	}
	if flags&2 != 0 {
		d.Responsibility = &Responsibility{ProbesDemanded: vps, BudgetRemaining: -1, RateEffective: 0.5}
	}
	for i := range int(rows % 5) {
		f := flags >> (i + 2)
		d.Entries = append(d.Entries, DocumentEntry{
			Prefix:         prefix + city[:min(i, len(city))],
			OriginASN:      asn + uint32(i),
			ACProtocols:    fuzzNames(f, proto, city),
			MaxReceivers:   int(vps) - i,
			FromFeedback:   f&4 != 0,
			GCDMeasured:    f&8 != 0,
			GCDAnycast:     f&16 != 0,
			GCDSites:       int(sites) * i,
			GCDCities:      fuzzNames(f>>5, city, proto),
			GCDVPs:         int(sites - vps),
			PartialAnycast: f&128 != 0,
			GlobalBGP:      f&256 != 0,
		})
	}
	delta := &DocumentDelta{Header: *d, Removed: fuzzNames(flags>>12, removed, prefix), Upserts: d.Entries}
	if flags&(1<<14) == 0 {
		delta.Header.Entries = nil
	}
	return d, delta
}

// jsonRoundTrip is what decoding s's encoding gives back: invalid UTF-8
// comes back as U+FFFD.
func jsonRoundTrip(s string) string {
	b, _ := json.Marshal(s)
	var out string
	json.Unmarshal(b, &out)
	return out
}

// decodedForm is d as decoding its encoding returns it: strings through
// their JSON round trip, empty name lists omitted and so nil.
func decodedForm(d *Document) *Document {
	out := d.DeepCopy()
	out.Date, out.Family = jsonRoundTrip(out.Date), jsonRoundTrip(out.Family)
	names := func(ns []string) []string {
		if len(ns) == 0 {
			return nil
		}
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = jsonRoundTrip(n)
		}
		return out
	}
	for i := range out.Entries {
		e := &out.Entries[i]
		e.Prefix = jsonRoundTrip(e.Prefix)
		e.ACProtocols, e.GCDCities = names(e.ACProtocols), names(e.GCDCities)
	}
	return out
}

// FuzzEncodeDocument: the canonical document, the compact /v1/range line
// and the delta file are byte for byte what encoding/json writes, over
// escapes, control bytes, <>&, U+2028/U+2029, invalid UTF-8, negative
// and large numbers, and nil against empty lists and entries; and the
// canonical bytes decode back to the document.
func FuzzEncodeDocument(f *testing.F) {
	f.Add("2024-03-21", "10.0.0.0/24", "ICMP", "Amsterdam", "2.0.0.0/24", uint32(64500), int64(7), int64(3), uint16(0xffff), uint8(3))
	f.Add("", "", "", "", "", uint32(0), int64(0), int64(0), uint16(0), uint8(0))
	f.Add("d", "p", "x", "c", "r", uint32(0), int64(0), int64(0), uint16(1), uint8(0))
	f.Add("2024\n\"x\"", "<a>&b", "\\", "São Paulo\u2028", "\u2029", uint32(math.MaxUint32), int64(math.MinInt64), int64(math.MaxInt64), uint16(0x5a5a), uint8(4))
	f.Add("\xff\xfe", "1.2.3.0/24\x00", "\t\b\f\r", "Tok\xe2\x80yo", "\x7fé\U0001F600", uint32(1), int64(-1), int64(-2), uint16(0xa5a5), uint8(2))
	f.Fuzz(func(t *testing.T, date, prefix, proto, city, removed string, asn uint32, vps, sites int64, flags uint16, rows uint8) {
		doc, delta := fuzzDocument(date, prefix, proto, city, removed, asn, vps, sites, flags, rows)

		want, err := refIndented(doc)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := StreamDocument(&got, doc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("canonical document\ngot:  %q\nwant: %q", got.Bytes(), want)
		}

		want, err = refCompact(doc)
		if err != nil {
			t.Fatal(err)
		}
		line, err := doc.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if line = append(line, '\n'); !bytes.Equal(line, want) {
			t.Fatalf("compact line\ngot:  %q\nwant: %q", line, want)
		}

		want, err = refDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := delta.AppendJSON(nil); err != nil || !bytes.Equal(d, want) {
			t.Fatalf("delta (%v)\ngot:  %q\nwant: %q", err, d, want)
		}

		back, err := DecodeDocument(got.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if norm := decodedForm(doc); !reflect.DeepEqual(back, norm) {
			t.Fatalf("decoded\ngot:  %+v\nwant: %+v", back, norm)
		}
	})
}

// TestEncodeAllocations pins what encoding costs: a constant number of
// allocations per document or delta, whatever its row count. A document
// makes five: the header's copy, its json.Marshal and MarshalIndent
// renders, the writer and the writer's buffer. A delta appended into a
// buffer that has room makes two: its header's copy and its render.
// encoding/json allocated per row.
func TestEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds its contents under the race detector")
	}
	for _, rows := range []int{10, 1000} {
		doc := synthDoc(3, rows)
		n := testing.AllocsPerRun(20, func() { StreamDocument(io.Discard, doc) })
		t.Logf("StreamDocument, %d rows: %.0f allocations", rows, n)
		if n > 5 {
			t.Errorf("StreamDocument of %d rows: %.0f allocations, want ≤ 5", rows, n)
		}
	}
	for _, upserts := range []int{10, 200} {
		delta := DiffDocuments(&Document{Family: "ipv4"}, synthDoc(4, upserts))
		buf, _ := delta.AppendJSON(nil)
		n := testing.AllocsPerRun(20, func() { buf, _ = delta.AppendJSON(buf[:0]) })
		t.Logf("DocumentDelta.AppendJSON, %d upserts: %.0f allocations", upserts, n)
		if n > 2 {
			t.Errorf("DocumentDelta.AppendJSON of %d upserts: %.0f allocations, want ≤ 2", upserts, n)
		}
	}
}

// TestSortPrefixStrings holds the index's one-parse sort to the
// comparator it replaced, for every input order, and pins the order of
// distinct strings that parse to one prefix.
func TestSortPrefixStrings(t *testing.T) {
	want := []string{"2.0.0.0/24", "10.0.0.0/24", "10.0.0.0/25", "100.0.0.0/24", "0::1/128", "::1/128", "2001:db8::/32", "", "bogus", "x/24"}
	for rot := range want {
		ps := append(slices.Clone(want[rot:]), want[:rot]...)
		if rot%2 == 1 {
			slices.Reverse(ps)
		}
		SortPrefixStrings(ps)
		if !reflect.DeepEqual(ps, want) {
			t.Fatalf("rotation %d: %q", rot, ps)
		}
		if !sort.SliceIsSorted(ps, func(i, j int) bool { return ComparePrefixStrings(ps[i], ps[j]) < 0 }) {
			t.Fatalf("rotation %d: not in ComparePrefixStrings order: %q", rot, ps)
		}
	}
}
