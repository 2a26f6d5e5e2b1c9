package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// evolve produces day+1's document from day's with deterministic churn:
// some rows change sites, a few disappear, a few appear.
func evolve(d *Document, day int) *Document {
	out := d.DeepCopy()
	out.Date = "2024-03-22"
	out.GCount, out.MCount = 0, 0
	out.ProbesAnycastStage += 1000
	kept := out.Entries[:0]
	for i := range out.Entries {
		e := out.Entries[i]
		if (i+day)%11 == 0 {
			continue // withdrawn
		}
		if (i+day)%5 == 0 && e.GCDAnycast {
			e.GCDSites += 2 // deployment growth
		}
		if e.GCDAnycast {
			out.GCount++
		} else if len(e.ACProtocols) > 0 {
			out.MCount++
		}
		kept = append(kept, e)
	}
	out.Entries = kept
	// A couple of new prefixes, placed anywhere; re-sort canonically.
	for i := 0; i < 3; i++ {
		out.Entries = append(out.Entries, DocumentEntry{
			Prefix:      "8." + itoa(day%200) + "." + itoa(i) + ".0/24",
			OriginASN:   65000,
			ACProtocols: []string{"ICMP"},
			GCDMeasured: true,
			GCDAnycast:  true,
			GCDSites:    2,
			GCDCities:   []string{"London"},
		})
		out.GCount++
	}
	sortEntriesCanonical(out)
	return out
}

// TestDeltaRoundTrip packs a chain of evolving documents into deltas as
// the archive writer does and proves each day reconstructs byte-for-byte
// when its stored delta is read back.
func TestDeltaRoundTrip(t *testing.T) {
	prev := synthDoc(0, 60)
	for day := 1; day <= 12; day++ {
		cur := evolve(prev, day)
		back, delta := rowRoundTrip(t, prev, cur)
		var want, got bytes.Buffer
		if err := cur.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if err := back.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("day %d: delta apply did not reproduce the document", day)
		}
		if len(delta.upserts) >= len(cur.Entries) {
			t.Fatalf("day %d: delta degenerated to a full snapshot (%d upserts / %d entries)",
				day, len(delta.upserts), len(cur.Entries))
		}
		prev = cur
	}
}

// rowRoundTrip diffs two days as the archive writer does (their
// canonical bytes split, then DiffRows), stores the delta as bytes and
// reads it back onto the previous day's rows as the archive walk does.
// It returns the day that rebuilds, decoded, and the delta.
func rowRoundTrip(t *testing.T, prev, cur *Document) (*Document, *RowDelta) {
	t.Helper()
	delta, err := DiffRows(splitCanonical(t, prev), splitCanonical(t, cur))
	if err != nil {
		t.Fatal(err)
	}
	b, err := delta.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := SplitDelta(b, new(RowArena))
	if err != nil {
		t.Fatal(err)
	}
	day, err := rd.Apply(splitCanonical(t, prev))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := new(RowDecoder).Document(day)
	if err != nil {
		t.Fatal(err)
	}
	return doc, delta
}

// applyBoth applies d to prev with the reference Apply
// (delta_ref_test.go) and the way the archive walk does — both as stored
// bytes, split into rows and merged — and fails unless the two give the
// same error or documents with the same bytes.
func applyBoth(t *testing.T, d *DocumentDelta, prev *Document) (*Document, error) {
	t.Helper()
	want, werr := d.Apply(prev)
	b, err := refDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	day := splitCanonical(t, prev)
	rd, err := SplitDelta(b, new(RowArena))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Apply(day)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("Apply fails with %v, the row merge with %v", werr, err)
	}
	if werr == nil {
		line, err := got.AppendJSON(nil)
		wantLine, werr := json.Marshal(want)
		if err != nil || werr != nil || !bytes.Equal(line, wantLine) {
			t.Fatalf("the row merge's day (%v)\n%s\nApply's (%v)\n%s", err, line, werr, wantLine)
		}
	}
	return want, werr
}

// TestDeltaStrictness rejects deltas applied to the wrong base, through
// the reference Apply and the row merge alike.
func TestDeltaStrictness(t *testing.T) {
	a := synthDoc(0, 30)
	b := evolve(a, 1)
	delta := DiffDocuments(a, b)

	wrongFam := a.DeepCopy()
	wrongFam.Family = "ipv6"
	if _, err := applyBoth(t, delta, wrongFam); err == nil {
		t.Fatal("family mismatch accepted")
	}

	if len(delta.Removed) > 0 {
		stripped := a.DeepCopy()
		kept := stripped.Entries[:0]
		for _, e := range stripped.Entries {
			if e.Prefix != delta.Removed[0] {
				kept = append(kept, e)
			}
		}
		stripped.Entries = kept
		if _, err := applyBoth(t, delta, stripped); err == nil {
			t.Fatal("removal of an absent prefix accepted")
		}
		slices.Reverse(stripped.Entries) // out of canonical order: no ordered pass
		if _, err := applyBoth(t, delta, stripped); err == nil {
			t.Fatal("removal of an absent prefix from a day out of order accepted")
		}
	}
}

// TestDeltaNamesEachPrefixOnce: a delta that names a prefix twice —
// upserts it twice, removes it twice, or removes and upserts it — does
// not belong to any chain (DiffRows never writes one), so the reference
// Apply and the row merge refuse it with one message naming the prefix rather than
// returning a document with two rows for it or a silently replaced row.
func TestDeltaNamesEachPrefixOnce(t *testing.T) {
	prev := synthDoc(0, 4)
	reversed := prev.DeepCopy() // out of canonical order: no ordered pass
	slices.Reverse(reversed.Entries)
	present, absent := prev.Entries[1].Prefix, "198.51.100.0/24"
	if prev.Find(absent) != nil {
		t.Fatalf("fixture carries %s", absent)
	}
	row := func(prefix string, sites int) DocumentEntry {
		return DocumentEntry{Prefix: prefix, GCDSites: sites}
	}
	for name, tc := range map[string]struct {
		removed []string
		upserts []DocumentEntry
		want    string
	}{
		"new prefix upserted twice":     {nil, []DocumentEntry{row(absent, 1), row(absent, 2)}, `core: delta upserts "` + absent + `" twice`},
		"carried prefix upserted twice": {nil, []DocumentEntry{row(present, 1), row(present, 2)}, `core: delta upserts "` + present + `" twice`},
		"removed and upserted":          {[]string{present}, []DocumentEntry{row(present, 1)}, `core: delta both removes and upserts "` + present + `"`},
		"removed twice":                 {[]string{present, present}, nil, `core: delta removes "` + present + `" twice`},
	} {
		d := &DocumentDelta{Header: Document{Family: prev.Family}, Removed: tc.removed, Upserts: tc.upserts}
		if _, err := applyBoth(t, d, prev); fmt.Sprint(err) != tc.want {
			t.Errorf("%s: Apply error %v, want %s", name, err, tc.want)
		}
		if _, err := applyBoth(t, d, reversed); fmt.Sprint(err) != tc.want {
			t.Errorf("%s, previous day out of order: Apply error %v, want %s", name, err, tc.want)
		}
	}
}

// TestDeltaToEmptyDay reconstructs a fully-withdrawn day byte-for-byte:
// the result must carry nil entries (canonical `"entries": null`), not
// an empty slice (`[]`).
func TestDeltaToEmptyDay(t *testing.T) {
	a := synthDoc(0, 10)
	b := a.DeepCopy()
	b.Date = "2024-03-22"
	b.Entries = nil
	b.GCount, b.MCount = 0, 0
	back, _ := rowRoundTrip(t, a, b)
	if back.Entries != nil {
		t.Fatalf("empty day reconstructed with non-nil entries (len %d)", len(back.Entries))
	}
	var want, got bytes.Buffer
	if err := b.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("empty-day delta not byte-identical:\nwant %q\ngot  %q", want.String(), got.String())
	}
}

// TestDeltaEmpty handles the no-change day: the delta carries only the
// header and applies cleanly.
func TestDeltaEmpty(t *testing.T) {
	a := synthDoc(0, 20)
	b := a.DeepCopy()
	b.Date = "2024-03-22"
	back, delta := rowRoundTrip(t, a, b)
	if len(delta.removed) != 0 || len(delta.upserts) != 0 {
		t.Fatalf("no-change delta carries %d removals, %d upserts", len(delta.removed), len(delta.upserts))
	}
	var want, got bytes.Buffer
	if err := b.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("empty delta did not reproduce the document")
	}
}

// linearFind is the oracle for Find: the scan it replaced.
func linearFind(d *Document, prefix string) *DocumentEntry {
	for i := range d.Entries {
		if d.Entries[i].Prefix == prefix {
			return &d.Entries[i]
		}
	}
	return nil
}

// checkFind compares Find with the linear scan on every row of the
// document (first and last included), on each row's neighbours in prefix
// space — one bit longer, one bit shorter, the adjacent blocks — and on
// probes ordered before and after everything a census can carry; and
// RowDay.Find over the document's rows with the scan on the same probes.
func checkFind(t *testing.T, d *Document, extra ...string) {
	t.Helper()
	probes := append([]string{
		"0.0.0.0/0", "255.255.255.255/32", "::/0", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
		"", "not-a-prefix",
	}, extra...)
	for i := range d.Entries {
		p := d.Entries[i].Prefix
		probes = append(probes, p)
		pfx, err := netip.ParsePrefix(p)
		if err != nil {
			continue
		}
		for _, bits := range []int{pfx.Bits() - 1, pfx.Bits() + 1} {
			if n := netip.PrefixFrom(pfx.Addr(), bits); n.IsValid() {
				probes = append(probes, n.String())
			}
		}
		if last := lastAddr(pfx); last.Next().IsValid() {
			probes = append(probes, netip.PrefixFrom(last.Next(), pfx.Bits()).String())
		}
		if prev := pfx.Addr().Prev(); prev.IsValid() {
			probes = append(probes, netip.PrefixFrom(prev, pfx.Bits()).Masked().String())
		}
	}
	rows := &RowDay{rows: decodedRows(d.Entries)}
	for _, p := range probes {
		want := linearFind(d, p)
		if got := d.Find(p); got != want {
			t.Fatalf("Find(%q) = %v, linear scan finds %v", p, got, want)
		}
		if got, ok, err := rows.Find(p); err != nil || ok != (want != nil) || ok && !reflect.DeepEqual(got, *want) {
			t.Fatalf("RowDay.Find(%q) = %v, %v, %v; linear scan finds %v", p, got, ok, err, want)
		}
	}
}

// lastAddr returns the highest address inside the prefix.
func lastAddr(p netip.Prefix) netip.Addr {
	b := p.Addr().AsSlice()
	for i := p.Bits(); i < len(b)*8; i++ {
		b[i/8] |= 0x80 >> (i % 8)
	}
	a, _ := netip.AddrFromSlice(b)
	return a
}

// TestFindMatchesLinearScan: the binary search agrees with the scan it
// replaced on empty, one-row and evolving synthetic documents and on one
// mixing prefix lengths and both families (same address at several
// lengths, adjacent blocks, v4 sorting before v6).
func TestFindMatchesLinearScan(t *testing.T) {
	checkFind(t, &Document{})
	checkFind(t, synthDoc(0, 1))
	d := synthDoc(0, 60)
	for day := 1; day <= 4; day++ {
		checkFind(t, d)
		d = evolve(d, day)
	}
	mixed := &Document{Family: "ipv4"}
	for _, p := range []string{
		"10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24", "10.0.1.0/24", "2.0.0.0/24", "100.64.0.0/10",
		"192.0.2.0/24", "192.0.2.128/25", "203.0.113.7/32", "0.0.0.0/8", "255.255.255.0/24",
		"2001:db8::/32", "2001:db8::/48", "2001:db8:0:1::/64", "2a0a::/29", "::/8", "ff00::/8",
		"2001:db8::1/128",
	} {
		mixed.Entries = append(mixed.Entries, DocumentEntry{Prefix: p, OriginASN: uint32(len(mixed.Entries))})
	}
	sortEntriesCanonical(mixed)
	checkFind(t, mixed)
	if e := mixed.Find("10.0.0.0/16"); e == nil || e.Prefix != "10.0.0.0/16" {
		t.Fatalf("Find(10.0.0.0/16) = %v", e)
	}
	if first, last := mixed.Find("0.0.0.0/8"), mixed.Find("ff00::/8"); first != &mixed.Entries[0] || last != &mixed.Entries[len(mixed.Entries)-1] {
		t.Fatal("first or last row not found at its own position")
	}
}

// FuzzDocumentFind: for any set of prefix strings — parsable or not —
// held in canonical order without duplicates, Find and the linear scan
// agree on every row and on an arbitrary needle.
func FuzzDocumentFind(f *testing.F) {
	f.Add("10.0.0.0/24\n2.0.0.0/24\n10.0.0.0/8\n2001:db8::/32\n2a0a::/29", "2.0.0.0/24")
	f.Add("192.0.2.0/24\nnot-a-prefix\n\n::1/128\n0:0::1/128", "0::1/128")
	f.Add("", "10.0.0.0/24")
	f.Fuzz(func(t *testing.T, lines, needle string) {
		d := &Document{}
		for _, p := range strings.Split(lines, "\n") {
			d.Entries = append(d.Entries, DocumentEntry{Prefix: p})
		}
		// Canonical form: ordered, and no two rows the order cannot tell
		// apart (the census never publishes two spellings of one prefix).
		slices.SortStableFunc(d.Entries, func(a, b DocumentEntry) int { return ComparePrefixStrings(a.Prefix, b.Prefix) })
		d.Entries = slices.CompactFunc(d.Entries, func(a, b DocumentEntry) bool { return ComparePrefixStrings(a.Prefix, b.Prefix) == 0 })
		checkFind(t, d, needle)
	})
}
