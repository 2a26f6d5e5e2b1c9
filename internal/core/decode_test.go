package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// decodeFixture is a governed snapshot of n rows and the delta that
// follows it (rows changed, removed and added), in the writer's bytes:
// a snapshot is StreamDocument's output, a delta is compact
// json.Marshal plus a newline.
func decodeFixture(t testing.TB, n int) (prev *Document, snap, delta []byte) {
	t.Helper()
	prev = synthDoc(3, n)
	prev.Responsibility = &Responsibility{ProbesDemanded: 9, ProbesSpent: 7, ProbesSkipped: 2, BudgetRemaining: -1, RateSteps: 1, RateEffective: 1250.5}
	cur := synthDoc(4, n+n/10)
	cur.Entries = cur.Entries[:len(cur.Entries)-n/5]
	var buf bytes.Buffer
	if err := StreamDocument(&buf, prev); err != nil {
		t.Fatal(err)
	}
	d, err := json.Marshal(DiffDocuments(prev, cur))
	if err != nil {
		t.Fatal(err)
	}
	return prev, buf.Bytes(), append(d, '\n')
}

// readDocument reads the snapshot b as archive.ReadDay does: split and
// its rows decoded, or, when a row is outside the row grammar, decoded
// whole by encoding/json.
func readDocument(b []byte) (*Document, error) {
	d, err := SplitDocument(b, new(RowArena))
	if err != nil {
		return nil, err
	}
	doc, err := new(RowDecoder).Document(d)
	if err != nil {
		doc = new(Document)
		if err := json.Unmarshal(b, doc); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// checkDecodeDocument holds the row path a snapshot is read by —
// SplitDocument, then RowDecoder, with ReadDay's fallback — to
// encoding/json on b: the same document or an error exactly when
// encoding/json fails, whose message SplitDocument's own fallback keeps.
// Where every row the split finds decodes, the split's rows, not
// decoded, give json.Marshal's compact line and StreamDocument's
// canonical bytes (checkCanonical). The split and RowDecoder are held to
// the reference splitter (checkSplitMatchesReference).
func checkDecodeDocument(t *testing.T, b []byte) {
	checkSplitMatchesReference(t, b, true)
	var want Document
	jerr := json.Unmarshal(b, &want)
	got, err := readDocument(b)
	if jerr != nil {
		if err == nil {
			t.Fatalf("the row path decodes %+v; encoding/json fails with %v", got, jerr)
		}
		if _, serr := SplitDocument(b, new(RowArena)); serr != nil && serr.Error() != "core: decoding census document: "+jerr.Error() {
			t.Fatalf("SplitDocument fails with %v, encoding/json with %v", serr, jerr)
		}
		return
	}
	if err != nil {
		t.Fatalf("the row path fails with %v, encoding/json decodes %+v", err, want)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("the row path's document\n%+v\nencoding/json's\n%+v", got, want)
	}
	d, err := SplitDocument(b, new(RowArena))
	if err != nil || !decodesAll(d.rows) {
		return
	}
	checkCanonical(t, d, &want)
	line, err := d.AppendJSON(nil)
	wantLine, werr := json.Marshal(&want)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !bytes.Equal(line, wantLine) {
		t.Fatalf("the split's line (%v)\n%s\njson.Marshal's (%v)\n%s", err, line, werr, wantLine)
	}
}

// edit returns b with the first from replaced by to, failing the test
// when b has no from (a seed that edits nothing tests nothing).
func edit(t testing.TB, b []byte, from, to string) []byte {
	t.Helper()
	if !bytes.Contains(b, []byte(from)) {
		t.Fatalf("fixture has no %q", from)
	}
	return bytes.Replace(b, []byte(from), []byte(to), 1)
}

// decodeSeeds are the writer's own bytes and edits of them on both sides
// of the scanner's grammar: escapes, raw and invalid UTF-8, control
// bytes, nulls, repeated, unknown and upper-case keys, numbers at and
// past the integer ranges or with a fraction or exponent, empty arrays,
// truncation and trailing bytes. sep separates a key from its value:
// `: ` in the indented snapshot, `:` in the compact delta.
func decodeSeeds(t testing.TB, b []byte, sep string) [][]byte {
	field := func(k, v string) string { return `"` + k + `"` + sep + v }
	return [][]byte{
		b,
		edit(t, b, `"Tokyo"`, `"Toky\u00e9"`),
		edit(t, b, `"Tokyo"`, `"Toky\"o\n"`),
		edit(t, b, `"Tokyo"`, "\"Tokyé\""),
		edit(t, b, `"Tokyo"`, "\"Tok\xffyo\""),
		edit(t, b, `"Tokyo"`, "\"Tok\tyo\""),
		edit(t, b, `"ICMP"`, "null"),
		edit(t, b, field("origin_asn", "64500"), field("origin_asn", "null")),
		edit(t, b, field("origin_asn", "64500"), field("origin_asn", "1e2")),
		edit(t, b, field("origin_asn", "64500"), field("origin_asn", "100.0")),
		edit(t, b, field("origin_asn", "64500"), field("origin_asn", "-1")),
		edit(t, b, field("origin_asn", "64500"), field("origin_asn", "4294967295")),
		edit(t, b, field("origin_asn", "64500"), field("origin_asn", "4294967296")),
		edit(t, b, field("origin_asn", "64500"), field("origin_asn", "064500")),
		edit(t, b, field("gcd_sites", "2"), field("gcd_sites", "-9223372036854775808")),
		edit(t, b, field("gcd_sites", "2"), field("gcd_sites", "9223372036854775808")),
		edit(t, b, field("gcd_sites", "2"), field("gcd_sites", "-0")),
		edit(t, b, field("gcd_measured", "true"), field("gcd_measured", "true")+","+field("gcd_measured", "false")),
		edit(t, b, field("prefix", `"`), field("Prefix", `"`)),
		edit(t, b, field("prefix", `"`), field("unknown", "[1],")+field("prefix", `"`)),
		edit(t, b, field("prefix", `"`), field("gcd_cities", "[]")+","+field("prefix", `"`)),
		edit(t, b, field("gcd_measured", "true"), field("gcd_measured", "tru")),
		append(bytes.Clone(b), "x"...),
		append(bytes.Clone(b), "{}"...),
		b[:len(b)/2],
		[]byte("[]"),
		[]byte("{}"),
		[]byte("null"),
		nil,
	}
}

// FuzzDecodeDocument: on any bytes the split does not panic, the row
// path a snapshot is read by agrees with encoding/json, and the split
// and RowDecoder accept and split exactly what the reference splitter
// does.
func FuzzDecodeDocument(f *testing.F) {
	_, snap, _ := decodeFixture(f, 10)
	seeds := decodeSeeds(f, snap, ": ")
	var empty bytes.Buffer
	if err := StreamDocument(&empty, &Document{Family: "ipv6"}); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds,
		empty.Bytes(),
		edit(f, empty.Bytes(), `"entries": null`, `"entries": []`),
		edit(f, empty.Bytes(), `"entries": null`, `"ENTRIES": [], "entries": null`),
		edit(f, snap, `"date"`, `"Date"`),
		edit(f, snap, `"date"`, `"entries": null, "date"`),
		edit(f, snap, `"responsibility": {`, `"responsibility": null, "responsibility": {`),
		edit(f, snap, "\n  ]\n}", "\n  ], \"date\": \"x\"\n}"),
		edit(f, snap, `"date": "`, `"date": "`+strings.Repeat("x", 5<<10)), // a header past Canonical's allowance
		edit(f, snap, `"Tokyo"`, `"To}kyo"`),                               // a '}' in a name
		[]byte(`{"entries":[{}]}`),
		[]byte(`{"entries":[{"prefix":"10.0.0.0/24","gcd_cities":[]}]}`),
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecodeDocument(t, b) })
}

// deltaSeeds are decodeSeeds for the fixture's delta, with edits of its
// three fields and deltas that name a prefix of prev twice.
func deltaSeeds(t testing.TB, prev *Document, delta []byte) [][]byte {
	return append(decodeSeeds(t, delta, ":"),
		edit(t, delta, `"removed":[`, `"removed":[],"x":[`),
		edit(t, delta, `"removed":[`, `"upserts":null,"removed":[`),
		edit(t, delta, `"header":{`, `"header":{"entries":[{}],`),
		edit(t, delta, `"header":`, `"header":{},"header":`),
		[]byte(`{"header":{"family":"ipv4"},"removed":[],"upserts":[]}`),
		[]byte(`{"header":{"family":"ipv4"},"removed":["10.0.0.0/24","10.0.0.0/24"],"upserts":[{"prefix":"1.0.0.0/8"}]}`),
		// A prefix named twice: Apply refuses all three.
		[]byte(`{"header":{"family":"ipv4"},"upserts":[{"prefix":"1.0.1.0/24","gcd_sites":1},{"prefix":"1.0.1.0/24","gcd_sites":2}]}`),
		[]byte(`{"header":{"family":"ipv4"},"removed":["`+prev.Entries[0].Prefix+`"],"upserts":[{"prefix":"`+prev.Entries[0].Prefix+`"}]}`),
		[]byte(`{"header":{"family":"ipv4"},"removed":["`+prev.Entries[0].Prefix+`","`+prev.Entries[0].Prefix+`"]}`),
	)
}

// FuzzDecodeDelta: on any bytes the row path a delta is read by —
// SplitDelta, then RowDecoder.Delta, with ReadDay's fallback — does not
// panic and agrees with encoding/json: the same delta, nil and empty
// lists kept apart, or an error exactly when encoding/json fails.
func FuzzDecodeDelta(f *testing.F) {
	prev, _, delta := decodeFixture(f, 10)
	for _, s := range deltaSeeds(f, prev, delta) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecodeDelta(t, b) })
}

// readDelta reads the delta b as archive.ReadDay does, as readDocument
// reads a snapshot.
func readDelta(b []byte) (*DocumentDelta, error) {
	d, err := SplitDelta(b, new(RowArena))
	if err != nil {
		return nil, err
	}
	dd, err := new(RowDecoder).Delta(d)
	if err != nil {
		dd = new(DocumentDelta)
		if err := json.Unmarshal(b, dd); err != nil {
			return nil, err
		}
		dd.Header.Entries = nil
	}
	return dd, nil
}

// checkDecodeDelta holds the row path a delta is read by to
// encoding/json on b, as checkDecodeDocument holds a snapshot's, and
// returns b split, nil when encoding/json refuses b.
func checkDecodeDelta(t *testing.T, b []byte) *RowDelta {
	var want DocumentDelta
	jerr := json.Unmarshal(b, &want)
	got, err := readDelta(b)
	d, serr := SplitDelta(b, new(RowArena))
	if jerr != nil {
		if err == nil {
			t.Fatalf("the row path decodes %+v; encoding/json fails with %v", got, jerr)
		}
		if serr != nil && serr.Error() != "core: decoding census delta: "+jerr.Error() {
			t.Fatalf("SplitDelta fails with %v, encoding/json with %v", serr, jerr)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("the row path fails with %v, encoding/json decodes %+v", err, want)
	}
	want.Header.Entries = nil // a split delta's header carries no rows
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("the row path's delta\n%+v\nencoding/json's\n%+v", got, want)
	}
	return d
}

// FuzzSplitDelta: on any delta bytes against the fixture's previous day,
// the split does not panic; the archive walk's row path (SplitDelta,
// then RowDelta.Apply), where every upsert decodes, fails exactly when
// encoding/json and the reference Apply (delta_ref_test.go) do, with the
// same error, and otherwise gives the same compact line, canonical bytes
// and document, and where an upsert does not decode, the day it rebuilds
// does not decode either; the row path with ReadDay's fallback reads the
// delta as encoding/json does; the split and RowDecoder accept and split
// exactly what the reference splitter does; and a found upsert that
// re-indents to its entry's indented encoding is its entry's compact
// encoding (checkReindentIsOneToOne). The extra seeds are valid JSON but
// not in the writer's form, which RowDecoder refuses and ReadDay leaves
// to encoding/json.
func FuzzSplitDelta(f *testing.F) {
	prev, snap, delta := decodeFixture(f, 10)
	seeds := append(deltaSeeds(f, prev, delta),
		edit(f, delta, `"origin_asn":`, `"origin_asn": `),
		edit(f, delta, `"gcd_sites":`, `"gcd_sites": `),
		edit(f, delta, `,"gcd_sites"`, `, "gcd_sites"`),
		edit(f, delta, `,"gcd_sites"`, ",\n\"gcd_sites\""),
		edit(f, delta, `,"origin_asn":64500`, ``),
		edit(f, delta, `"gcd_measured":true,`, `"from_feedback":false,"gcd_measured":true,`),
		edit(f, delta, `"gcd_measured":true,`, `"gcd_sites":0,"gcd_measured":true,`),
		edit(f, delta, `"gcd_measured":true,"gcd_anycast":true`, `"gcd_anycast":true,"gcd_measured":true`),
		edit(f, delta, `"Tokyo"`, `"Tok<yo"`),
		edit(f, delta, `"Tokyo"`, "\"Tok\u2028yo\""),
		edit(f, delta, `"Tokyo"`, `"Tokyo","Tokyo"`),
		edit(f, delta, `"Tokyo"`, `"To}kyo","}]}"`), // a '}' in a name, which only the split's quote count tells from a row's end
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkSplitDelta(t, snap, b) })
}

// checkSplitDelta holds the row path to encoding/json and the reference
// Apply for delta bytes b against the snapshot snap, the day's canonical
// bytes rebuilt from rows to StreamDocument of the reference's document,
// the split of b and RowDecoder to the reference splitter, each upsert
// in the row grammar to checkReindent and checkRowDecode, and each upsert
// the split finds to checkReindentIsOneToOne.
func checkSplitDelta(t *testing.T, snap, b []byte) {
	checkSplitMatchesReference(t, b, false)
	checkReindentIsOneToOne(t, b)
	var prev Document
	if err := json.Unmarshal(snap, &prev); err != nil {
		t.Fatal(err)
	}
	var want DocumentDelta
	var wantDoc *Document
	werr := json.Unmarshal(b, &want)
	if werr != nil {
		werr = fmt.Errorf("core: decoding census delta: %w", werr)
	} else {
		wantDoc, werr = want.Apply(&prev)
	}
	day, err := SplitDocument(snap, new(RowArena))
	if err != nil {
		t.Fatal(err)
	}
	var got *RowDay
	gerr := werr
	d := checkDecodeDelta(t, b)
	if d != nil {
		got, gerr = d.Apply(day)
		if !decodesAll(d.upserts) {
			if gerr == nil {
				if _, err := new(RowDecoder).Document(got); err == nil {
					t.Fatalf("the day rebuilt with an upsert outside the row grammar decodes\n%q", b)
				}
			}
			return
		}
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("the row path fails with %v, encoding/json and Apply with %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	checkCanonical(t, got, wantDoc)
	line, err := got.AppendJSON(nil)
	wantLine, lerr := json.Marshal(wantDoc)
	if fmt.Sprint(err) != fmt.Sprint(lerr) || !bytes.Equal(line, wantLine) {
		t.Fatalf("the row path's line (%v)\n%s\njson.Marshal's (%v)\n%s", err, line, lerr, wantLine)
	}
	if doc, err := new(RowDecoder).Document(got); err != nil || !reflect.DeepEqual(doc, wantDoc) {
		t.Fatalf("the row path's document (%v)\n%+v\nApply's\n%+v", err, doc, wantDoc)
	}
	if rows, ok := scanRows(b, false); ok { // d's upserts, each in the row grammar
		for _, r := range rows {
			checkReindent(t, r)
			checkRowDecode(t, r)
		}
	}
}

// checkReindentIsOneToOne holds, for each upsert the split finds in the
// delta b, the property a delta's proof rests on: a row that re-indents
// (appendIndented) to what appendEntry writes in the indented layout for
// json.Unmarshal's entry of it is that entry's compact encoding. So a
// delta day whose re-indented canonical bytes match its record holds
// only canonical compact rows.
func checkReindentIsOneToOne(t *testing.T, b []byte) {
	t.Helper()
	rows, ok := scanRows(b, false)
	if !ok {
		return
	}
	for _, r := range rows {
		var e DocumentEntry
		if json.Unmarshal(r.raw, &e) != nil {
			continue
		}
		if bytes.Equal(appendIndented(nil, r.raw), appendEntry(nil, &e, &indentLayout)) {
			if compact := appendEntry(nil, &e, &compactLayout); !bytes.Equal(r.raw, compact) {
				t.Fatalf("the row\n%s\nre-indents to its entry's indented encoding, but its compact encoding is\n%s", r.raw, compact)
			}
		}
	}
}

// checkCanonical holds d's canonical form to StreamDocument of want, the
// document d decodes to: the same bytes or the same error, and rows that
// alias the bytes, one per entry.
func checkCanonical(t *testing.T, d *RowDay, want *Document) {
	t.Helper()
	var buf bytes.Buffer
	werr := StreamDocument(&buf, want)
	c, err := d.Canonical(0)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("Canonical fails with %v, StreamDocument with %v", err, werr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(c.Bytes(), buf.Bytes()) {
		t.Fatalf("the canonical bytes rebuilt from rows\n%s\nStreamDocument's\n%s", c.Bytes(), buf.Bytes())
	}
	if (c.day.rows == nil) != (want.Entries == nil) || len(c.day.rows) != len(want.Entries) {
		t.Fatalf("%d rows rebuilt for %d entries", len(c.day.rows), len(want.Entries))
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(c.Bytes())))
	end := start + uintptr(len(c.Bytes()))
	for i, r := range c.day.rows {
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(r.raw))); r.raw != nil && (!r.indented || p < start || p+uintptr(len(r.raw)) > end) {
			t.Fatalf("row %d does not alias the canonical bytes", i)
		}
		if r.key.s != want.Entries[i].Prefix {
			t.Fatalf("row %d is keyed %q, entry %q", i, r.key.s, want.Entries[i].Prefix)
		}
	}
}

// TestDecodeAllocations pins what reading a row costs on the row path:
// the row's share of the split's arena and prefix string, of the decoded
// entries and of the name chunks, and the per-file header decode spread
// over the rows. encoding/json spends 4.7 (snapshot) and 5.8 (delta)
// allocations per row on the same bytes.
func TestDecodeAllocations(t *testing.T) {
	_, snap, delta := decodeFixture(t, 400)
	rows, ok := scanRows(snap, true)
	upserts, dok := scanRows(delta, false)
	if !ok || !dok {
		t.Fatal("the split left a fixture file to encoding/json")
	}
	dd, err := SplitDelta(delta, new(RowArena))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rows int
		run  func()
	}{
		{"snapshot", len(rows), func() {
			d, _ := SplitDocument(snap, new(RowArena))
			if _, err := new(RowDecoder).Document(d); err != nil {
				t.Fatal(err)
			}
		}},
		{"delta", len(upserts) + len(dd.removed), func() {
			d, _ := SplitDelta(delta, new(RowArena))
			if _, err := new(RowDecoder).Delta(d); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		perRow := testing.AllocsPerRun(20, c.run) / float64(c.rows)
		t.Logf("%s: %d rows, %.2f allocations per row", c.name, c.rows, perRow)
		if perRow > 1.3 {
			t.Errorf("%s: %.2f allocations per decoded row, want ≤ 1.3", c.name, perRow)
		}
	}
}

// TestFindAllocations pins what RowDay.Find costs on a split row: one
// copy of the row for its names and one chunk for its name lists,
// nothing interned, and nothing for a row without names. Interning the
// names (a map per call, and a list grown name by name) cost 9
// allocations on a row with four names.
func TestFindAllocations(t *testing.T) {
	_, snap, _ := decodeFixture(t, 30)
	if _, ok := scanRows(snap, true); !ok {
		t.Fatal("the split left the fixture snapshot to encoding/json")
	}
	day, err := SplitDocument(snap, new(RowArena))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range day.rows[:3] {
		e, ok, err := day.Find(r.key.s)
		if !ok || err != nil {
			t.Fatalf("Find(%q) = %v, %v", r.key.s, ok, err)
		}
		want := 0.0
		if len(e.ACProtocols)+len(e.GCDCities) > 0 {
			want = 2
		}
		if n := testing.AllocsPerRun(50, func() { day.Find(r.key.s) }); n > want {
			t.Errorf("Find(%q), %d+%d names: %.0f allocations, want ≤ %.0f", r.key.s, len(e.ACProtocols), len(e.GCDCities), n, want)
		}
	}
}
