package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
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

// checkDecodeDocument holds DecodeDocument and its scanner to
// encoding/json on b: the same document, or the same error. Whatever the
// scanner accepts, the archive's former streaming reader reads alike.
func checkDecodeDocument(t *testing.T, b []byte) {
	var want Document
	jerr := json.Unmarshal(b, &want)
	got, err := DecodeDocument(b)
	switch {
	case jerr != nil && (got != nil || err == nil || err.Error() != "core: decoding census document: "+jerr.Error()):
		t.Fatalf("DecodeDocument = %v, %v; encoding/json fails with %v", got, err, jerr)
	case jerr == nil && (err != nil || !reflect.DeepEqual(*got, want)):
		t.Fatalf("DecodeDocument = %+v, %v\nencoding/json: %+v", got, err, want)
	}
	scanned, ok := ScanDocument(b)
	if !ok {
		return
	}
	if jerr != nil {
		t.Fatalf("the scanner accepted what encoding/json rejects (%v)", jerr)
	}
	if !reflect.DeepEqual(*scanned, want) {
		t.Fatalf("ScanDocument = %+v\nencoding/json: %+v", scanned, want)
	}
	ref, err := refReadDocument(b)
	if err != nil {
		t.Fatalf("the scanner accepted what the former reader rejects (%v)", err)
	}
	if ref.Entries == nil && want.Entries != nil && len(want.Entries) == 0 {
		ref.Entries = want.Entries // the former reader left `[]` nil
	}
	if !reflect.DeepEqual(*ref, want) {
		t.Fatalf("former reader = %+v\nencoding/json: %+v", ref, want)
	}
}

// checkDecodeDelta holds DecodeDelta and its scanner to encoding/json on
// b, and applies what decodes to prev: hostile deltas may fail, never
// panic.
func checkDecodeDelta(t *testing.T, prev *Document, b []byte) {
	var want DocumentDelta
	jerr := json.Unmarshal(b, &want)
	got, err := DecodeDelta(b)
	switch {
	case jerr != nil && (got != nil || err == nil || err.Error() != "core: decoding census delta: "+jerr.Error()):
		t.Fatalf("DecodeDelta = %v, %v; encoding/json fails with %v", got, err, jerr)
	case jerr == nil && (err != nil || !reflect.DeepEqual(*got, want)):
		t.Fatalf("DecodeDelta = %+v, %v\nencoding/json: %+v", got, err, want)
	}
	if scanned, ok := ScanDelta(b); ok {
		if jerr != nil {
			t.Fatalf("the scanner accepted what encoding/json rejects (%v)", jerr)
		}
		if !reflect.DeepEqual(*scanned, want) {
			t.Fatalf("ScanDelta = %+v\nencoding/json: %+v", scanned, want)
		}
	}
	if got != nil {
		got.Apply(prev)
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

// FuzzDecodeDocument: on any bytes DecodeDocument agrees with
// encoding/json, and whatever its scanner accepts, encoding/json and the
// archive's former streaming reader decode alike.
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
		[]byte(`{"entries":[{}]}`),
		[]byte(`{"entries":[{"prefix":"10.0.0.0/24","gcd_cities":[]}]}`),
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecodeDocument(t, b) })
}

// FuzzDecodeDelta: on any bytes DecodeDelta agrees with encoding/json,
// whatever its scanner accepts encoding/json decodes alike, and applying
// a decoded delta to the day before never panics.
func FuzzDecodeDelta(f *testing.F) {
	prev, _, delta := decodeFixture(f, 10)
	seeds := append(decodeSeeds(f, delta, ":"),
		edit(f, delta, `"removed":[`, `"removed":[],"x":[`),
		edit(f, delta, `"removed":[`, `"upserts":null,"removed":[`),
		edit(f, delta, `"header":{`, `"header":{"entries":[{}],`),
		edit(f, delta, `"header":`, `"header":{},"header":`),
		[]byte(`{"header":{"family":"ipv4"},"removed":["10.0.0.0/24","10.0.0.0/24"],"upserts":[{"prefix":"1.0.0.0/8"}]}`),
		// A prefix named twice: Apply refuses all three.
		[]byte(`{"header":{"family":"ipv4"},"upserts":[{"prefix":"1.0.1.0/24","gcd_sites":1},{"prefix":"1.0.1.0/24","gcd_sites":2}]}`),
		[]byte(`{"header":{"family":"ipv4"},"removed":["`+prev.Entries[0].Prefix+`"],"upserts":[{"prefix":"`+prev.Entries[0].Prefix+`"}]}`),
		[]byte(`{"header":{"family":"ipv4"},"removed":["`+prev.Entries[0].Prefix+`","`+prev.Entries[0].Prefix+`"]}`),
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecodeDelta(t, prev, b) })
}

// TestDecodeAllocations pins what a decoded row costs: the prefix
// string, the row's share of the entry slice and of the name chunks, and
// the per-file header decode spread over the rows. encoding/json spends
// 4.7 (snapshot) and 5.8 (delta) allocations per row on the same bytes.
func TestDecodeAllocations(t *testing.T) {
	_, snap, delta := decodeFixture(t, 400)
	doc, ok := ScanDocument(snap)
	if !ok {
		t.Fatal("the scanner declined the fixture snapshot")
	}
	dd, ok := ScanDelta(delta)
	if !ok {
		t.Fatal("the scanner declined the fixture delta")
	}
	for _, c := range []struct {
		name string
		rows int
		run  func()
	}{
		{"snapshot", len(doc.Entries), func() { DecodeDocument(snap) }},
		{"delta", len(dd.Upserts) + len(dd.Removed), func() { DecodeDelta(delta) }},
	} {
		perRow := testing.AllocsPerRun(20, c.run) / float64(c.rows)
		t.Logf("%s: %d rows, %.2f allocations per row", c.name, c.rows, perRow)
		if perRow > 1.3 {
			t.Errorf("%s: %.2f allocations per decoded row, want ≤ 1.3", c.name, perRow)
		}
	}
}
