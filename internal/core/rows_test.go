package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// dayFile is one day-file as the archive writer makes it.
type dayFile struct {
	name string
	b    []byte
	snap bool
}

var (
	writerFilesOnce sync.Once
	writerDocs      []*Document
)

// writerFiles returns the day-files an archive packed at the given
// snapshot cadence holds for eight consecutive TestConfig census days of
// both families: a snapshot is StreamDocument's bytes, a delta the
// compact JSON of DiffRows over both days' split bytes and a newline, as
// the archive writer writes them.
func writerFiles(t testing.TB, every int) []dayFile {
	t.Helper()
	writerFilesOnce.Do(func() {
		p := newPipeline(t)
		for day := 100; day < 108; day++ {
			for _, v6 := range []bool{false, true} {
				c, err := p.RunDaily(day, v6, DayOptions{})
				if err != nil {
					t.Fatal(err)
				}
				writerDocs = append(writerDocs, c.Document())
			}
		}
	})
	var files []dayFile
	for i, doc := range writerDocs {
		day := i / 2
		name := fmt.Sprintf("%s day %d", doc.Family, day)
		if day%every == 0 {
			var buf bytes.Buffer
			if err := StreamDocument(&buf, doc); err != nil {
				t.Fatal(err)
			}
			files = append(files, dayFile{name + " snapshot", buf.Bytes(), true})
			continue
		}
		delta, err := DiffRows(splitCanonical(t, writerDocs[i-2]), splitCanonical(t, doc))
		if err != nil {
			t.Fatal(err)
		}
		b, err := delta.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, dayFile{name + " delta", append(b, '\n'), false})
	}
	return files
}

// splitCanonical splits doc's canonical bytes into rows, as the archive
// writer splits each day it appends.
func splitCanonical(t testing.TB, doc *Document) *RowDay {
	t.Helper()
	var buf bytes.Buffer
	if err := StreamDocument(&buf, doc); err != nil {
		t.Fatal(err)
	}
	d, err := SplitDocument(buf.Bytes(), new(RowArena))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// refScanRows is scanRows on the reference splitter: the rows only,
// their keys unparsed.
func refScanRows(b []byte, snap bool) ([]*row, bool) {
	s := newScanner(b)
	var rows []*row
	if snap {
		_, ok := s.document(func() { rows = s.refStoredRows(&indentLayout) })
		return rows, ok
	}
	var hdr Document
	ok := s.delta(&hdr, s.refStringList, func() { rows = s.refStoredRows(&compactLayout) })
	return rows, ok
}

// scanRows is the split of a snapshot (snap) or a delta into a new arena
// without its fallback to encoding/json: the rows it finds, or false
// where it leaves the file to encoding/json.
func scanRows(b []byte, snap bool) ([]*row, bool) { return scanRowsInto(b, snap, new(RowArena)) }

// scanRowsInto is scanRows into arena a.
func scanRowsInto(b []byte, snap bool, a *RowArena) ([]*row, bool) {
	s := newScanner(b)
	var rows []*row
	if snap {
		_, ok := s.document(func() { rows = s.storedRows(indentRows, a, nil) })
		return rows, ok
	}
	var hdr Document
	ok := s.delta(&hdr, func() { s.removedKeys(a) }, func() { rows = s.storedRows(compactRows, a, nil) })
	return rows, ok
}

// splitOnRows splits the snapshot b, failing the test when the split
// leaves it to encoding/json.
func splitOnRows(t testing.TB, b []byte) *RowDay {
	t.Helper()
	if _, ok := scanRows(b, true); !ok {
		t.Fatal("the split left the snapshot to encoding/json")
	}
	d, err := SplitDocument(b, new(RowArena))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// decodesAll reports whether every row that holds no entry decodes
// (RowDecoder.row), each decoded from a copy, so the rows stay as split.
func decodesAll(rows []*row) bool {
	for _, r := range rows {
		c := *r
		var e DocumentEntry
		if r.entry == nil && new(RowDecoder).row(&c, &e) != nil {
			return false
		}
	}
	return true
}

// checkSplitMatchesReference holds the split of b and RowDecoder to the
// reference splitter: the split finds rows in b and every one decodes
// exactly when the reference accepts b, and then the rows are the same
// — the same bounds in b, the same prefixes — each keyed as
// ParsePrefixKey keys its prefix. A delta's removals are keyed as
// ParsePrefixKey keys them. The split kept as spans rebuilds the split
// (checkRebuildMatchesSplit).
func checkSplitMatchesReference(t *testing.T, b []byte, snap bool) {
	t.Helper()
	checkRebuildMatchesSplit(t, b, snap)
	want, wok := refScanRows(b, snap)
	got, ok := scanRows(b, snap)
	if accepted := ok && decodesAll(got); accepted != wok {
		t.Fatalf("the split finds rows: %v, and they decode: %v; the reference accepts: %v\n%q", ok, accepted, wok, b)
	}
	if !wok {
		return
	}
	if !snap {
		d, _ := SplitDelta(b, new(RowArena))
		for _, k := range d.removed {
			if k != ParsePrefixKey(k.s) {
				t.Fatalf("removal keyed %+v, ParsePrefixKey(%q) = %+v", k, k.s, ParsePrefixKey(k.s))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("the split makes %d rows, the reference %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if &r.raw[0] != &w.raw[0] || len(r.raw) != len(w.raw) || r.indented != w.indented {
			t.Fatalf("row %d: the split's bytes\n%q\nthe reference's\n%q", i, r.raw, w.raw)
		}
		if r.key.s != w.key.s {
			t.Fatalf("row %d: prefix %q, the reference's %q", i, r.key.s, w.key.s)
		}
		if k := ParsePrefixKey(r.key.s); r.key != k {
			t.Fatalf("row %d: key %+v, ParsePrefixKey(%q) = %+v", i, r.key, r.key.s, k)
		}
	}
}

// checkRebuildMatchesSplit holds SplitSpans on b to a fresh split of b
// (SplitDocument, or SplitDelta unless snap): the same split or the same
// error, and spans kept exactly when the split finds b's rows. The rows
// rebuilt from the spans over b (Spans.Rows), twice into one arena, are
// then the fresh split's: the same header, whose governance block they
// share with neither the spans nor each other, the same rows — keys,
// bytes at the same place in b, layout — and a delta's removals, nil and
// empty lists kept apart.
func checkRebuildMatchesSplit(t *testing.T, b []byte, snap bool) {
	t.Helper()
	var want *RowDay
	var wantDelta *RowDelta
	var werr error
	if snap {
		want, werr = SplitDocument(b, new(RowArena))
	} else {
		wantDelta, werr = SplitDelta(b, new(RowArena))
	}
	d, dd, spans, err := SplitSpans(b, !snap, new(RowArena))
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("SplitSpans fails with %v, the split with %v", err, werr)
	}
	if err != nil {
		return
	}
	sameSplit(t, "SplitSpans", d, dd, want, wantDelta)
	if _, found := scanRows(b, snap); (spans != nil) != found {
		t.Fatalf("SplitSpans keeps spans: %v; the split finds the rows: %v\n%q", spans != nil, found, b)
	}
	if spans == nil {
		return
	}
	arena := new(RowArena)
	d1, dd1 := spans.Rows(b, arena)
	sameSplit(t, "the rebuilt split", d1, dd1, want, wantDelta)
	d2, dd2 := spans.Rows(b, arena)
	sameSplit(t, "the split rebuilt again", d2, dd2, want, wantDelta)
	blocks := []*Responsibility{spans.hdr.Responsibility, header(d, dd).Responsibility, header(d1, dd1).Responsibility, header(d2, dd2).Responsibility}
	for i, r := range blocks {
		if r != nil && slices.Contains(blocks[i+1:], r) {
			t.Fatal("the spans, the split and the rebuilt splits share a governance block")
		}
	}
}

// header is the header of the split day d or delta dd.
func header(d *RowDay, dd *RowDelta) *Document {
	if d != nil {
		return &d.hdr
	}
	return &dd.hdr
}

// sameSplit fails the test unless the split day d or delta dd is the
// split want or wantDelta: the same header, the same rows with their
// bytes in the same place, the same removals, nil and empty apart.
func sameSplit(t *testing.T, what string, d *RowDay, dd *RowDelta, want *RowDay, wantDelta *RowDelta) {
	t.Helper()
	if (d == nil) != (want == nil) || (dd == nil) != (wantDelta == nil) {
		t.Fatalf("%s is a day: %v, a delta: %v; the split %v, %v", what, d != nil, dd != nil, want != nil, wantDelta != nil)
	}
	rows, wantRows := splitRows(d, dd), splitRows(want, wantDelta)
	if !reflect.DeepEqual(*header(d, dd), *header(want, wantDelta)) {
		t.Fatalf("%s's header\n%+v\nthe split's\n%+v", what, *header(d, dd), *header(want, wantDelta))
	}
	if (rows == nil) != (wantRows == nil) || len(rows) != len(wantRows) {
		t.Fatalf("%s has %d rows (nil: %v), the split %d (nil: %v)", what, len(rows), rows == nil, len(wantRows), wantRows == nil)
	}
	for i, r := range rows {
		w := wantRows[i]
		if r.key != w.key || r.indented != w.indented || len(r.raw) != len(w.raw) ||
			len(r.raw) > 0 && &r.raw[0] != &w.raw[0] || !reflect.DeepEqual(r.entry, w.entry) {
			t.Fatalf("%s's row %d\n%+v %q\nthe split's\n%+v %q", what, i, r.key, r.raw, w.key, w.raw)
		}
	}
	if dd != nil && ((dd.removed == nil) != (wantDelta.removed == nil) || !slices.Equal(dd.removed, wantDelta.removed)) {
		t.Fatalf("%s removes %v (nil: %v), the split %v (nil: %v)", what, dd.removed, dd.removed == nil, wantDelta.removed, wantDelta.removed == nil)
	}
}

// TestSplitMatchesReference holds the split and RowDecoder to the
// splitter they replaced (rows_ref_test.go) on every day-file the writer
// makes of eight TestConfig census days of both families, packed at
// SnapshotEvery 1 and 7, and on each of their rows alone after seeded
// single-byte edits, deletions and insertions, some in the prefix: the
// same accept or decline, the same row bounds and prefixes, each key
// ParsePrefixKey's, and each accepted row decoded as encoding/json
// decodes it. Every writer-made file splits, and each of its rows
// re-indents as checkReindent requires and decodes as checkRowDecode
// requires.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 7))
	alphabet := []byte(`0123456789abcdefxyz.:/"{}[],- ` + "\n\t\\<&\x00\x7f\x80\xc3\xe2")
	rows := 0
	for _, every := range []int{1, 7} {
		for _, f := range writerFiles(t, every) {
			checkSplitMatchesReference(t, f.b, f.snap)
			split, ok := scanRows(f.b, f.snap)
			if !ok {
				t.Fatalf("every=%d %s: the split declined a file the writer made", every, f.name)
			}
			layout := &compactLayout
			if f.snap {
				layout = &indentLayout
			}
			for _, r := range split {
				rows++
				checkReindent(t, r)
				checkRowDecode(t, r)
				for _, mut := range mutations(rng, r.raw, alphabet) {
					checkRowMatchesReference(t, mut, layout)
				}
			}
		}
	}
	if rows < 1000 {
		t.Fatalf("%d rows split, want a fixture of 1,000 or more", rows)
	}
}

// checkReindent holds appendIndented to the entry appender on one row
// the split accepted: re-indented from its compact form, the row is what
// appendEntry writes for it decoded in the indented layout (a
// snapshot's row as stored), and compacting that gives back the compact
// form (a delta's row as stored).
func checkReindent(t *testing.T, r *row) {
	t.Helper()
	compact := r.raw
	if r.indented {
		compact = appendCompact(nil, r.raw)
	}
	var e DocumentEntry
	if err := json.Unmarshal(r.raw, &e); err != nil {
		t.Fatalf("the split's row is not JSON: %v\n%s", err, r.raw)
	}
	ind := appendIndented(nil, compact)
	if want := appendEntry(nil, &e, &indentLayout); !bytes.Equal(ind, want) || r.indented && !bytes.Equal(ind, r.raw) {
		t.Fatalf("the row re-indented\n%s\nappendEntry's indented form\n%s", ind, want)
	}
	if back := appendCompact(nil, ind); !bytes.Equal(back, compact) {
		t.Fatalf("the re-indented row compacted\n%s\nthe compact row\n%s", back, compact)
	}
}

// checkRowDecode holds RowDecoder to encoding/json on one row in the row
// grammar: decoded as split (indented in a snapshot, compact in a
// delta), and again after json has compacted a copy of it in place, the
// entry is json.Unmarshal's of the row's bytes.
func checkRowDecode(t *testing.T, r *row) {
	t.Helper()
	var want DocumentEntry
	if err := json.Unmarshal(r.raw, &want); err != nil {
		t.Fatalf("the split's row is not JSON: %v\n%s", err, r.raw)
	}
	c := *r
	for _, form := range []string{"as split", "compacted"} {
		if form == "compacted" {
			c.json(new([]byte))
		}
		var got DocumentEntry
		if err := new(RowDecoder).row(&c, &got); err != nil {
			t.Fatalf("the row %s (indented: %v): %v\n%s", form, c.indented, err, c.raw)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the row %s (indented: %v) decodes to\n%+v\nencoding/json's\n%+v\n%s", form, c.indented, got, want, c.raw)
		}
	}
}

// mutations returns seeded variants of a row: three single-byte edits
// anywhere, one in the prefix, a deletion and an insertion, and the row
// without one of its fields after the first, or with one of its fields'
// value replaced by a zero.
func mutations(rng *rand.Rand, raw, alphabet []byte) [][]byte {
	var out [][]byte
	edit := func(at int) {
		m := bytes.Clone(raw)
		m[at] = alphabet[rng.IntN(len(alphabet))]
		out = append(out, m)
	}
	for range 3 {
		edit(rng.IntN(len(raw)))
	}
	if p := bytes.Index(raw, []byte(`"prefix"`)); p >= 0 {
		start := p + len(`"prefix"`) + bytes.IndexByte(raw[p+len(`"prefix"`):], '"') + 1
		end := start + bytes.IndexByte(raw[start:], '"')
		edit(start + rng.IntN(end-start+1))
	}
	at := rng.IntN(len(raw))
	out = append(out, append(bytes.Clone(raw[:at]), raw[at+1:]...))
	at = rng.IntN(len(raw) + 1)
	ins := append(append(bytes.Clone(raw[:at]), alphabet[rng.IntN(len(alphabet))]), raw[at:]...)
	out = append(out, ins)
	// Where each field after the first starts (its ','), and where the
	// last one ends.
	var starts []int
	for _, fd := range rowFields[1:] {
		if k := bytes.Index(raw, []byte(`"`+fd.name+`"`)); k >= 0 {
			starts = append(starts, bytes.LastIndexByte(raw[:k], ','))
		}
	}
	starts = append(starts, bytes.LastIndexAny(raw[:len(raw)-1], `]"0123456789el`)+1)
	k := rng.IntN(len(starts) - 1)
	out = append(out, append(bytes.Clone(raw[:starts[k]]), raw[starts[k+1]:]...))
	value := starts[k] + bytes.IndexByte(raw[starts[k]:], ':') + 1
	for raw[value] == ' ' {
		value++
	}
	return append(out, append(append(bytes.Clone(raw[:value]), '0'), raw[starts[k+1]:]...))
}

// checkRowMatchesReference splits one row, or what an edit made of it,
// alone in an array in layout l, and holds the split and RowDecoder to
// the reference: the split finds the row and it decodes exactly when the
// reference accepts it, and then the row has the same bytes and prefix,
// is keyed as ParsePrefixKey keys it, and decodes to json.Unmarshal's
// entry.
func checkRowMatchesReference(t *testing.T, raw []byte, l *entryLayout) {
	t.Helper()
	b := append(append([]byte{'['}, raw...), ']')
	rl := compactRows
	if l == &indentLayout {
		rl = indentRows
	}
	s, ref := newScanner(b), newScanner(b)
	got, want := s.storedRows(rl, new(RowArena), nil), ref.refStoredRows(l)
	if ok := s.ok && decodesAll(got); ok != ref.ok || ok && (len(got) != len(want) || s.i != ref.i) {
		t.Fatalf("the split and RowDecoder accept: %v (%d rows), the reference: %v (%d rows)\n%q", ok, len(got), ref.ok, len(want), raw)
	}
	if !ref.ok {
		return
	}
	for i, r := range got {
		w := want[i]
		if !bytes.Equal(r.raw, w.raw) || r.key.s != w.key.s || r.key != ParsePrefixKey(w.key.s) {
			t.Fatalf("the split makes %q keyed %+v, the reference %q of %q", r.raw, r.key, w.raw, w.key.s)
		}
		checkRowDecode(t, r)
	}
}

// TestPrefixKeyAt holds prefixKeyAt to ParsePrefixKey on the forms it
// reads and at the edges of each, and requires it to read the forms
// netip writes.
func TestPrefixKeyAt(t *testing.T) {
	for _, p := range []string{
		"0.0.0.0/0", "1.2.3.4/32", "255.255.255.255/24", "10.0.0.0/8", "1.0.0.0/33", "256.0.0.0/8",
		"01.2.3.4/8", "1.2.3/8", "1.2.3.4.5/8", "1.2.3.4/08", "1.2.3.4/", "1.2.3.4", "1..3.4/8", "1.2.3.4/24/8",
		"::/0", "::1/128", "::ffff:1.2.3.4/96", "2001:db8::/32", "2001:DB8::/32", "2a0a::/48", "1::/16",
		"1:2:3:4:5:6:7:8/128", "1:2:3:4:5:6:7:8::/128", "1:2:3:4:5:6:7::8/128", "::1:2:3:4:5:6:7:8/128",
		"1:2:3:4:5:6:7/112", "12345::/16", "1:::2/64", "1::2::3/64", ":1::/16", "1:/16", "1::/129", "fe80::1%eth0/64",
		"0::1/128", "::0/128", "a.b.c.d/8", "", "/", "/24", "x",
	} {
		want := ParsePrefixKey(p)
		var k PrefixKey
		if end, ok := prefixKeyAt([]byte(p), 0, &k); ok && end == len(p) {
			k.s = p
			if k != want {
				t.Errorf("prefixKeyAt(%q) = %+v, ParsePrefixKey %+v", p, k, want)
			}
		} else if pp, err := netip.ParsePrefix(p); err == nil && pp.String() == p && !pp.Addr().Is4In6() {
			t.Errorf("prefixKeyAt declines %q, a prefix in netip's form", p)
		}
	}
}

// BenchmarkSplit splits one fixture delta and one fixture snapshot with
// the split, into one arena emptied each time as a walk empties it at a
// snapshot; with the split that also keeps its spans (SplitSpans), as a
// walk's second read of a proven day-file does; by rebuilding the split
// from its kept spans (Spans.Rows), as each later read does; and with the
// reference splitter, which also checks each row against the row
// grammar.
func BenchmarkSplit(b *testing.B) {
	var delta, snap dayFile
	for _, f := range writerFiles(b, 7) {
		if f.snap && snap.b == nil && f.name[:4] == "ipv4" {
			snap = f
		} else if !f.snap && delta.b == nil && f.name[:4] == "ipv4" {
			delta = f
		}
	}
	var arena RowArena
	for _, f := range []dayFile{delta, snap} {
		kind := "delta"
		if f.snap {
			kind = "snapshot"
		}
		_, _, spans, err := SplitSpans(f.b, !f.snap, new(RowArena))
		if err != nil || spans == nil {
			b.Fatalf("%s: SplitSpans keeps no spans (%v)", kind, err)
		}
		for _, c := range []struct {
			name  string
			split func([]byte, bool) ([]*row, bool)
		}{
			{"split", func(b []byte, snap bool) ([]*row, bool) { arena.Reset(); return scanRowsInto(b, snap, &arena) }},
			{"kept", func(b []byte, snap bool) ([]*row, bool) {
				arena.Reset()
				d, dd, spans, err := SplitSpans(b, !snap, &arena)
				return splitRows(d, dd), err == nil && spans != nil
			}},
			{"rebuilt", func(b []byte, snap bool) ([]*row, bool) { arena.Reset(); return splitRows(spans.Rows(b, &arena)), true }},
			{"reference", refScanRows},
		} {
			b.Run(kind+"/"+c.name, func(b *testing.B) {
				b.SetBytes(int64(len(f.b)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := c.split(f.b, f.snap); !ok {
						b.Fatal("declined")
					}
				}
			})
		}
	}
}

// splitRows is the rows of a split snapshot d or delta dd.
func splitRows(d *RowDay, dd *RowDelta) []*row {
	if d != nil {
		return d.rows
	}
	return dd.upserts
}

// BenchmarkRowDecode decodes, with a new RowDecoder each time as a walk
// does, every row of one fixture snapshot (indented rows) and of the
// day one fixture delta rebuilds from it (its upserts compact, the rest
// as the snapshot holds them).
func BenchmarkRowDecode(b *testing.B) {
	files := writerFiles(b, 7)
	snap, err := SplitDocument(files[0].b, new(RowArena))
	if err != nil {
		b.Fatal(err)
	}
	delta, err := SplitDelta(files[2].b, snap.arena)
	if err != nil {
		b.Fatal(err)
	}
	next, err := delta.Apply(snap)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		day  *RowDay
	}{{files[0].name, snap}, {files[2].name, next}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range c.day.rows {
					r.entry = nil
				}
				if _, err := new(RowDecoder).Document(c.day); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
