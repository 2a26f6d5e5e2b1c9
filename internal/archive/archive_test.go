package archive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/core"
)

// synthDoc builds a deterministic synthetic census document; evolve
// derives the next day with realistic churn (most prefixes persist —
// the Fig 10 redundancy the delta encoding exploits).
func synthDoc(entries int) *core.Document {
	d := &core.Document{
		Date:               "2024-03-21",
		Family:             "ipv4",
		HitlistSize:        entries * 3,
		Workers:            32,
		ProbesAnycastStage: int64(entries) * 96,
		ProbesGCDStage:     int64(entries) * 7,
	}
	for i := 0; i < entries; i++ {
		e := core.DocumentEntry{
			Prefix:    prefixFor(i),
			OriginASN: uint32(64500 + i%200),
		}
		if i%3 == 0 {
			e.ACProtocols = []string{"ICMP", "TCP"}
			e.MaxReceivers = 2 + i%7
			e.GCDMeasured = true
			e.GCDAnycast = true
			e.GCDSites = 2 + i%9
			e.GCDCities = []string{"Amsterdam", "Tokyo"}
			e.GCDVPs = 40
			d.GCount++
		} else {
			e.ACProtocols = []string{"DNS"}
			e.MaxReceivers = 2
			e.GCDMeasured = true
			d.MCount++
		}
		d.Entries = append(d.Entries, e)
	}
	sortCanonical(d)
	return d
}

func prefixFor(i int) string {
	bases := []string{"2", "10", "100", "192", "23", "8", "77"}
	return bases[i%len(bases)] + "." + itoa((i/7)%250) + "." + itoa(i%250) + ".0/24"
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

func sortCanonical(d *core.Document) {
	es := d.Entries
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && core.ComparePrefixStrings(es[j].Prefix, es[j-1].Prefix) < 0; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func evolve(d *core.Document, day int) *core.Document {
	out := d.DeepCopy()
	out.Date = "2024-03-" + itoa(22+day%8)
	out.ProbesAnycastStage += int64(day)
	kept := out.Entries[:0]
	out.GCount, out.MCount = 0, 0
	for i := range out.Entries {
		e := out.Entries[i]
		if (i+day)%37 == 0 {
			continue // ~3% churn out
		}
		if (i+day)%13 == 0 && e.GCDAnycast {
			e.GCDSites++
		}
		if e.GCDAnycast {
			out.GCount++
		} else {
			out.MCount++
		}
		kept = append(kept, e)
	}
	out.Entries = kept
	out.Entries = append(out.Entries, core.DocumentEntry{
		Prefix:      "203." + itoa(day%200) + ".0.0/24",
		OriginASN:   65000,
		ACProtocols: []string{"ICMP"},
		GCDMeasured: true,
		GCDAnycast:  true,
		GCDSites:    2,
		GCDCities:   []string{"London"},
	})
	out.GCount++
	sortCanonical(out)
	return out
}

// chain produces days of evolving documents starting from a seed doc.
func chain(days, entries int) []*core.Document {
	out := make([]*core.Document, 0, days)
	d := synthDoc(entries)
	for i := 0; i < days; i++ {
		out = append(out, d)
		d = evolve(d, i+1)
	}
	return out
}

func canonicalBytes(t testing.TB, d *core.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// packChain archives docs as days 0..n-1 in dir.
func packChain(t testing.TB, dir string, docs []*core.Document, k int) {
	t.Helper()
	w, err := Create(dir, Options{SnapshotEvery: k})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if err := w.Append(i, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPackUnpackLossless is the core contract on synthetic data: every
// unpacked day reproduces its canonical bytes, by random access and by
// streaming Range, and the two read paths — one chain walker underneath
// — yield the same document for every day.
func TestPackUnpackLossless(t *testing.T) {
	docs := chain(23, 120)
	want := make([][]byte, len(docs))
	for i, d := range docs {
		want[i] = canonicalBytes(t, d)
	}
	dir := t.TempDir()
	// Days 0-9 at K=7, the rest by a resumed writer at K=3: snapshots land
	// on days 0, 7, 10, 13, ... so one sits mid-way through what the first
	// cadence would have made a single delta chain.
	packChain(t, dir, docs[:10], 7)
	w, err := OpenWriter(dir, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < len(docs); i++ {
		if err := w.Append(i, docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := a.Record("ipv4", 10); rec.Kind != KindSnapshot {
		t.Fatalf("day 10 is a %s, want a snapshot interleaved mid-chain", rec.Kind)
	}
	// Random access, deliberately out of order and with a repeat: the
	// Archive keeps no state between calls, so order cannot matter.
	for _, day := range []int{22, 0, 13, 13, 7, 21, 1} {
		doc, err := a.Document("ipv4", day)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonicalBytes(t, doc), want[day]) {
			t.Fatalf("day %d: random access did not reproduce canonical bytes", day)
		}
	}
	// Streaming range, each day checked against random access.
	seen := 0
	err = a.Range("ipv4", 0, -1, func(day int, doc *core.Document) error {
		if !bytes.Equal(canonicalBytes(t, doc), want[day]) {
			t.Fatalf("day %d: range did not reproduce canonical bytes", day)
		}
		single, err := a.Document("ipv4", day)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, doc) {
			t.Fatalf("day %d: Document and Range yield different documents", day)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(docs) {
		t.Fatalf("range visited %d of %d days", seen, len(docs))
	}
	// A bounded span that starts and ends on delta days.
	var span []int
	if err := a.Range("ipv4", 9, 12, func(day int, _ *core.Document) error {
		span = append(span, day)
		return nil
	}); err != nil || !reflect.DeepEqual(span, []int{9, 10, 11, 12}) {
		t.Fatalf("range 9..12 visited %v (%v)", span, err)
	}
	if err := a.Range("ipv4", 40, -1, func(int, *core.Document) error {
		t.Fatal("range past the last day visited a document")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if res, err := a.Verify(); err != nil || res.Days != len(docs) {
		t.Fatalf("verify: %v (%+v)", err, res)
	}
}

// TestArchiveSmallerThanFullJSON pins the efficiency claim on a
// 100+ day run: the delta-encoded store must be well under the size of
// per-day full JSON.
func TestArchiveSmallerThanFullJSON(t *testing.T) {
	docs := chain(120, 150)
	dir := t.TempDir()
	packChain(t, dir, docs, 7)
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if len(st) != 1 || st[0].Days != 120 {
		t.Fatalf("stats: %+v", st)
	}
	if st[0].Snapshots == 0 || st[0].Deltas == 0 {
		t.Fatalf("cadence degenerate: %+v", st[0])
	}
	if r := st[0].Ratio(); r > 0.5 {
		t.Fatalf("archive is %.0f%% of full JSON; want well under 50%% on persistent censuses", 100*r)
	}
}

// TestOpenWriterResume appends across writer restarts and keeps the
// delta chain intact: at each snapshot cadence, a writer reopened after
// every day writes the day-files and index.jsonl an uninterrupted writer
// writes, byte for byte, over a chain holding a row with an escaped
// city (its day-files split through encoding/json), a row with every
// optional field and a zero-entry day.
func TestOpenWriterResume(t *testing.T) {
	docs := chain(11, 80)
	for day := 3; day <= 4; day++ {
		docs[day].Entries[0].GCDCities = []string{"A<B & C", "Riga"}
	}
	for day := 5; day <= 6; day++ {
		e := &docs[day].Entries[1]
		e.ACProtocols, e.MaxReceivers, e.FromFeedback, e.GCDMeasured, e.GCDAnycast = []string{"ICMP", "TCP", "DNS"}, -2, true, true, true
		e.GCDSites, e.GCDCities, e.GCDVPs, e.PartialAnycast, e.GlobalBGP = 3, []string{"São Paulo", "Zürich", "Tokyo"}, 17+day, true, true
	}
	docs[8].Entries, docs[8].GCount, docs[8].MCount = nil, 0, 0
	for _, every := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			whole := t.TempDir()
			packChain(t, whole, docs, every)
			dir := t.TempDir()
			for i, d := range docs {
				w, err := OpenOrCreate(dir, Options{SnapshotEvery: every})
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Append(i, d); err != nil {
					t.Fatalf("day %d: %v", i, err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadDir(whole)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(want) != len(docs)+1 {
				t.Fatalf("resumed writer left %d files, uninterrupted %d, want %d", len(got), len(want), len(docs)+1)
			}
			for i, f := range want {
				wb, err := os.ReadFile(filepath.Join(whole, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				gb, err := os.ReadFile(filepath.Join(dir, got[i].Name()))
				if err != nil {
					t.Fatal(err)
				}
				if got[i].Name() != f.Name() || !bytes.Equal(gb, wb) {
					t.Fatalf("%s: the resumed writer's %s differs from the uninterrupted writer's", f.Name(), got[i].Name())
				}
			}

			a, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := a.Verify(); err != nil || res.Days != len(docs) {
				t.Fatalf("verify after resume: %v (%+v)", err, res)
			}
			for i, d := range docs {
				got, err := a.Document("ipv4", i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(canonicalBytes(t, got), canonicalBytes(t, d)) {
					t.Fatalf("day %d diverged across writer restart", i)
				}
			}
		})
	}
}

// TestDeltaIsTheCompactDiff holds every delta file the writer writes to
// the diff of the two days' rows in compact JSON, as encoding/json
// writes it (compactDelta), whatever layout the previous day's rows are
// in. Day 1 carries an escaped name, so its file is decoded whole by
// encoding/json wherever it is read. An uninterrupted writer diffs day
// 2 against day 1's decoded rows and day 3 against day 2's indented rows
// and compacted upserts; a writer reopened before day r diffs day r
// against day r-1 as OpenWriter replays it, which before days 2 and 3
// holds rows day 1's delta file gave that its split could not find.
func TestDeltaIsTheCompactDiff(t *testing.T) {
	docs := chain(6, 60)
	docs[1].Entries[0].GCDCities = []string{"A<B", "Riga"}
	for r := 0; r < len(docs); r++ {
		t.Run(fmt.Sprintf("reopened-before-day-%d", r), func(t *testing.T) {
			dir := t.TempDir()
			pack := func(from, to int) {
				w, err := OpenOrCreate(dir, Options{SnapshotEvery: 7})
				if err != nil {
					t.Fatal(err)
				}
				for d := from; d < to; d++ {
					if err := w.Append(d, docs[d]); err != nil {
						t.Fatalf("day %d: %v", d, err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			pack(0, r)
			pack(r, len(docs))
			for d := 1; d < len(docs); d++ {
				got, err := os.ReadFile(filepath.Join(dir, dayFileName("ipv4", d, KindDelta)))
				if err != nil {
					t.Fatal(err)
				}
				if want := compactDelta(t, docs[d-1], docs[d]); !bytes.Equal(got, want) {
					t.Fatalf("day %d's delta file\n%s\nthe compact diff\n%s", d, got, want)
				}
				if escaped := bytes.IndexByte(got, '\\') >= 0; escaped != (d == 1) {
					t.Fatalf("day %d's delta file holds an escape: %v", d, escaped)
				}
			}
		})
	}
}

// compactDelta is the delta file that rebuilds cur from prev as
// encoding/json writes it, with its newline: prev's entries cur lacks
// removed, and cur's entries that prev lacks or marshals to other bytes
// upserted, each in its day's order.
func compactDelta(t *testing.T, prev, cur *core.Document) []byte {
	t.Helper()
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	was := make(map[string][]byte, len(prev.Entries))
	for i := range prev.Entries {
		was[prev.Entries[i].Prefix] = marshal(&prev.Entries[i])
	}
	d := core.DocumentDelta{Header: *cur}
	d.Header.Entries = nil
	in := make(map[string]bool, len(cur.Entries))
	for i := range cur.Entries {
		e := &cur.Entries[i]
		in[e.Prefix] = true
		if b, ok := was[e.Prefix]; !ok || !bytes.Equal(b, marshal(e)) {
			d.Upserts = append(d.Upserts, *e)
		}
	}
	for i := range prev.Entries {
		if !in[prev.Entries[i].Prefix] {
			d.Removed = append(d.Removed, prev.Entries[i].Prefix)
		}
	}
	return append(marshal(&d), '\n')
}

// TestOpenWriterRepairsTornIndexTail is the crash-recovery contract for
// the index: Open skips an unterminated final line, so OpenWriter must
// not glue the next record onto it. Whether the dead append left a
// fragment or a whole record short of its newline, resuming and
// appending one day leaves an archive that opens, verifies clean and
// holds exactly one day more than was visible before.
func TestOpenWriterRepairsTornIndexTail(t *testing.T) {
	const old = 6
	docs := chain(old+1, 80)
	for _, tc := range []struct {
		name string
		tear func(index []byte) []byte
	}{
		{"fragment", func(ix []byte) []byte { return append(ix, `{"seq":6,"day":6,"fam`...) }},
		{"missing newline", func(ix []byte) []byte { return bytes.TrimSuffix(ix, []byte("\n")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			packChain(t, dir, docs[:old], 4)
			ixPath := filepath.Join(dir, IndexFile)
			ix, err := os.ReadFile(ixPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ixPath, tc.tear(ix), 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(before.Days("ipv4")); n != old {
				t.Fatalf("torn archive shows %d days, want %d", n, old)
			}

			w, err := OpenWriter(dir, Options{SnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(old, docs[old]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			a, err := Open(dir)
			if err != nil {
				t.Fatalf("archive stopped opening after an append over a torn tail: %v", err)
			}
			if res, err := a.Verify(); err != nil || res.Days != old+1 {
				t.Fatalf("verify after repair: %v (%+v), want %d days", err, res, old+1)
			}
			got, err := a.Document("ipv4", old)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonicalBytes(t, got), canonicalBytes(t, docs[old])) {
				t.Fatal("day appended over the repaired tail diverged")
			}
		})
	}
}

// TestAppendOnly rejects out-of-order days and double-create.
func TestAppendOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := synthDoc(10)
	if err := w.Append(5, d); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, evolve(d, 1)); err == nil {
		t.Fatal("duplicate day accepted")
	}
	if err := w.Append(3, evolve(d, 1)); err == nil {
		t.Fatal("backwards day accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("Create over a live archive accepted")
	}
}

// TestAppendRejectsUnparsablePrefix: a document carrying a prefix that is
// not an IP prefix — here 70,000 bytes long, more than the timeline
// index's 16-bit name length holds — is refused by name before anything
// is written, and the archive stays openable and appendable.
func TestAppendRejectsUnparsablePrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := synthDoc(10)
	if err := w.Append(0, d); err != nil {
		t.Fatal(err)
	}
	bad := evolve(d, 1)
	bad.Entries = append(slices.Clone(bad.Entries), core.DocumentEntry{Prefix: "10.0.0.0/24" + strings.Repeat("0", 70000)})
	if err := w.Append(1, bad); err == nil || !strings.Contains(err.Error(), `prefix "10.0.0.0/24000`) {
		t.Fatalf("Append of a 70,000-byte prefix: error %v, want one naming it", err)
	}
	if err := w.Append(1, evolve(d, 1)); err != nil {
		t.Fatalf("append after the refused one: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := a.Verify(); err != nil || res.Days != 2 {
		t.Fatalf("verify after the refused append: %v (%+v)", err, res)
	}
	w, err = OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, evolve(d, 2)); err != nil {
		t.Fatalf("append after reopening: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRejectsNonCanonicalOrder: a delta day whose base document
// carries entries in non-canonical (e.g. lexicographic) order cannot
// survive delta encoding — Append must refuse it BEFORE committing the
// index record, instead of wedging the append-only store with a day that
// can never be reconstructed.
func TestAppendRejectsNonCanonicalOrder(t *testing.T) {
	lexDoc := func(date string, prefixes ...string) *core.Document {
		d := &core.Document{Date: date, Family: "ipv4"}
		for _, p := range prefixes {
			d.Entries = append(d.Entries, core.DocumentEntry{
				Prefix: p, ACProtocols: []string{"ICMP"}, GCDAnycast: true, GCDSites: 2,
			})
			d.GCount++
		}
		return d
	}
	dir := t.TempDir()
	w, err := Create(dir, Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Lexicographic order, as the pre-fix census published it.
	if err := w.Append(0, lexDoc("2024-03-21", "10.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24")); err != nil {
		t.Fatal(err) // snapshots store their own bytes; any order round-trips
	}
	// Day 1 adds a prefix whose canonical position differs from its
	// lexicographic one — the delta cannot reproduce this document.
	err = w.Append(1, lexDoc("2024-03-22", "10.0.0.0/24", "2.0.0.0/24", "25.0.0.0/24", "3.0.0.0/24"))
	if err == nil {
		t.Fatal("Append committed a delta day that cannot be reconstructed")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The refused day must leave no trace: the archive still verifies and
	// the orphan file (if any) is gone.
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := a.Verify(); err != nil || res.Days != 1 {
		t.Fatalf("verify after refused append: %v (%+v)", err, res)
	}
	if _, err := os.Stat(filepath.Join(dir, "ipv4-000001.delta.json")); !os.IsNotExist(err) {
		t.Fatalf("refused append left a day file behind (stat err %v)", err)
	}
}

// TestArchiveKeepsEmptyEntriesArray: a published document with
// `"entries": []` is archived as it was published, not as `null`. As a
// snapshot it round-trips its bytes; as a delta day it cannot (applying
// a delta rebuilds zero entries as nil), so its append fails.
func TestArchiveKeepsEmptyEntriesArray(t *testing.T) {
	published := func(date string) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&core.Document{Date: date, Family: "ipv4", Entries: []core.DocumentEntry{}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	parse := func(b []byte) *core.Document {
		d, err := core.ParseDocument(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	day0 := published("2024-03-21")
	if !bytes.Contains(day0, []byte(`"entries": []`)) {
		t.Fatalf("fixture is not an empty entries array: %s", day0)
	}
	dir := t.TempDir()
	w, err := Create(dir, Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, parse(day0)); err != nil {
		t.Fatal(err)
	}
	err = w.Append(1, parse(published("2024-03-22")))
	if err == nil || !strings.Contains(err.Error(), "does not survive delta encoding") {
		t.Fatalf("delta day with empty non-nil entries: Append = %v, want the delta-encoding refusal", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := a.Document("ipv4", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalBytes(t, back); !bytes.Equal(got, day0) {
		t.Fatalf("snapshot day re-encodes as\n%s\npublished as\n%s", got, day0)
	}
	if stored, err := os.ReadFile(filepath.Join(dir, "ipv4-000000.snap.json")); err != nil || !bytes.Equal(stored, day0) {
		t.Fatalf("stored snapshot (%v)\n%s\npublished as\n%s", err, stored, day0)
	}
	if res, err := a.Verify(); err != nil || res.Days != 1 {
		t.Fatalf("verify: %v (%+v)", err, res)
	}
	if _, err := os.Stat(filepath.Join(dir, "ipv4-000001.delta.json")); !os.IsNotExist(err) {
		t.Fatalf("refused append left a day file behind (stat err %v)", err)
	}
}

// TestOrphanDayFileRecovered simulates an append that died between
// writing the day file and the index line: the orphan must not wedge the
// archive — re-appending the day overwrites it.
func TestOrphanDayFileRecovered(t *testing.T) {
	docs := chain(4, 30)
	dir := t.TempDir()
	packChain(t, dir, docs[:3], 7)

	// Forge the orphan the crash would leave behind.
	orphan := filepath.Join(dir, "ipv4-000003.delta.json")
	if err := os.WriteFile(orphan, []byte("{\"header\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(3, docs[3]); err != nil {
		t.Fatalf("orphan day file wedged the archive: %v", err)
	}
	if last, ok := w.LastDay("ipv4"); !ok || last != 3 {
		t.Fatalf("LastDay = %d/%v", last, ok)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := a.Verify(); err != nil || res.Days != 4 {
		t.Fatalf("verify after orphan recovery: %v (%+v)", err, res)
	}
}

// TestBothFamilies interleaves ipv4 and ipv6 chains in one archive.
func TestBothFamilies(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	v4 := chain(5, 40)
	v6 := chain(5, 25)
	for i := range v4 {
		v6[i].Family = "ipv6"
		if err := w.Append(i, v4[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(i, v6[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fams := a.Families()
	if len(fams) != 2 || fams[0] != "ipv4" || fams[1] != "ipv6" {
		t.Fatalf("families: %v", fams)
	}
	if res, err := a.Verify(); err != nil || res.Days != 10 {
		t.Fatalf("verify: %v (%+v)", err, res)
	}
}

// TestVerifyDetectsCorruption flips a byte in a delta file and expects
// Verify to fail.
func TestVerifyDetectsCorruption(t *testing.T) {
	docs := chain(9, 60)
	dir := t.TempDir()
	packChain(t, dir, docs, 4)
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := a.Record("ipv4", 2) // a delta day (snapshots at 0, 4, 8)
	if !ok || rec.Kind != KindDelta {
		t.Fatalf("day 2 record: %+v", rec)
	}
	path := filepath.Join(dir, rec.File)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a site count inside the payload (keeping valid JSON).
	idx := bytes.Index(b, []byte(`"gcd_sites":`))
	if idx < 0 {
		t.Skip("no gcd_sites in this delta")
	}
	pos := idx + len(`"gcd_sites":`)
	if b[pos] == '9' {
		b[pos] = '8'
	} else {
		b[pos] = '9'
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a2.Verify(); err == nil {
		t.Fatal("verify accepted a corrupted delta")
	}
}

// TestOpenRejectsRecordOutsideArchive holds the index to what Writer
// writes: a record whose file is not its day's own name — here one that
// climbs into a sibling archive, whose documents a reader would otherwise
// serve as this archive's — or whose family or kind the writer never
// writes, fails Open with the index line it sits on.
func TestOpenRejectsRecordOutsideArchive(t *testing.T) {
	root := t.TempDir()
	dir, outside := filepath.Join(root, "arch"), filepath.Join(root, "outsidearch")
	packChain(t, dir, chain(2, 20), 7)
	packChain(t, outside, chain(1, 30), 7)
	index, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("the archive as written does not open: %v", err)
	}
	lines := bytes.SplitAfter(index, []byte("\n"))
	for _, tc := range []struct {
		name   string
		forge  func(*Record)
		reason string
	}{
		{"outside file", func(r *Record) { r.File = "../outsidearch/ipv4-000000.snap.json" }, "file"},
		{"absolute file", func(r *Record) { r.File = filepath.Join(outside, "ipv4-000000.snap.json") }, "file"},
		{"other day's file", func(r *Record) { r.Day = 5 }, "file"},
		{"unknown family", func(r *Record) { r.Family, r.File = "ipv9", dayFileName("ipv9", r.Day, r.Kind) }, "family"},
		{"unknown kind", func(r *Record) { r.Kind, r.File = "full", dayFileName(r.Family, r.Day, "full") }, "kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rec Record
			if err := json.Unmarshal(lines[1], &rec); err != nil {
				t.Fatal(err)
			}
			tc.forge(&rec)
			forged, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			out := append(append(append([]byte{}, lines[0]...), forged...), '\n')
			if err := os.WriteFile(filepath.Join(dir, IndexFile), out, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir)
			if err == nil || !strings.Contains(err.Error(), "index line 2") || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("Open of an index whose line 2 has a forged %s = %v, want an error naming line 2 and its %s", tc.name, err, tc.reason)
			}
		})
	}
}
