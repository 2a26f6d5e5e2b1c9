package archive_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/longitudinal"
	"github.com/laces-project/laces/internal/netsim"
)

// packedDay is one census day as a chain appends it.
type packedDay struct {
	day int
	doc *core.Document
}

// recorder is a Sink that keeps what it is handed.
type recorder []packedDay

func (r *recorder) Append(day int, doc *core.Document) error {
	*r = append(*r, packedDay{day, doc})
	return nil
}

// TestRowWalkMatchesReference holds the row walk to the encoding/json
// reference walk (walk_ref_test.go) on three chains packed at four
// snapshot cadences: a longitudinal run over both families with its
// incident calendar, and two edge chains (below). For every day and
// every window, Document and Range's documents equal the reference's,
// RangeJSON's lines equal the reference documents' json.Marshal bytes, Day's
// bytes (what /v1/census serves) equal StreamDocument of the reference
// document and each of its rows is found as the reference holds it, and
// each read counts the day-files it reads.
func TestRowWalkMatchesReference(t *testing.T) {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var run recorder
	if _, err := longitudinal.Run(w, longitudinal.Config{Days: 281, Stride: 40, Sink: &run}); err != nil {
		t.Fatal(err)
	}
	chains := []struct {
		name string
		days []packedDay
	}{
		{"longitudinal", run},
		{"edges", edgeChain()},
		{"empty-array", emptyArrayChain()},
	}
	for _, c := range chains {
		for _, every := range []int{1, 2, 3, 7} {
			t.Run(fmt.Sprintf("%s/every=%d", c.name, every), func(t *testing.T) {
				dir := t.TempDir()
				aw, err := archive.Create(dir, archive.Options{SnapshotEvery: every})
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range c.days {
					if err := aw.Append(d.day, d.doc); err != nil {
						t.Fatalf("day %d: %v", d.day, err)
					}
				}
				if err := aw.Close(); err != nil {
					t.Fatal(err)
				}
				checkRowWalk(t, dir)
			})
		}
	}
}

// row is a published row with sites GCD sites in the given cities.
func row(prefix string, sites int, cities ...string) core.DocumentEntry {
	return core.DocumentEntry{Prefix: prefix, OriginASN: 64500, ACProtocols: []string{"ICMP", "TCP"}, MaxReceivers: 4,
		GCDMeasured: true, GCDAnycast: sites > 1, GCDSites: sites, GCDCities: cities}
}

// day is an ipv4 census day with the given rows, nil when there are none.
func day(n int, date string, rows ...core.DocumentEntry) packedDay {
	return packedDay{n, &core.Document{Date: date, Family: "ipv4", HitlistSize: 10 + n, Entries: rows}}
}

// edgeChain covers what the writer's own census never publishes: a
// previous day out of canonical order that a delta inserts into, a
// zero-entry day (`"entries": null`), a row whose strings the appender
// escapes (the split falls back to encoding/json), a header holding
// `<>&`, every optional field set, and two spellings of one prefix that
// tie in canonical order.
func edgeChain() []packedDay {
	full := row("8.0.0.0/24", 3, "São Paulo", "Zürich", "Tokyo")
	full.FromFeedback, full.GCDVPs, full.PartialAnycast, full.GlobalBGP, full.MaxReceivers = true, 17, true, true, -2
	return []packedDay{
		// Lexicographic order, as a census before the canonical sort
		// published it; day 1 inserts where a binary search of it puts
		// the new row, so the writer's proof admits the delta.
		day(0, "2024-03-21", row("10.0.0.0/24", 2, "London", "Paris"), row("2.0.0.0/24", 1, "Delhi"), row("3.0.0.0/24", 2, "Lima", "Oslo")),
		day(1, "2024-03-22", row("1.0.0.0/24", 2, "Cairo", "Quito"), row("10.0.0.0/24", 3, "London", "Paris", "Rome"), row("3.0.0.0/24", 2, "Lima", "Oslo")),
		day(2, "2024-03-23"),
		day(3, "2024-03-24", row("4.0.0.0/24", 2, "Accra", "Baku"), row("5.0.0.0/24", 2, "A<B & C", "Riga")),
		day(4, "<>& 2024-03-25", row("4.0.0.0/24", 3, "Accra", "Baku", "Doha"), row("6.0.0.0/24", 1, "Kyiv")),
		day(5, "2024-03-26", row("4.0.0.0/24", 3, "Accra", "Baku", "Doha"), row("6.0.0.0/24", 1, "Kyiv"), full, row("2001:db8::/32", 2, "Seoul", "Taipei")),
		day(6, "2024-03-27", row("6.0.0.0/24", 2, "Kyiv", "Minsk"), full, row("2001:0db8::/32", 1, "Hanoi"), row("2001:db8::/32", 2, "Seoul", "Taipei")),
		day(7, "2024-03-28", row("1.0.0.0/24", 2, "Cairo", "Quito"), row("6.0.0.0/24", 2, "Kyiv", "Minsk"), row("7.0.0.0/24", 2, "Bern", "Nice")),
	}
}

// emptyArrayChain starts from a snapshot published with
// `"entries": []`, which only a snapshot can hold (a delta rebuilds zero
// entries as nil), and goes through a zero-entry day.
func emptyArrayChain() []packedDay {
	first := day(0, "2024-03-21")
	first.doc.Entries = []core.DocumentEntry{}
	return []packedDay{
		first,
		day(1, "2024-03-22", row("1.0.0.0/24", 2, "Cairo", "Quito")),
		day(2, "2024-03-23"),
		day(3, "2024-03-24", row("1.0.0.0/24", 2, "Cairo", "Quito"), row("9.0.0.0/24", 1, "Sofia")),
	}
}

// checkRowWalk compares every reader of the archive in dir with the
// reference walk, day by day and window by window. Each read must count
// one day-file per day from the snapshot its first day derives from
// through its last.
func checkRowWalk(t *testing.T, dir string) {
	t.Helper()
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range a.Families() {
		days := a.Days(fam)
		var ref []packedDay // the reference walk's days, in order
		var lines [][]byte  // their json.Marshal bytes
		reads := a.Decodes()
		if err := a.RefRange(fam, 0, -1, func(d int, doc *core.Document) error {
			line, err := json.Marshal(doc)
			ref, lines = append(ref, packedDay{d, doc}), append(lines, line)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if reads = a.Decodes() - reads; reads != int64(len(days)) {
			t.Fatalf("%s: the reference read %d day-files for %d days", fam, reads, len(days))
		}
		// files is what reading days[i..j] must cost.
		files := func(i, j int) int64 {
			for i > 0 {
				if rec, _ := a.Record(fam, days[i]); rec.Kind == archive.KindSnapshot {
					break
				}
				i--
			}
			return int64(j - i + 1)
		}
		for i, d := range days {
			reads := a.Decodes()
			got, err := a.Document(fam, d)
			if err != nil {
				t.Fatalf("%s day %d: %v", fam, d, err)
			}
			if reads = a.Decodes() - reads; reads != files(i, i) || !reflect.DeepEqual(got, ref[i].doc) {
				t.Fatalf("%s day %d: Document (%d day-files read) differs from the reference (%d)", fam, d, reads, files(i, i))
			}
			checkDay(t, a, fam, d, ref[i].doc, files(i, i))
		}
		for i := range days {
			for j := i; j < len(days); j++ {
				to := days[j]
				if j == len(days)-1 {
					to = -1 // through the last day
				}
				var docs []packedDay
				reads := a.Decodes()
				if err := a.Range(fam, days[i], to, func(d int, doc *core.Document) error {
					docs = append(docs, packedDay{d, doc})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if reads = a.Decodes() - reads; reads != files(i, j) || !reflect.DeepEqual(docs, ref[i:j+1]) {
					t.Fatalf("%s [%d, %d]: Range (%d day-files read) differs from the reference (%d)", fam, days[i], to, reads, files(i, j))
				}
				k := i
				reads = a.Decodes()
				if err := a.RangeJSON(fam, days[i], to, func(d int, line []byte) error {
					if k > j || d != days[k] || !bytes.Equal(line, lines[k]) {
						t.Fatalf("%s [%d, %d]: RangeJSON line for day %d\n%s\nthe reference's json.Marshal\n%s", fam, days[i], to, d, line, lines[min(k, j)])
					}
					k++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if reads = a.Decodes() - reads; reads != files(i, j) || k != j+1 {
					t.Fatalf("%s [%d, %d]: RangeJSON gave %d lines reading %d day-files, want %d reading %d", fam, days[i], to, k-i, reads, j-i+1, files(i, j))
				}
			}
		}
	}
}

// checkDay holds Day to the reference document want: its bytes are
// StreamDocument's of want, read from the given number of day-files, its
// header is want's, and its rows' Find finds each of want's prefixes as
// Document.Find finds it in want (a day out of canonical order may hide
// a row from both), and no prefix want lacks.
func checkDay(t *testing.T, a *archive.Archive, fam string, d int, want *core.Document, files int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := core.StreamDocument(&buf, want); err != nil {
		t.Fatal(err)
	}
	reads := a.Decodes()
	got, err := a.Day(fam, d)
	if err != nil {
		t.Fatalf("%s day %d: Day: %v", fam, d, err)
	}
	if reads = a.Decodes() - reads; reads != files || !bytes.Equal(got.Bytes(), buf.Bytes()) {
		t.Fatalf("%s day %d: Day (%d day-files read, want %d)\n%s\nStreamDocument of the reference\n%s", fam, d, reads, files, got.Bytes(), buf.Bytes())
	}
	hdr := *want
	hdr.Entries = nil
	if h := got.Rows().Header(); !reflect.DeepEqual(h, hdr) {
		t.Fatalf("%s day %d: header %+v, the reference's %+v", fam, d, h, hdr)
	}
	for _, e := range want.Entries {
		row, ok, err := got.Rows().Find(e.Prefix)
		if w := want.Find(e.Prefix); err != nil || ok != (w != nil) || ok && !reflect.DeepEqual(row, *w) {
			t.Fatalf("%s day %d: Find(%q) = %+v, %v, %v; Document.Find of the reference %+v", fam, d, e.Prefix, row, ok, err, w)
		}
	}
	if row, ok, _ := got.Rows().Find("192.0.2.0/24"); ok {
		t.Fatalf("%s day %d: Find of a prefix no day holds gives %+v", fam, d, row)
	}
}

// TestEdgeChainReachesEveryPath checks that the edge chains hold what
// their comments promise at every cadence: a day published as
// `"entries": null` and one as `"entries": []`, a day-file the row split
// declines (the escaped row), and a delta whose escaped header the split
// still takes.
func TestEdgeChainReachesEveryPath(t *testing.T) {
	for _, every := range []int{1, 2, 3, 7} {
		dir := t.TempDir()
		aw, err := archive.Create(dir, archive.Options{SnapshotEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		days := edgeChain()
		for _, d := range emptyArrayChain() {
			d.doc.Family = "ipv6"
			days = append(days, d)
		}
		for _, d := range days {
			if err := aw.Append(d.day, d.doc); err != nil {
				t.Fatal(err)
			}
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
		a, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		lines := map[string]string{}
		for _, fam := range a.Families() {
			if err := a.RangeJSON(fam, 0, -1, func(d int, line []byte) error {
				lines[fmt.Sprint(fam, d)] = string(line)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Contains([]byte(lines["ipv42"]), []byte(`"entries":null`)) || !bytes.Contains([]byte(lines["ipv60"]), []byte(`"entries":[]`)) {
			t.Fatalf("every=%d: the zero-entry days are not published as null and []: %q, %q", every, lines["ipv42"], lines["ipv60"])
		}
		for _, c := range []struct {
			day   int
			split bool
		}{{3, false}, {4, true}} {
			rec, _ := a.Record("ipv4", c.day)
			b, err := os.ReadFile(filepath.Join(dir, rec.File))
			if err != nil {
				t.Fatal(err)
			}
			if ok := splitsIntoRows(t, rec, b); ok != c.split {
				t.Fatalf("every=%d: day %d (%s) splits into rows: %v, want %v", every, c.day, rec.Kind, ok, c.split)
			}
		}
	}
}
