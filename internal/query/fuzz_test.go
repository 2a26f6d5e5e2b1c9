package query

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
)

// FuzzBuildDeltaDay: a build applies a delta day-file to the rows
// directly, never to a document, so its reading of a delta has to agree
// with core.DocumentDelta.Apply on every input. Fuzzed bytes replace
// the ipv4 family's last delta of a small two-family archive (snapshot
// cadence 3; that delta is the newest day). Build — from scratch, and
// resumed from the index of the days before — must not panic, must fail
// exactly when archive.Range over ipv4 fails, and when it succeeds must
// write the timeline.idx and .agg a from-scratch build writes over
// Range's documents re-packed at cadence 1, where no day is a delta (a
// document carrying a prefix the writer refuses is planted in its
// day-file).
// Each build allocates at most twice what it does on the real file plus
// 64 bytes per input byte: FuzzArchiveOpen's bound.
func FuzzBuildDeltaDay(f *testing.F) {
	const last = 4 // days 0..4: snapshots on 0 and 3, deltas on 1, 2 and 4
	v4 := synthChain(last+1, 12)
	v6 := asV6(v4)
	src := f.TempDir()
	for d := 0; d < last; d++ {
		appendDaysEvery(f, src, []DayDoc{{d, v4[d]}, {d, v6[d]}}, 3)
	}
	if _, err := BuildDir(src); err != nil {
		f.Fatal(err)
	}
	prevIdx, prevAgg := indexFiles(f, filepath.Join(src, IndexFileName))
	appendDaysEvery(f, src, []DayDoc{{last, v4[last]}, {last, v6[last]}}, 3)
	a, err := archive.Open(src)
	if err != nil {
		f.Fatal(err)
	}
	rec, _ := a.Record("ipv4", last)
	if rec.Kind != archive.KindDelta {
		f.Fatalf("ipv4 day %d is a %s, want a delta", last, rec.Kind)
	}
	files, err := filepath.Glob(filepath.Join(src, "ipv*.json"))
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, filepath.Join(src, archive.IndexFile))
	delta, err := os.ReadFile(filepath.Join(src, rec.File))
	if err != nil {
		f.Fatal(err)
	}

	carried, gone := v4[last-1].Entries[0].Prefix, ""
	for _, e := range v4[0].Entries {
		if v4[last-1].Find(e.Prefix) == nil {
			gone = e.Prefix
		}
	}
	if gone == "" {
		f.Fatal("the fixture has no prefix absent on the day before the fuzzed one")
	}
	header := `{"header":{"date":"2024-03-05","family":"ipv4","gcd_confirmed":1}`
	f.Add(delta)
	f.Add(bytes.Replace(delta, []byte(`"family":"ipv4"`), []byte(`"family":"ipv6"`), 1))
	f.Add([]byte(header + `}`))
	f.Add([]byte(header + `,"removed":["` + carried + `"]}`))
	f.Add([]byte(header + `,"removed":["` + gone + `"]}`))
	f.Add([]byte(header + `,"removed":["` + carried + `","` + carried + `"]}`))
	f.Add([]byte(header + `,"removed":["` + carried + `"],"upserts":[{"prefix":"` + carried + `","gcd_sites":9}]}`))
	f.Add([]byte(header + `,"upserts":[{"prefix":"1.0.1.0/24","gcd_sites":1},{"prefix":"1.0.1.0/24","gcd_sites":2}]}`))
	f.Add([]byte(header + `,"upserts":[{"prefix":"` + gone + `","gcd_anycast":true,"gcd_cities":["Oslo"]},{"prefix":"zz"},{"prefix":"1.0.1.0/24"}]}`))
	f.Add(delta[:len(delta)/2])

	base := buildDeltaDay(f, src, prevIdx, prevAgg)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, p := range files {
			if err := os.Link(p, filepath.Join(dir, filepath.Base(p))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Remove(filepath.Join(dir, rec.File)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rec.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		alloc := buildDeltaDay(t, dir, prevIdx, prevAgg)
		for i, limit := range base {
			if limit = 2*limit + 64*uint64(len(data)); alloc[i] > limit {
				t.Fatalf("build %d over a %d-byte delta allocated %d bytes, over the bound %d", i, len(data), alloc[i], limit)
			}
		}
	})
}

// buildDeltaDay holds the archive at dir to FuzzBuildDeltaDay's
// property: it builds the index from scratch, then again resumed from
// prevIdx and prevAgg, and returns what each build allocated.
func buildDeltaDay(t testing.TB, dir string, prevIdx, prevAgg []byte) (alloc [2]uint64) {
	t.Helper()
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var days []DayDoc
	rangeErr := a.Range("ipv4", 0, -1, func(day int, doc *core.Document) error {
		days = append(days, DayDoc{day, doc.DeepCopy()})
		return nil
	})
	scratch := filepath.Join(t.TempDir(), IndexFileName)
	resumed := filepath.Join(dir, IndexFileName)
	if err := os.WriteFile(resumed, prevIdx, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(AggregatesPath(resumed), prevAgg, 0o644); err != nil {
		t.Fatal(err)
	}
	var results [2]*BuildResult
	var errs [2]error
	for i, path := range []string{scratch, resumed} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		results[i], errs[i] = Build(a, path)
		runtime.ReadMemStats(&after)
		alloc[i] = after.TotalAlloc - before.TotalAlloc
		if (errs[i] == nil) != (rangeErr == nil) {
			t.Fatalf("build %d: error %v, but archive.Range: %v", i, errs[i], rangeErr)
		}
	}
	if rangeErr != nil {
		return alloc
	}
	if !results[1].Resumed || results[1].DaysDecoded != 2 {
		t.Fatalf("the resumed build reports %+v, want the two newest day-files decoded", results[1])
	}
	if err := a.Range("ipv6", 0, -1, func(day int, doc *core.Document) error {
		days = append(days, DayDoc{day, doc.DeepCopy()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The writer refuses a prefix that does not parse, which a fuzzed
	// delta can upsert: such a day is packed with a stand-in prefix, and
	// then its document, as Range gave it, is planted in its snapshot
	// day-file.
	ref := t.TempDir()
	packed, planted := make([]DayDoc, len(days)), []DayDoc{}
	for i, d := range days {
		doc := *d.Doc
		doc.Entries = slices.Clone(doc.Entries)
		for j := range doc.Entries {
			if _, err := netip.ParsePrefix(doc.Entries[j].Prefix); err != nil {
				doc.Entries[j].Prefix = "0.0.0.0/0"
			}
		}
		if !slices.EqualFunc(doc.Entries, d.Doc.Entries, func(a, b core.DocumentEntry) bool { return a.Prefix == b.Prefix }) {
			planted = append(planted, d)
		}
		packed[i] = DayDoc{d.Day, &doc}
	}
	appendDaysEvery(t, ref, packed, 1)
	if len(planted) > 0 {
		stored, err := archive.Open(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range planted {
			rec, _ := stored.Record(d.Doc.Family, d.Day)
			var b bytes.Buffer
			if err := d.Doc.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(ref, rec.File), b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := BuildDir(ref); err != nil {
		t.Fatalf("building the cadence-1 re-pack: %v", err)
	}
	wantIdx, wantAgg := indexFiles(t, filepath.Join(ref, IndexFileName))
	for i, path := range []string{scratch, resumed} {
		idx, agg := indexFiles(t, path)
		if !bytes.Equal(idx, wantIdx) || !bytes.Equal(agg, wantAgg) {
			t.Fatalf("build %d (%+v): the index or sidecar differs from the cadence-1 re-pack's", i, results[i])
		}
	}
	return alloc
}
