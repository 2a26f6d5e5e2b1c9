package archive

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/core"
)

// FuzzArchiveOpen feeds arbitrary index.jsonl bytes to Open over the day
// files of a real two-family archive: the index is the archive's trust
// boundary. Open, Verify and Range must not panic, every record Open
// accepts must name a file inside the directory, and what the three
// allocate must stay within a fixed multiple of the input's length on
// top of what reading the real archive costs.
func FuzzArchiveOpen(f *testing.F) {
	src := f.TempDir()
	w, err := Create(src, Options{SnapshotEvery: 3})
	if err != nil {
		f.Fatal(err)
	}
	v4, v6 := chain(5, 30), chain(5, 20)
	for i := range v4 {
		v6[i].Family = "ipv6"
		if err := w.Append(i, v4[i]); err != nil {
			f.Fatal(err)
		}
		if err := w.Append(i, v6[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(src, IndexFile))
	if err != nil {
		f.Fatal(err)
	}
	dayFiles, err := filepath.Glob(filepath.Join(src, "ipv*.json"))
	if err != nil || len(dayFiles) != 10 {
		f.Fatalf("the source archive holds %d day files (%v), want 10", len(dayFiles), err)
	}

	lines := bytes.SplitAfter(index, []byte("\n"))
	forge := func(line int, edit func(*Record)) []byte {
		var rec Record
		if err := json.Unmarshal(lines[line], &rec); err != nil {
			f.Fatal(err)
		}
		edit(&rec)
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return bytes.Join([][]byte{bytes.Join(lines[:line], nil), b, []byte("\n"), bytes.Join(lines[line+1:], nil)}, nil)
	}
	f.Add(index)
	f.Add(append(bytes.Clone(index), `{"seq":10,"day":5,"fam`...))                                                 // torn tail
	f.Add(forge(2, func(r *Record) { r.File = "../" + filepath.Base(src) + "/" + r.File }))                        // a `..` file
	f.Add(forge(3, func(r *Record) { r.Kind, r.File = "full", dayFileName(r.Family, r.Day, "full") }))             // unknown kind
	f.Add(bytes.Join([][]byte{lines[0], lines[1], lines[4], lines[3], lines[2], bytes.Join(lines[5:], nil)}, nil)) // ipv4 days 0, 2, 1

	// What reading the real archive allocates: the fixed part of the bound.
	base := openVerifyRange(f, src, index)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, p := range dayFiles {
			if err := os.Link(p, filepath.Join(dir, filepath.Base(p))); err != nil {
				t.Fatal(err)
			}
		}
		if alloc, limit := openVerifyRange(t, dir, data), 2*base+64*uint64(len(data)); alloc > limit {
			t.Fatalf("Open+Verify+Range of a %d-byte index allocated %d bytes, over the bound %d", len(data), alloc, limit)
		}
	})
}

// openVerifyRange writes index as dir's index.jsonl, opens the archive,
// checks every accepted record names a file inside dir, then verifies it
// and ranges over each family. It returns the bytes all of that
// allocated; errors other than an escaping record are the input's own.
func openVerifyRange(t testing.TB, dir string, index []byte) uint64 {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, IndexFile), index, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := Open(dir)
	if err == nil {
		for _, rec := range a.Records() {
			if !filepath.IsLocal(rec.File) || strings.ContainsAny(rec.File, `/\`) {
				t.Fatalf("Open accepted a record naming %q, outside the archive directory", rec.File)
			}
		}
		a.Verify()
		for _, fam := range a.Families() {
			a.Range(fam, 0, -1, func(int, *core.Document) error { return nil })
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
