package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/core"
)

// FuzzArchiveOpen feeds arbitrary index.jsonl bytes to Open over the day
// files of a real two-family archive: the index is the archive's trust
// boundary. Every line must read as encoding/json reads it
// (checkRecordLine). Open, Verify, Range, RangeJSON and Day must not
// panic, every record Open accepts must name a file inside the
// directory, every day
// read a second time on the handle, through the proofs the first reading
// stored, must read as it did the first time, and what all of that
// allocates must stay within a fixed multiple of the input's length on
// top of what reading the real archive costs.
func FuzzArchiveOpen(f *testing.F) {
	src, dayFiles, seeds := fuzzIndexes(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	index := seeds[0]

	// What reading the real archive allocates: the fixed part of the bound.
	base := openVerifyRange(f, src, index)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			checkRecordLine(t, line)
		}
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

// FuzzRecordLine holds parseRecord, Open's read of an index line, to
// encoding/json (checkRecordLine), seeded with every line of
// FuzzArchiveOpen's indexes.
func FuzzRecordLine(f *testing.F) {
	_, _, seeds := fuzzIndexes(f)
	for _, seed := range seeds {
		for _, line := range bytes.Split(seed, []byte("\n")) {
			f.Add(line)
		}
	}
	f.Fuzz(checkRecordLine)
}

// checkRecordLine requires parseRecord to decline line or to read
// exactly the record json.Unmarshal reads, from exactly the bytes
// json.Marshal writes for it; and readRecord, which Open reads each
// line with, to give json.Unmarshal's record and error.
func checkRecordLine(t *testing.T, line []byte) {
	t.Helper()
	var want Record
	werr := json.Unmarshal(line, &want)
	if rec, ok := parseRecord(string(line)); ok {
		if werr != nil || rec != want {
			t.Fatalf("parseRecord read %q as %+v; json.Unmarshal: %+v, %v", line, rec, want, werr)
		}
		if b, err := json.Marshal(rec); err != nil || !bytes.Equal(b, line) {
			t.Fatalf("parseRecord accepted %q, which json.Marshal writes as %q", line, b)
		}
	}
	rec, err := readRecord(string(line))
	if rec != want || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("readRecord(%q) = %+v, %v; json.Unmarshal: %+v, %v", line, rec, err, want, werr)
	}
}

// fuzzIndexes packs a real two-family archive, five days each at cadence
// 3, into a temporary directory, and returns it, its day files, and the
// index seeds the fuzzers start from: the archive's own index first,
// then forged ones.
func fuzzIndexes(f *testing.F) (src string, dayFiles []string, seeds [][]byte) {
	src = f.TempDir()
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
	dayFiles, err = filepath.Glob(filepath.Join(src, "ipv*.json"))
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
	return src, dayFiles, [][]byte{
		index,
		append(bytes.Clone(index), `{"seq":10,"day":5,"fam`...),                                                 // torn tail
		forge(2, func(r *Record) { r.File = "../" + filepath.Base(src) + "/" + r.File }),                        // a `..` file
		forge(3, func(r *Record) { r.Kind, r.File = "full", dayFileName(r.Family, r.Day, "full") }),             // unknown kind
		forge(4, func(r *Record) { r.FullBytes = 64 << 20 }),                                                    // a size no day has
		bytes.Join([][]byte{lines[0], lines[1], lines[4], lines[3], lines[2], bytes.Join(lines[5:], nil)}, nil), // ipv4 days 0, 2, 1
	}
}

// openVerifyRange writes index as dir's index.jsonl, opens the archive,
// checks every accepted record names a file inside dir, then reads every
// day twice on the handle (readAll), the second time through the proofs
// the first stored: after a Verify that passes, every record holds one.
// The two readings
// must agree. It returns the bytes all of that allocated; errors other
// than an escaping record or a reading that differs are the input's own.
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
		first, verified := readAll(a)
		for i := range a.proofs {
			if verified && a.proofs[i].Load() == nil {
				t.Fatalf("Verify passed, but %s holds no proof", a.recs[i].File)
			}
		}
		if second, _ := readAll(a); second != first {
			t.Fatal("a second reading of the days on one handle differs from the first")
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readAll verifies a, ranges over each family, as documents and as
// lines, and rebuilds each day in canonical form. It returns a digest of
// everything those reads gave, errors included, and whether Verify
// passed.
func readAll(a *Archive) (digest [sha256.Size]byte, verified bool) {
	h := sha256.New()
	res, verr := a.Verify()
	fmt.Fprintln(h, res.Days, verr)
	enc := json.NewEncoder(h)
	for _, fam := range a.Families() {
		err := a.Range(fam, 0, -1, func(d int, doc *core.Document) error { return enc.Encode(doc) })
		fmt.Fprintln(h, err)
		err = a.RangeJSON(fam, 0, -1, func(d int, line []byte) error {
			_, err := h.Write(line)
			return err
		})
		fmt.Fprintln(h, err)
		for _, d := range a.Days(fam) {
			c, err := a.Day(fam, d)
			if err == nil {
				h.Write(c.Bytes())
			}
			fmt.Fprintln(h, err)
		}
	}
	h.Sum(digest[:0])
	return digest, verr == nil
}
