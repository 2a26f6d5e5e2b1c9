package archive_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
)

// TestEveryReadPathRefusesAChangedDayFile: a day-file changed after it
// was packed — one gcd_sites digit of a delta (TestVerifyDetectsCorruption's
// edit, which keeps the writer's form), one city letter of a snapshot, or
// a space after a delta's first `"gcd_sites":`, which changes no value
// encoding/json reads — is refused by every read path. Day, Document, Range, RangeJSON and
// Verify fail for the changed day and for every later day of its chain,
// and /v1/range through api's Handler streams the days before it and
// then aborts; the days before it, and the chain after the next
// snapshot, still read. Each case runs on a fresh handle and on one that
// proved every day-file before the change, whose stored proofs the
// changed bytes must miss.
func TestEveryReadPathRefusesAChangedDayFile(t *testing.T) {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, kind    string
		day, chainEnd int // the changed day, and the next snapshot's
		change        func(t *testing.T, path string)
	}{
		{"delta", archive.KindDelta, 2, 4, func(t *testing.T, path string) { changeByteAfter(t, path, `"gcd_sites":`) }},
		{"snapshot", archive.KindSnapshot, 4, 8, func(t *testing.T, path string) {
			changeByteAfter(t, path, `"gcd_cities": [`+"\n"+`        "`)
		}},
		{"reformatted_delta", archive.KindDelta, 2, 4, func(t *testing.T, path string) { insertAfter(t, path, `"gcd_sites":`, " ") }},
	} {
		for _, proven := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/proven=%v", c.name, proven), func(t *testing.T) {
				dir := t.TempDir()
				packProofChain(t, dir)
				a, err := archive.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if proven {
					if _, err := a.Verify(); err != nil {
						t.Fatal(err)
					}
				}
				rec, _ := a.Record("ipv4", c.day)
				if rec.Kind != c.kind {
					t.Fatalf("day %d is a %s, want a %s", c.day, rec.Kind, c.kind)
				}
				c.change(t, filepath.Join(dir, rec.File))
				if !proven {
					if a, err = archive.Open(dir); err != nil {
						t.Fatal(err)
					}
				}
				checkRefused(t, a, serve(t, w, dep, a), c.day, c.chainEnd)
			})
		}
	}
}

// serve returns the handler of an api server over the archive a.
func serve(t *testing.T, w *netsim.World, dep *netsim.Deployment, a *archive.Archive) http.Handler {
	t.Helper()
	s, err := api.NewServer(w, dep, func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Archive = a
	return s.Handler()
}

// TestForgedRecordGetsTheProvenBytesOrAnError: a snapshot with one row
// out of the writer's form — a space after its `"origin_asn":` — under a
// record forged to the file's CRC-32C and sizes is served as the file's
// own bytes or not at all. Day and /v1/census give exactly the file, so
// the body's CRC-32C is the one in its ETag; Document, Range and
// /v1/prefix for that row fail, /v1/prefix with a 500 that carries no
// validator; the day's other rows still answer. Each read runs twice on
// one handle: first, and again once the day-file is proven.
func TestForgedRecordGetsTheProvenBytesOrAnError(t *testing.T) {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	packProofChain(t, dir)
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := a.Record("ipv4", 4)
	if rec.Kind != archive.KindSnapshot {
		t.Fatalf("day 4 is a %s, want a snapshot", rec.Kind)
	}
	path := filepath.Join(dir, rec.File)
	insertAfter(t, path, `"origin_asn":`, " ")
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forgeRecord(t, dir, rec.Seq, func(r *archive.Record) {
		r.CRC, r.Bytes, r.FullBytes = crc32.Checksum(file, crc32.MakeTable(crc32.Castagnoli)), int64(len(file)), int64(len(file))
	})
	var doc core.Document
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	bad, good := doc.Entries[0].Prefix, doc.Entries[1].Prefix
	if a, err = archive.Open(dir); err != nil {
		t.Fatal(err)
	}
	h := serve(t, w, dep, a)
	for _, pass := range []string{"first", "proven"} {
		if d, err := a.Day("ipv4", 4); err != nil || !bytes.Equal(d.Bytes(), file) {
			t.Fatalf("%s: Day = %v; want the file's %d bytes", pass, err, len(file))
		}
		res := get(h, "/v1/census?day=4")
		if crc := crc32.Checksum(res.Body.Bytes(), crc32.MakeTable(crc32.Castagnoli)); res.Code != http.StatusOK || !bytes.Equal(res.Body.Bytes(), file) ||
			res.Header().Get("Etag") != fmt.Sprintf(`"ipv4-4-%08x"`, crc) {
			t.Fatalf("%s: /v1/census: %d, %d bytes under %s; want 200 with the file's %d bytes under %q",
				pass, res.Code, res.Body.Len(), res.Header().Get("Etag"), len(file), fmt.Sprintf(`"ipv4-4-%08x"`, crc))
		}
		if _, err := a.Document("ipv4", 4); err == nil {
			t.Errorf("%s: Document decodes the row out of the writer's form", pass)
		}
		if err := a.Range("ipv4", 4, 4, func(int, *core.Document) error { return nil }); err == nil {
			t.Errorf("%s: Range decodes the row out of the writer's form", pass)
		}
		res = get(h, "/v1/prefix/"+bad+"?day=4")
		if res.Code != http.StatusInternalServerError || res.Header().Get("Etag") != "" || res.Header().Get("Cache-Control") != "" {
			t.Errorf("%s: /v1/prefix of the row out of the writer's form: %d, ETag %q, Cache-Control %q; want a 500 with neither",
				pass, res.Code, res.Header().Get("Etag"), res.Header().Get("Cache-Control"))
		}
		if res = get(h, "/v1/prefix/"+good+"?day=4"); res.Code != http.StatusOK {
			t.Errorf("%s: /v1/prefix of another row: %d %s", pass, res.Code, res.Body)
		}
	}
}

// get GETs target from h.
func get(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

// forgeRecord rewrites the index record of the archive in dir whose seq
// is seq by edit.
func forgeRecord(t *testing.T, dir string, seq int, edit func(*archive.Record)) {
	t.Helper()
	path := filepath.Join(dir, archive.IndexFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	for i, ln := range lines {
		var rec archive.Record
		if len(ln) == 0 || json.Unmarshal(ln, &rec) != nil || rec.Seq != seq {
			continue
		}
		edit(&rec)
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = append(out, '\n')
		if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("the index holds no record %d", seq)
}

// checkRefused holds every read path of a, and /v1/range through h, to
// refusing the ipv4 days [changed, chainEnd) and serving every other.
func checkRefused(t *testing.T, a *archive.Archive, h http.Handler, changed, chainEnd int) {
	t.Helper()
	days := a.Days("ipv4")
	for _, d := range days {
		refused := changed <= d && d < chainEnd
		_, dayErr := a.Day("ipv4", d)
		_, docErr := a.Document("ipv4", d)
		rangeErr := a.Range("ipv4", d, d, func(int, *core.Document) error { return nil })
		lineErr := a.RangeJSON("ipv4", d, d, func(int, []byte) error { return nil })
		for _, r := range []struct {
			path string
			err  error
		}{{"Day", dayErr}, {"Document", docErr}, {"Range", rangeErr}, {"RangeJSON", lineErr}} {
			if (r.err != nil) != refused {
				t.Errorf("%s of day %d: error %v, want one: %v", r.path, d, r.err, refused)
			}
		}
		lines, aborted := serveRange(h, fmt.Sprintf("/v1/range?from=%d&to=%d", d, d))
		if aborted != refused || !refused && lines != 1 {
			t.Errorf("/v1/range of day %d: %d lines, aborted %v; want an abort: %v", d, lines, aborted, refused)
		}
	}
	var seen []int
	rangeErr := a.Range("ipv4", 0, -1, func(d int, _ *core.Document) error {
		seen = append(seen, d)
		return nil
	})
	if rangeErr == nil || len(seen) != changed {
		t.Errorf("Range of every day: days %v, error %v; want days before %d, then an error", seen, rangeErr, changed)
	}
	seen = seen[:0]
	lineErr := a.RangeJSON("ipv4", 0, -1, func(d int, _ []byte) error {
		seen = append(seen, d)
		return nil
	})
	if lineErr == nil || len(seen) != changed {
		t.Errorf("RangeJSON of every day: days %v, error %v; want days before %d, then an error", seen, lineErr, changed)
	}
	if lines, aborted := serveRange(h, "/v1/range"); !aborted || lines != changed {
		t.Errorf("/v1/range of every day: %d lines, aborted %v; want %d lines, then an abort", lines, aborted, changed)
	}
	if res, err := a.Verify(); err == nil {
		t.Errorf("Verify accepted a changed day-file (%d days)", res.Days)
	}
}

// serveRange GETs target from h and returns the lines the response
// carries and whether the handler aborted it mid-body.
func serveRange(h http.Handler, target string) (lines int, aborted bool) {
	rec := httptest.NewRecorder()
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			lines, aborted = bytes.Count(rec.Body.Bytes(), []byte("\n")), true
		}
	}()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != http.StatusOK {
		return 0, true
	}
	return bytes.Count(rec.Body.Bytes(), []byte("\n")), false
}

// packProofChain packs nine ipv4 days at snapshot cadence 4 (snapshots
// on days 0, 4 and 8), each day changing some rows' site counts, so each
// delta upserts rows with a gcd_sites field.
func packProofChain(t *testing.T, dir string) {
	t.Helper()
	aw, err := archive.Create(dir, archive.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 9; n++ {
		var rows []core.DocumentEntry
		for i := 0; i < 20; i++ {
			rows = append(rows, row(fmt.Sprintf("1.0.%d.0/24", i), 2+(i+n/(1+i%3))%7, "London", "Paris"))
		}
		d := day(n, fmt.Sprintf("2024-03-%02d", n+1), rows...)
		if err := aw.Append(d.day, d.doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
}

// insertAfter inserts ins after the first field in the file at path.
func insertAfter(t *testing.T, path, field, ins string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		t.Fatalf("%s holds no %q", path, field)
	}
	i += len(field)
	b = append(b[:i:i], append([]byte(ins), b[i:]...)...)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// changeByteAfter changes the byte that follows the first field in the
// file at path, a digit to another digit and a letter to another letter,
// so the file keeps the writer's form.
func changeByteAfter(t *testing.T, path, field string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		t.Fatalf("%s holds no %q", path, field)
	}
	i += len(field)
	switch b[i] {
	case '9':
		b[i] = '8'
	case 'X':
		b[i] = 'Y'
	default:
		if '0' <= b[i] && b[i] <= '9' {
			b[i] = '9'
		} else {
			b[i] = 'X'
		}
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
