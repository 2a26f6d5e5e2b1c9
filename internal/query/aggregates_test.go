package query

// Tests for the materialized aggregates sidecar and the day-window
// pruning path of family-wide event scans.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestEventsWindowEquivalence: a windowed scan must return exactly the
// in-window slice of the full scan — the presence-bitmap pruning is an
// optimization, never a semantic change — and must prune rows whose
// prefixes have no presence near the window.
func TestEventsWindowEquivalence(t *testing.T) {
	_, ix := buildIndex(t, synthChain(40, 150))
	full, err := ix.Events("ipv4", nil, 0, -1, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("synthetic chain produced no events")
	}
	for _, w := range [][2]int{{0, 5}, {8, 12}, {35, 39}, {10, 10}, {0, 39}, {38, 100}} {
		from, to := w[0], w[1]
		got, err := ix.Events("ipv4", nil, from, to, EventOptions{})
		if err != nil {
			t.Fatalf("window [%d,%d]: %v", from, to, err)
		}
		var want []Event
		for _, e := range full {
			if e.Day >= from && e.Day <= to {
				want = append(want, e)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window [%d,%d]: %d events, want %d (pruned scan diverges from filtered full scan)",
				from, to, len(got), len(want))
		}
	}
	// A window between indexed days but out of every timeline is empty.
	empty, err := ix.Events("ipv4", nil, 500, 900, EventOptions{})
	if err != nil || len(empty) != 0 {
		t.Fatalf("out-of-range window: %d events, err %v", len(empty), err)
	}
	scanned, pruned := ix.EventScanStats()
	if scanned == 0 {
		t.Fatal("no rows counted as scanned")
	}
	if pruned == 0 {
		t.Fatal("narrow windows pruned no rows — the bitmap-prefix check never fired")
	}
	if pruned > scanned {
		t.Fatalf("pruned %d > scanned %d", pruned, scanned)
	}
}

// withRowLen returns a copy of toc whose directory entry for prefix
// declares a row of length bytes. The entry is the prefix's str16 —
// matched with its length prefix, so 2.1.7.0/24 does not match inside
// 192.1.7.0/24 — then origin, offset and length.
func withRowLen(t testing.TB, toc []byte, prefix string, length uint32) []byte {
	t.Helper()
	name := binary.LittleEndian.AppendUint16(nil, uint16(len(prefix)))
	at := bytes.Index(toc, append(name, prefix...))
	if at < 0 {
		t.Fatalf("no directory entry for %s", prefix)
	}
	out := bytes.Clone(toc)
	binary.LittleEndian.PutUint32(out[at+len(name)+len(prefix)+4+8:], length)
	return out
}

// withRow returns the ipv4 index image with prefix's row record
// replaced by rec, re-encoded — the TOC offsets and lengths follow — and
// sealed with true CRCs.
func withRow(t testing.TB, image []byte, prefix string, rec []byte) []byte {
	t.Helper()
	ix, err := openImage(image)
	if err != nil {
		t.Fatal(err)
	}
	var rows []byte
	replaced := false
	for _, family := range ix.order {
		refs := ix.fams[family].prefixes
		for i, ref := range refs {
			b := image[ix.rowsOff+ref.off:][:ref.length]
			if family == "ipv4" && ref.prefix == prefix {
				b, replaced = rec, true
			}
			refs[i].off, refs[i].length = int64(len(rows)), len(b)
			rows = append(rows, b...)
		}
	}
	if !replaced {
		t.Fatalf("no ipv4 row for %s to replace", prefix)
	}
	return sealIndex(ix.encodeTOC(), rows)
}

// TestShortRowFailsEveryWindow: every reader refuses a row record in a
// form encode does not write — Timeline, Stability, the full event
// scan, the aggregates pass and a build that would resume from the
// index, which builds from scratch instead. A row
// too short for its flag bitmaps is also an error on every narrow event
// window, never a prefix the presence prune skips in silence; the other
// forms hold whole bitmaps, which the prune reads. The row is
// 2.1.7.0/24's, absent on days 0–9, so a prune that read the bytes at
// the row's offset without checking its length dropped it on those
// windows.
func TestShortRowFailsEveryWindow(t *testing.T) {
	const prefix, nDays = "2.1.7.0/24", 20
	dir, ix := buildIndex(t, synthChain(nDays, 40))
	committed := filepath.Join(dir, IndexFileName)
	image, _ := indexFiles(t, committed)
	pos := slices.Index(ix.Prefixes("ipv4"), prefix)
	rec, err := ix.readRow(nil, ix.fams["ipv4"].prefixes[pos])
	if err != nil {
		t.Fatal(err)
	}
	bl := bitmapLen(nDays)
	series := nFlags * bl // the first sites varint: 0, one byte
	pastLast := bytes.Clone(rec)
	pastLast[2*bl-1] |= 1 << (nDays % 8) // day 20 of 0..19, in the candidate bitmap
	for _, tc := range []struct {
		name  string
		rec   []byte
		short bool
	}{
		{"shorter than flags", rec[:series-1], true},
		{"trailing byte", append(bytes.Clone(rec), 0), false},
		{"truncated", rec[:len(rec)-1], false},
		{"padded varint", slices.Concat(rec[:series], []byte{rec[series] | 0x80, 0x00}, rec[series+1:]), false},
		{"flag past last day", pastLast, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := withRow(t, image, prefix, tc.rec)
			path := filepath.Join(t.TempDir(), IndexFileName)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			ix, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			want := "row for " + prefix
			if tc.short {
				want += " shorter than its bitmaps"
			}
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %v, want %q", what, err, want)
				}
			}
			_, err = ix.Events("ipv4", nil, 0, -1, EventOptions{})
			check("full scan", err)
			for d := 0; tc.short && d < nDays; d++ {
				_, err := ix.Events("ipv4", nil, d, d, EventOptions{})
				check(fmt.Sprintf("window [%d,%d]", d, d), err)
			}
			_, err = ix.Stability("ipv4", prefix)
			check("Stability", err)
			_, err = ix.Timeline("ipv4", prefix)
			check("Timeline", err)
			_, err = ix.computeAggregates()
			check("aggregates", err)
			// Committed in the archive's directory, it is not resumed from.
			if err := os.WriteFile(committed+".bad", bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(committed+".bad", committed); err != nil {
				t.Fatal(err)
			}
			if res := buildAndCompare(t, dir, tc.name); res.FromScratch != fmt.Sprintf("row %d", pos) {
				t.Errorf("build: %+v, want FromScratch row %d", res, pos)
			}
		})
	}
}

// TestEventScanAllocs: the event scan and the aggregates pass read rows
// in place through reused buffers, so their allocation count is a
// constant — the same for 150 and 600 prefixes — not a number per row.
// A Timeline makes a constant few: the row and the columns it fills.
func TestEventScanAllocs(t *testing.T) {
	for _, entries := range []int{150, 600} {
		_, ix := buildIndex(t, synthChain(40, entries))
		prefix := ix.Prefixes("ipv4")[entries/2]
		for _, tc := range []struct {
			name  string
			bound float64
			run   func() error
		}{
			{"Events full", 64, func() error { _, err := ix.Events("ipv4", nil, 0, -1, EventOptions{}); return err }},
			{"Events 3-day window", 64, func() error { _, err := ix.Events("ipv4", nil, 20, 22, EventOptions{}); return err }},
			{"computeAggregates", 64, func() error { _, err := ix.computeAggregates(); return err }},
			{"Timeline", 16, func() error { _, err := ix.Timeline("ipv4", prefix); return err }},
		} {
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				if e := tc.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("%s over %d prefixes: %v", tc.name, entries, err)
			}
			t.Logf("%s over %d prefixes: %.0f allocations", tc.name, entries, allocs)
			if allocs > tc.bound {
				t.Errorf("%s over %d prefixes: %.0f allocations, want ≤ %.0f", tc.name, entries, allocs, tc.bound)
			}
		}
	}
}

// TestAggregatesSidecar: Build writes the sidecar; Open serves it
// (precomputed) with values identical to a fresh computation; a missing
// or corrupt sidecar silently degrades to compute-on-demand with the
// same answers.
func TestAggregatesSidecar(t *testing.T) {
	docs := synthChain(30, 120)
	dir, ix := buildIndex(t, docs)
	sidecar := AggregatesPath(filepath.Join(dir, IndexFileName))
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("Build left no aggregates sidecar: %v", err)
	}
	if !ix.AggregatesPrecomputed() {
		t.Fatal("sidecar present but not loaded at Open")
	}
	ag, err := ix.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	if ag.Fingerprint != ix.Fingerprint() {
		t.Fatalf("sidecar fingerprint %q, index %q", ag.Fingerprint, ix.Fingerprint())
	}
	fa := ag.Family("ipv4")
	if fa == nil || fa.Days != 30 || len(fa.Series) != 30 || len(fa.Stability.Buckets) != 10 {
		t.Fatalf("aggregates degenerate: %+v", fa)
	}
	if fa.Churn.Events == 0 || fa.Churn.Onsets == 0 || fa.Churn.Offsets == 0 {
		t.Fatalf("churn summary empty: %+v", fa.Churn)
	}
	var bucketSum int
	for _, b := range fa.Stability.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != fa.Prefixes {
		t.Fatalf("stability histogram covers %d prefixes, family has %d", bucketSum, fa.Prefixes)
	}

	// Fresh computation agrees with the persisted sidecar.
	fresh, err := ix.computeAggregates()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ag, fresh) {
		t.Fatal("sidecar aggregates differ from a fresh computation")
	}

	// Without the sidecar the endpoint-facing API degrades, not breaks.
	if err := os.Remove(sidecar); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(filepath.Join(dir, IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.AggregatesPrecomputed() {
		t.Fatal("precomputed reported with no sidecar on disk")
	}
	ag2, err := reopened.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ag, ag2) {
		t.Fatal("computed-on-demand aggregates differ from the sidecar")
	}

	// A corrupt sidecar is ignored, not fatal.
	if err := os.WriteFile(sidecar, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, err := Open(filepath.Join(dir, IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer corrupt.Close()
	if corrupt.AggregatesPrecomputed() {
		t.Fatal("corrupt sidecar accepted")
	}
}

// TestFirstUseIsConcurrent: an opened index makes its prefix map on the
// first lookup and reads its sidecar on the first aggregates call, so
// requests racing to be first — as a server's do after a reload — must
// all get the same answers. Run under -race.
func TestFirstUseIsConcurrent(t *testing.T) {
	dir, _ := buildIndex(t, synthChain(12, 30))
	ix, err := Open(filepath.Join(dir, IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	prefixes := ix.Prefixes("ipv4")
	var wg sync.WaitGroup
	ags := make([]*Aggregates, 8)
	for g := range ags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range prefixes[g:] {
				if _, err := ix.Timeline("ipv4", p); err != nil {
					t.Error(err)
					return
				}
			}
			if !ix.AggregatesPrecomputed() {
				t.Error("the sidecar Build wrote was not used")
			}
			ag, err := ix.Aggregates()
			if err != nil {
				t.Error(err)
			}
			ags[g] = ag
		}()
	}
	wg.Wait()
	for _, ag := range ags[1:] {
		if ag != ags[0] {
			t.Fatal("concurrent first calls got different aggregates")
		}
	}
}

// TestAggregatesDeterministic: two builds over the same documents emit
// byte-identical sidecars — the property that keeps index-keyed ETags
// and dashboard payloads reproducible across rebuilds and machines.
func TestAggregatesDeterministic(t *testing.T) {
	docs := synthChain(20, 100)
	dirA, _ := buildIndex(t, docs)
	dirB, _ := buildIndex(t, docs)
	a, err := os.ReadFile(AggregatesPath(filepath.Join(dirA, IndexFileName)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(AggregatesPath(filepath.Join(dirB, IndexFileName)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("aggregates sidecar bytes differ across identical builds")
	}
}

// FuzzAggOpen feeds arbitrary bytes to a real index's aggregates sidecar.
// Open and Aggregates must not panic; a rejected sidecar must give the
// same Aggregates as computing them from the rows, and an accepted one
// must carry this index's schema and fingerprint. Open plus Aggregates
// may allocate at most twice what the real sidecar or a row scan costs,
// plus a fixed multiple of the input's length.
func FuzzAggOpen(f *testing.F) {
	dir, ix := buildIndex(f, synthChain(8, 20))
	path := filepath.Join(dir, IndexFileName)
	want, err := ix.computeAggregates()
	if err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(AggregatesPath(path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])                                                       // torn
	f.Add(bytes.Replace(good, []byte(aggSchema), []byte("laces-aggregates/v0"), 1)) // other schema
	f.Add(bytes.Replace(good, []byte(ix.Fingerprint()), []byte("stale"), 1))        // other index
	f.Add([]byte(`{"schema":"laces-aggregates/v1","families":[{"series":[{}]}]}`))

	// What reading the real sidecar, or scanning the rows, allocates: the
	// fixed part of the bound.
	_, _, accepted := openAggregates(f, path, good)
	_, _, scanned := openAggregates(f, path, []byte("{"))
	base := max(accepted, scanned)

	f.Fuzz(func(t *testing.T, data []byte) {
		ag, precomputed, alloc := openAggregates(t, path, data)
		if limit := 2*base + 64*uint64(len(data)); alloc > limit {
			t.Fatalf("Open+Aggregates with a %d-byte sidecar allocated %d bytes, over the bound %d", len(data), alloc, limit)
		}
		switch {
		case !precomputed && !reflect.DeepEqual(ag, want):
			t.Fatal("a rejected sidecar gave aggregates unlike a row scan's")
		case precomputed && (ag.Schema != aggSchema || ag.Fingerprint != want.Fingerprint):
			t.Fatalf("accepted a sidecar of schema %q, fingerprint %q", ag.Schema, ag.Fingerprint)
		}
	})
}

// openAggregates writes sidecar next to the index at path, opens the
// index and asks for its aggregates. It returns them, whether they came
// from the sidecar, and the bytes Open and Aggregates allocated.
func openAggregates(t testing.TB, path string, sidecar []byte) (*Aggregates, bool, uint64) {
	t.Helper()
	if err := os.WriteFile(AggregatesPath(path), sidecar, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ag, err := ix.Aggregates()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return ag, ix.AggregatesPrecomputed(), after.TotalAlloc - before.TotalAlloc
}

// BenchmarkQueryEventsWindow measures the windowed event scan: the
// narrow window should beat the full scan by skipping row decodes via
// the presence-bitmap prefix check.
func BenchmarkQueryEventsWindow(b *testing.B) {
	_, ix := buildIndex(b, synthChain(60, 400))
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Events("ipv4", nil, 0, -1, EventOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("narrow-window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Events("ipv4", nil, 20, 24, EventOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
