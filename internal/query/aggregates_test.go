package query

// Tests for the materialized aggregates sidecar and the memoized
// event lists of family-wide event scans.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// referenceEvents is Events as a reference computes it: every row
// detected over the whole day list, the events filtered by window and
// kind, and a stable sort by day.
func referenceEvents(t *testing.T, ix *Index, family string, kinds []EventKind, from, to int, opts EventOptions) []Event {
	t.Helper()
	fam := ix.fams[family]
	var all []Event
	for _, ref := range fam.prefixes {
		var r row
		if err := r.load(ref, len(fam.days), ix.record(ref)); err != nil {
			t.Fatal(err)
		}
		all = r.detect(all, family, ref.prefix, fam.days, opts)
	}
	var out []Event
	for _, e := range all {
		if e.Day >= from && (to < 0 || e.Day <= to) && (len(kinds) == 0 || slices.Contains(kinds, e.Kind)) {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Day < out[b].Day })
	return out
}

// TestEventsMatchReference: every window Events answers from the
// memoized full-history list equals the reference's scan of that window
// — every (from, to) pair of the fixture's days, an open end, an empty
// window and one past the last day, at every hysteresis from 1 to one
// past the day count (so the memo drops and recomputes lists), for
// every kind subset.
func TestEventsMatchReference(t *testing.T) {
	_, ix := buildIndex(t, synthChain(12, 60))
	days := ix.fams["ipv4"].days
	n := len(days)
	var windows [][2]int
	for a := range days {
		for b := a; b < n; b++ {
			windows = append(windows, [2]int{days[a], days[b]})
		}
		windows = append(windows, [2]int{days[a], -1})
	}
	windows = append(windows, [2]int{5, 4}, [2]int{days[n-1] + 1, days[n-1] + 50})
	all := EventKinds()
	for h := 1; h <= n+1; h++ {
		opts := EventOptions{Hysteresis: h}
		for mask := 0; mask < 1<<len(all); mask++ {
			var kinds []EventKind
			for k := range all {
				if mask&(1<<k) != 0 {
					kinds = append(kinds, all[k])
				}
			}
			for _, w := range windows {
				got, err := ix.Events("ipv4", kinds, w[0], w[1], opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceEvents(t, ix, "ipv4", kinds, w[0], w[1], opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("hysteresis %d, kinds %v, window [%d,%d]: %d events, want %d", h, kinds, w[0], w[1], len(got), len(want))
				}
				if len(got) != cap(got) {
					t.Fatalf("hysteresis %d, kinds %v, window [%d,%d]: capacity %d past its %d events", h, kinds, w[0], w[1], cap(got), len(got))
				}
			}
		}
	}
	if scanned, pruned := ix.EventScanStats(); scanned == 0 || pruned != 0 {
		t.Fatalf("EventScanStats = %d, %d; want rows scanned and none pruned", scanned, pruned)
	}
}

// TestEventMemoIsBounded: twenty distinct hysteresis values leave at
// most eventMemoSize lists memoized, the most recently asked for first,
// and a list still memoized is not scanned again.
func TestEventMemoIsBounded(t *testing.T) {
	_, ix := buildIndex(t, synthChain(12, 60))
	rows := int64(len(ix.fams["ipv4"].prefixes))
	for h := 1; h <= 20; h++ {
		if _, err := ix.Events("ipv4", nil, 0, -1, EventOptions{Hysteresis: h}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ix.events.lists); got > eventMemoSize {
		t.Fatalf("%d lists memoized after 20 hysteresis values, bound %d", got, eventMemoSize)
	}
	if got := ix.events.lists[0].key; got != (eventsKey{"ipv4", 20}) {
		t.Fatalf("front of the memo is %+v, want the last asked for", got)
	}
	if scanned, _ := ix.EventScanStats(); scanned != 20*rows {
		t.Fatalf("%d rows scanned for 20 lists of %d rows", scanned, rows)
	}
	if _, err := ix.Events("ipv4", nil, 3, 7, EventOptions{Hysteresis: 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Events("ipv4", nil, 3, 7, EventOptions{Hysteresis: 1}); err != nil {
		t.Fatal(err)
	}
	if scanned, _ := ix.EventScanStats(); scanned != 21*rows {
		t.Fatalf("%d rows scanned: a memoized list was scanned again, or a dropped one was not", scanned)
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
			b := ix.record(ref)
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
	rec := ix.record(ix.fams["ipv4"].prefixes[pos])
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
// A window of a memoized event list makes none. A Timeline makes a
// constant few: the row and the columns it fills.
func TestEventScanAllocs(t *testing.T) {
	for _, entries := range []int{150, 600} {
		_, ix := buildIndex(t, synthChain(40, entries))
		prefix := ix.Prefixes("ipv4")[entries/2]
		for _, tc := range []struct {
			name  string
			bound float64
			run   func() error
		}{
			{"event list scan", 64, func() error {
				_, err := ix.allEvents("ipv4", ix.fams["ipv4"], EventOptions{}.withDefaults())
				return err
			}},
			{"Events 3-day window, memoized", 0, func() error { _, err := ix.Events("ipv4", nil, 20, 22, EventOptions{}); return err }},
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
