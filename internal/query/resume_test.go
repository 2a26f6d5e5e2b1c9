package query

// The resumable build's contract: a Build that starts from the committed
// timeline.idx writes exactly what a Build of the same archive into an
// empty directory writes — index and aggregates sidecar, byte for byte —
// and whatever it cannot verify about that file it ignores, ending in
// the same bytes by the from-scratch route.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
)

// DayDoc is one census day to archive; the document names its family.
type DayDoc struct {
	Day int
	Doc *core.Document
}

// appendDays appends to the archive at dir, creating it if need be.
func appendDays(t testing.TB, dir string, days []DayDoc) {
	t.Helper()
	w, err := archive.OpenOrCreate(dir, archive.Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range days {
		if err := w.Append(d.Day, d.Doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// indexFiles reads the index at path and its sidecar.
func indexFiles(t testing.TB, path string) (idx, agg []byte) {
	t.Helper()
	idx, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	agg, err = os.ReadFile(AggregatesPath(path))
	if err != nil {
		t.Fatal(err)
	}
	return idx, agg
}

// buildAndCompare runs BuildDir on dir and requires its two files to
// equal those of a Build of the same archive into an empty directory.
func buildAndCompare(t testing.TB, dir, step string) *BuildResult {
	t.Helper()
	res, err := BuildDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scratch := filepath.Join(t.TempDir(), IndexFileName)
	ref, err := Build(a, scratch)
	if err != nil {
		t.Fatalf("%s: from-scratch reference: %v", step, err)
	}
	if ref.Resumed || ref.FromScratch != "no index" || ref.DaysDecoded != int64(len(a.Records())) {
		t.Fatalf("%s: the reference build into an empty directory reports %+v", step, ref)
	}
	gotIdx, gotAgg := indexFiles(t, filepath.Join(dir, IndexFileName))
	wantIdx, wantAgg := indexFiles(t, scratch)
	if !bytes.Equal(gotIdx, wantIdx) {
		t.Fatalf("%s: timeline.idx differs from a from-scratch build (%+v)", step, res)
	}
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Fatalf("%s: the .agg sidecar differs from a from-scratch build (%+v)", step, res)
	}
	if _, err := os.Stat(filepath.Join(dir, IndexFileName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("%s: a build left timeline.idx.tmp behind (stat: %v)", step, err)
	}
	return res
}

// CheckResumeEqualsScratch is the property: for every split point k,
// build over the first k days, then append-and-build one day at a time —
// and, from the same start, once in a single jump over all the rest —
// comparing with a from-scratch build at every step. A build that had an
// index of the same families to start from must have resumed from it.
func CheckResumeEqualsScratch(t *testing.T, days []DayDoc) {
	t.Helper()
	for k := 1; k < len(days); k++ {
		for _, jump := range []bool{false, true} {
			dir := t.TempDir()
			appendDays(t, dir, days[:k])
			buildAndCompare(t, dir, fmt.Sprintf("k=%d: first build", k))
			fams := make(map[string]bool)
			for _, d := range days[:k] {
				fams[d.Doc.Family] = true
			}
			for n := k; n < len(days); {
				step := 1
				if jump {
					step = len(days) - n
				}
				newFamily := false
				for _, d := range days[n : n+step] {
					newFamily = newFamily || !fams[d.Doc.Family]
					fams[d.Doc.Family] = true
				}
				appendDays(t, dir, days[n:n+step])
				n += step
				res := buildAndCompare(t, dir, fmt.Sprintf("k=%d jump=%v: %d days archived", k, jump, n))
				switch {
				case newFamily && (res.Resumed || res.FromScratch != "family set"):
					t.Fatalf("k=%d: a family first archived on day-file %d: %+v, want a from-scratch build over the family set", k, n, res)
				case !newFamily && (!res.Resumed || res.DaysAdded != step):
					t.Fatalf("k=%d: %d day-files appended: %+v, want them added to the committed index", k, step, res)
				}
			}
		}
	}
}

// asV6 recasts a synthetic chain as the ipv6 family.
func asV6(docs []*core.Document) []*core.Document {
	out := make([]*core.Document, len(docs))
	for d, doc := range docs {
		c := doc.DeepCopy()
		c.Family = "ipv6"
		for i := range c.Entries {
			var a, b, x int
			fmt.Sscanf(c.Entries[i].Prefix, "%d.%d.%d.0/24", &a, &b, &x)
			c.Entries[i].Prefix = fmt.Sprintf("2001:db8:%x:%x::/64", a<<8|b, x)
		}
		sortCanonical(c)
		out[d] = c
	}
	return out
}

// resumeFixture is a two-family chain with every shape the resumed build
// has to get right: 12 ipv4 days (the bitmaps grow a byte at the ninth),
// prefixes that first appear on day 10 and prefixes gone for the last
// four (synthPresent), an origin ASN that moves on day 9, and an ipv6
// family that starts on day 3.
func resumeFixture() []DayDoc {
	v4 := synthChain(12, 40)
	for d := 9; d < len(v4); d++ {
		v4[d].Entries[0].OriginASN = 65550
	}
	v6 := asV6(synthChain(12, 25))
	var days []DayDoc
	for d := range v4 {
		days = append(days, DayDoc{d, v4[d]})
		if d >= 3 {
			days = append(days, DayDoc{d, v6[d]})
		}
	}
	return days
}

// TestResumeEqualsScratch runs the property over the synthetic fixture,
// after checking that the fixture holds the shapes it is there for.
func TestResumeEqualsScratch(t *testing.T) {
	days := resumeFixture()
	dir := t.TempDir()
	appendDays(t, dir, days)
	if _, err := BuildDir(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var late, gone bool
	for _, p := range ix.Prefixes("ipv4") {
		tl, err := ix.Timeline("ipv4", p)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := tl.FirstPresent()
		last, _ := tl.LastPresent()
		late = late || first == 10
		gone = gone || last == 7
	}
	moved := days[0].Doc.Entries[0]
	tl, err := ix.Timeline("ipv4", moved.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if !late || !gone || tl.OriginASN != 65550 || moved.OriginASN == 65550 || ix.fams["ipv6"].days[0] != 3 {
		t.Fatalf("fixture lost a shape: late arrival %v, vanished prefix %v, origin AS%d (was AS%d), ipv6 days %v",
			late, gone, tl.OriginASN, moved.OriginASN, ix.fams["ipv6"].days)
	}
	CheckResumeEqualsScratch(t, days)
}

// TestBuildWithNothingToAdd: a build over an archive the committed index
// already covers resumes, adds nothing, decodes nothing and leaves both
// files as they were.
func TestBuildWithNothingToAdd(t *testing.T) {
	dir := t.TempDir()
	appendDays(t, dir, resumeFixture())
	first := buildAndCompare(t, dir, "first build")
	idx, agg := indexFiles(t, filepath.Join(dir, IndexFileName))
	res := buildAndCompare(t, dir, "second build")
	if !res.Resumed || res.DaysAdded != 0 || res.DaysDecoded != 0 || res.Days != first.Days || res.Prefixes != first.Prefixes {
		t.Fatalf("second build over an unchanged archive: %+v (first: %+v)", res, first)
	}
	idx2, agg2 := indexFiles(t, filepath.Join(dir, IndexFileName))
	if !bytes.Equal(idx, idx2) || !bytes.Equal(agg, agg2) {
		t.Fatal("a build with nothing to add changed the files")
	}
}

// TestBuildDecodesTheChainNotTheHistory pins the O(chain) property as a
// count: extending the index by the day at chain position p decodes the
// files from the snapshot under p through p — p%K + 1 per family at
// snapshot cadence K — and a from-scratch build decodes every day-file.
func TestBuildDecodesTheChainNotTheHistory(t *testing.T) {
	const K = 7 // appendDays' snapshot cadence
	v4 := synthChain(24, 30)
	v6 := asV6(v4)
	dir := t.TempDir()
	for p := range v4 {
		appendDays(t, dir, []DayDoc{{p, v4[p]}, {p, v6[p]}})
		res := buildAndCompare(t, dir, fmt.Sprintf("day %d", p))
		if p == 0 {
			if res.Resumed || res.FromScratch != "no index" || res.DaysDecoded != 2 {
				t.Fatalf("first build: %+v", res)
			}
			continue
		}
		if want := int64(2 * (p%K + 1)); !res.Resumed || res.DaysAdded != 2 || res.DaysDecoded != want {
			t.Fatalf("extending by day %d: %+v, want 2 day-files added for %d decoded", p, res, want)
		}
	}
	if err := os.Remove(filepath.Join(dir, IndexFileName)); err != nil {
		t.Fatal(err)
	}
	if res := buildAndCompare(t, dir, "forced full build"); res.Resumed || res.DaysAdded != 48 || res.DaysDecoded != 48 {
		t.Fatalf("build after deleting timeline.idx: %+v, want all 48 day-files decoded", res)
	}
}

// splitIndex cuts an index file image into its TOC and rows sections.
func splitIndex(t testing.TB, image []byte) (toc, rows []byte) {
	t.Helper()
	h, err := decodeHeader(image)
	if err != nil {
		t.Fatal(err)
	}
	return image[headerLen : headerLen+int(h.tocLen)], image[headerLen+int(h.tocLen):]
}

// TestBuildFallsBackToScratch: a committed index that fails any check is
// not an error and not trusted — the build names the reason and ends in
// from-scratch bytes.
func TestBuildFallsBackToScratch(t *testing.T) {
	days := resumeFixture()
	full := t.TempDir()
	appendDays(t, full, days)
	if _, err := BuildDir(full); err != nil {
		t.Fatal(err)
	}
	fullIdx, _ := indexFiles(t, filepath.Join(full, IndexFileName))
	toc, rows := splitIndex(t, fullIdx)

	// An archive of the same days where one day published one row fewer.
	edited := make([]DayDoc, len(days))
	copy(edited, days)
	short := days[4].Doc.DeepCopy()
	short.Entries = short.Entries[1:]
	if days[4].Doc.Entries[0].GCDAnycast {
		short.GCount--
	} else {
		short.MCount--
	}
	edited[4].Doc = short

	// Trailing garbage on the last row: its length is the TOC's last field.
	padded := bytes.Clone(toc)
	binary.LittleEndian.PutUint32(padded[len(padded)-4:], binary.LittleEndian.Uint32(padded[len(padded)-4:])+1)
	nRows := 0
	if ix, err := Open(filepath.Join(full, IndexFileName)); err != nil {
		t.Fatal(err)
	} else {
		nRows = len(ix.Prefixes("ipv4")) + len(ix.Prefixes("ipv6"))
		ix.Close()
	}

	flip := func(off int) []byte {
		b := bytes.Clone(fullIdx)
		b[off] ^= 0x41
		return b
	}
	v4only := func() (out []DayDoc) {
		for _, d := range days {
			if d.Doc.Family == "ipv4" {
				out = append(out, d)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		archive []DayDoc
		index   []byte
		tmp     bool
		want    string // BuildResult.FromScratch; "" means resumed
	}{
		{name: "flipped TOC byte", archive: days, index: flip(headerLen + 3), want: "checksum"},
		{name: "flipped rows byte", archive: days, index: flip(len(fullIdx) - 5), want: "checksum"},
		{name: "truncated file", archive: days, index: fullIdx[:len(fullIdx)/2], want: "checksum"},
		{name: "not an index", archive: days, index: []byte("not an index"), want: "checksum"},
		{name: "leftover tmp", archive: days, index: fullIdx, tmp: true},
		{name: "index longer than the archive", archive: days[:len(days)-4], index: fullIdx, want: "day list"},
		{name: "same days, other counts", archive: edited, index: fullIdx, want: "day counts"},
		{name: "family the archive lacks", archive: v4only(), index: fullIdx, want: "family set"},
		{name: "trailing garbage in a re-sealed row", archive: days, index: sealIndex(padded, append(bytes.Clone(rows), 0xAA)),
			want: fmt.Sprintf("row %d", nRows-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			appendDays(t, dir, tc.archive)
			path := filepath.Join(dir, IndexFileName)
			if err := os.WriteFile(path, tc.index, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.tmp {
				if err := os.WriteFile(path+".tmp", fullIdx[:100], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			res := buildAndCompare(t, dir, tc.name)
			if res.FromScratch != tc.want || res.Resumed != (tc.want == "") {
				t.Fatalf("build reports %+v, want FromScratch %q", res, tc.want)
			}
			if tc.want != "" && res.DaysDecoded != int64(len(tc.archive)) {
				t.Fatalf("from-scratch build decoded %d of %d day-files", res.DaysDecoded, len(tc.archive))
			}
		})
	}
}

// TestRowStateAcceptsOnlyWhatEncodeWrites: the read path tolerates a row
// with slack in it (decodeRow stops at the last column); the state
// loader may not, because the next build re-encodes what it loaded.
func TestRowStateAcceptsOnlyWhatEncodeWrites(t *testing.T) {
	const nDays = 9
	rb := newRowBuilder("192.0.2.0/24", nDays)
	for _, pos := range []int{0, 3, 8} {
		rb.add(pos, &core.DocumentEntry{Prefix: rb.prefix, OriginASN: 64500, ACProtocols: []string{"ICMP"},
			GCDMeasured: true, GCDAnycast: true, GCDSites: 3 + pos, MaxReceivers: 300, GCDVPs: 40, GCDCities: []string{"Oslo"}})
	}
	w := &bufWriter{}
	rb.encode(w)
	ref := prefixRef{prefix: rb.prefix, origin: rb.origin}
	back, err := decodeRowState(ref, nDays, w.b)
	if err != nil {
		t.Fatal(err)
	}
	again := &bufWriter{}
	if back.encode(again); !bytes.Equal(again.b, w.b) {
		t.Fatal("a decoded row does not re-encode to its bytes")
	}

	series := nFlags * bitmapLen(nDays) // the first sites varint: 3, one byte
	for name, bad := range map[string][]byte{
		"trailing byte":      append(bytes.Clone(w.b), 0),
		"truncated":          w.b[:len(w.b)-1],
		"shorter than flags": w.b[:series-1],
		"padded varint":      slices.Concat(w.b[:series], []byte{0x83, 0x00}, w.b[series+1:]),
		"flag past last day": slices.Concat(w.b[:3], []byte{w.b[3] | 0x02}, w.b[4:]), // day 9 of 0..8, in the candidate bitmap
	} {
		if _, err := decodeRowState(ref, nDays, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// What the read path makes of the same bytes is its own business,
		// but it must not panic.
		decodeRow("ipv4", ref, make([]int, nDays), bad)
	}
}

// TestOpenDirRejectsIndexOfVanishedFamily: the store was regenerated
// ipv4-only and the old two-family timeline.idx left behind. Its ipv4
// section still matches day for day, so a coverage check that walks the
// archive's families alone calls it fresh and ipv6 timelines are served
// that no archived day backs.
func TestOpenDirRejectsIndexOfVanishedFamily(t *testing.T) {
	days := resumeFixture()
	both := t.TempDir()
	appendDays(t, both, days)
	if _, err := BuildDir(both); err != nil {
		t.Fatal(err)
	}
	idx, agg := indexFiles(t, filepath.Join(both, IndexFileName))

	dir := t.TempDir()
	for _, d := range days {
		if d.Doc.Family == "ipv4" {
			appendDays(t, dir, []DayDoc{d})
		}
	}
	path := filepath.Join(dir, IndexFileName)
	if err := os.WriteFile(path, idx, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(AggregatesPath(path), agg, 0o644); err != nil {
		t.Fatal(err)
	}
	if ix, err := OpenDir(dir); err == nil {
		ix.Close()
		t.Fatal("OpenDir accepted an index carrying a family the archive does not")
	}
	// Rebuilding heals it.
	if res := buildAndCompare(t, dir, "rebuild"); res.FromScratch != "family set" {
		t.Fatalf("rebuild: %+v", res)
	}
	ix, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Series("ipv6"); err == nil {
		t.Fatal("the rebuilt index still answers for ipv6")
	}
}

// FuzzIndexState: the committed index is input to the next build, so its
// decoders face whatever is on disk. The sections are mutated and
// re-sealed (sealIndex: true lengths and CRCs), which gets them past
// Open's integrity checks. Nothing may panic; Open, every Timeline and the
// row-state loader together may allocate no more than a multiple of the
// file's length per call; and a state the loader accepts must encode to
// exactly the file it was read from — that is what makes resuming from
// it equal to rebuilding.
func FuzzIndexState(f *testing.F) {
	v4 := synthChain(9, 5)
	dir := f.TempDir()
	for d := range v4 {
		appendDays(f, dir, []DayDoc{{d, v4[d]}, {d, asV6(v4[d : d+1])[0]}})
	}
	if _, err := BuildDir(dir); err != nil {
		f.Fatal(err)
	}
	image, _ := indexFiles(f, filepath.Join(dir, IndexFileName))
	toc, rows := splitIndex(f, image)
	f.Add(toc, rows)
	f.Add(toc, append(bytes.Clone(rows), 0xAA))
	f.Add(toc[:len(toc)-1], rows)
	f.Add([]byte{1, 0, 0, 0, 4, 0, 'i', 'p', 'v', '4', 0xFF, 0xFF, 0xFF, 0xFF}, []byte{})

	// One scratch file per fuzzing process, rewritten by every execution.
	path := filepath.Join(f.TempDir(), "fuzzed.idx")
	f.Fuzz(func(t *testing.T, toc, rows []byte) {
		image := sealIndex(toc, rows)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := Open(path)
		if err != nil {
			return
		}
		defer ix.Close()
		calls := 2 // Open and state
		for _, family := range ix.order {
			for _, p := range ix.Prefixes(family) {
				ix.Timeline(family, p) // a row that does not decode is an error, not a crash
				calls++
			}
		}
		fams, why := ix.state()
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(calls)*(64*uint64(len(image))+4096); got > bound {
			t.Fatalf("%d calls over a %d-byte index allocated %d bytes, bound %d", calls, len(image), got, bound)
		}
		if why == "" && !bytes.Equal(encodeIndex(fams), image) {
			t.Fatal("the loader accepted a state that does not encode to the file it was read from")
		}
	})
}
