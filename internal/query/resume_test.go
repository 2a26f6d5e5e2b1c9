package query

// The resumable build's contract: a Build that starts from the committed
// timeline.idx writes exactly what a Build of the same archive into an
// empty directory writes — index and aggregates sidecar, byte for byte —
// and whatever it cannot verify about that file it ignores, ending in
// the same bytes by the from-scratch route.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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
	appendDaysEvery(t, dir, days, 7)
}

// appendDaysEvery appends at snapshot cadence k.
func appendDaysEvery(t testing.TB, dir string, days []DayDoc, k int) {
	t.Helper()
	w, err := archive.OpenOrCreate(dir, archive.Options{SnapshotEvery: k})
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

// checkSidecar requires the .agg next to the index at path to be the
// aggregates pass over that index, as Build serializes it: so a fault
// the resumed and the from-scratch build share still fails.
func checkSidecar(t testing.TB, path string) {
	t.Helper()
	idx, agg := indexFiles(t, path)
	ix, err := openImage(idx)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := ix.computeAggregates()
	if err != nil {
		t.Fatalf("the aggregates pass over the committed index: %v", err)
	}
	want, err := json.MarshalIndent(ag, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(agg, append(want, '\n')) {
		t.Fatalf("the .agg sidecar at %s is not the aggregates pass over its index", path)
	}
}

// buildAndCompare runs BuildDir on dir and requires its two files to
// equal those of a Build of the same archive into an empty directory,
// and the sidecar to be the aggregates pass over the index.
func buildAndCompare(t testing.TB, dir, step string) *BuildResult {
	t.Helper()
	res, err := BuildDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	checkSidecar(t, filepath.Join(dir, IndexFileName))
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

// CheckCadenceIndependent is the property that the index does not depend
// on how the archive stores its days: packed at snapshot cadence 2, 3 or
// 7, the days give the timeline.idx and .agg they give at cadence 1 —
// where every day-file is a snapshot and a build never takes the delta
// path — both built from scratch over all of them and extended one
// day-file at a time, at every step.
func CheckCadenceIndependent(t *testing.T, days []DayDoc) {
	t.Helper()
	var want [][2][]byte // per step, cadence 1's index and sidecar
	for _, k := range []int{1, 2, 3, 7} {
		dir := t.TempDir()
		path := filepath.Join(dir, IndexFileName)
		for n := range days {
			appendDaysEvery(t, dir, days[n:n+1], k)
			if _, err := BuildDir(dir); err != nil {
				t.Fatalf("cadence %d, day-file %d: %v", k, n, err)
			}
			checkSidecar(t, path)
			idx, agg := indexFiles(t, path)
			if k == 1 {
				want = append(want, [2][]byte{idx, agg})
			} else if !bytes.Equal(idx, want[n][0]) || !bytes.Equal(agg, want[n][1]) {
				t.Fatalf("cadence %d: extended to day-file %d, the index or sidecar differs from cadence 1's", k, n)
			}
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if res, err := BuildDir(dir); err != nil || res.Resumed {
			t.Fatalf("cadence %d: from-scratch build: %+v, %v", k, res, err)
		}
		checkSidecar(t, path)
		if idx, agg := indexFiles(t, path); !bytes.Equal(idx, want[len(days)-1][0]) || !bytes.Equal(agg, want[len(days)-1][1]) {
			t.Fatalf("cadence %d: built from scratch, the index or sidecar differs from cadence 1's", k)
		}
	}
}

// TestIndexIsCadenceIndependent runs the property over the synthetic
// fixture, and again with the entry flags the fixture leaves clear set
// on some rows, so that a delta day carries every flag bitmap over.
func TestIndexIsCadenceIndependent(t *testing.T) {
	days := resumeFixture()
	CheckCadenceIndependent(t, days)
	flagged := make([]DayDoc, len(days))
	for n, d := range days {
		doc := d.Doc.DeepCopy()
		for i := range doc.Entries {
			e := &doc.Entries[i]
			e.FromFeedback = i%3 == 0
			e.PartialAnycast = i%4 == 1 && d.Day >= 5
			e.GlobalBGP = i%5 == 2
		}
		flagged[n] = DayDoc{d.Day, doc}
	}
	CheckCadenceIndependent(t, flagged)
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

// TestBuildDecodesOnlyTheNewDayFiles pins the O(new day) property as a
// count: extending the index by the day at any chain position decodes
// that day's two day-files — not the snapshot under it, not the deltas
// between — and a from-scratch build decodes every day-file once.
func TestBuildDecodesOnlyTheNewDayFiles(t *testing.T) {
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
		if !res.Resumed || res.DaysAdded != 2 || res.DaysDecoded != 2 {
			t.Fatalf("extending by day %d: %+v, want 2 day-files added and 2 decoded", p, res)
		}
	}
	if err := os.Remove(filepath.Join(dir, IndexFileName)); err != nil {
		t.Fatal(err)
	}
	if res := buildAndCompare(t, dir, "forced full build"); res.Resumed || res.DaysAdded != 48 || res.DaysDecoded != 48 {
		t.Fatalf("build after deleting timeline.idx: %+v, want all 48 day-files decoded", res)
	}
}

// TestExtendAllocatesNothingPerCommittedRow pins the one-day step's
// allocations as a count that does not grow with the rows history left
// behind: two archives end in the same days, and one of them held 4× the
// prefixes in its first half. A resumed one-day Build makes row state
// only for the rows the new day names or carries, so the two counts
// differ by less than a handful of buffer doublings.
func TestExtendAllocatesNothingPerCommittedRow(t *testing.T) {
	const days, entries = 20, 40
	var allocs [2]float64
	for i, extra := range []int{0, 3 * entries} {
		docs := synthChain(days, entries)
		for d := range days / 2 {
			for j := range extra {
				e := synthEntry(j, d)
				e.Prefix = fmt.Sprintf("172.%d.%d.0/24", 16+j/250, j%250)
				docs[d].Entries = append(docs[d].Entries, e)
				if e.GCDAnycast {
					docs[d].GCount++
				} else {
					docs[d].MCount++
				}
			}
			sortCanonical(docs[d])
		}
		dir := t.TempDir()
		for d := range days - 1 {
			appendDays(t, dir, []DayDoc{{d, docs[d]}})
		}
		if _, err := BuildDir(dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, IndexFileName)
		idx, _ := indexFiles(t, path)
		appendDays(t, dir, []DayDoc{{days - 1, docs[days-1]}})
		a, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var res *BuildResult
		allocs[i] = testing.AllocsPerRun(5, func() {
			if err = os.WriteFile(path, idx, 0o644); err == nil {
				res, err = Build(a, path)
			}
		})
		if err != nil || !res.Resumed || res.DaysAdded != 1 || res.Prefixes != entries+extra {
			t.Fatalf("%d prefixes: not a one-day extension: %+v, %v", entries+extra, res, err)
		}
	}
	t.Logf("a one-day step over %d and %d prefixes: %.0f and %.0f allocations", entries, 4*entries, allocs[0], allocs[1])
	if d := allocs[1] - allocs[0]; d >= 16 || d <= -16 {
		t.Fatalf("a one-day step allocates %.0f times over %d prefixes and %.0f over %d: it allocates per committed row",
			allocs[0], entries, allocs[1], 4*entries)
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

// TestFailedBuildKeepsTheCommittedIndex: a build whose image its own
// Open refuses — here a prefix too long for the TOC's 16-bit name
// length — fails before it commits anything. The index of the day
// before stays in place byte for byte, so the archive it describes
// still opens. The archive writer refuses such a prefix, so the test
// plants it in a stored day-file.
func TestFailedBuildKeepsTheCommittedIndex(t *testing.T) {
	docs := synthChain(4, 10)
	dir, grown := t.TempDir(), t.TempDir()
	for d := range 3 {
		appendDays(t, dir, []DayDoc{{d, docs[d]}})
		appendDays(t, grown, []DayDoc{{d, docs[d]}})
	}
	appendDays(t, grown, []DayDoc{{3, docs[3]}})
	if _, err := BuildDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, IndexFileName)
	idx, agg := indexFiles(t, path)
	a, err := archive.Open(grown)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := a.Record("ipv4", 3)
	if rec.Kind != archive.KindDelta {
		t.Fatalf("day 3 is a %s, want a delta", rec.Kind)
	}
	long := `{"header":{"date":"2024-03-04","family":"ipv4"},"upserts":[{"prefix":"10.0.0.0/24` + strings.Repeat("0", 70000) + `"}]}`
	if err := os.WriteFile(filepath.Join(grown, rec.File), []byte(long), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(a, path); err == nil || !strings.Contains(err.Error(), "not committing") {
		t.Fatalf("Build over a 70,000-byte prefix: error %v, want one refusing the commit", err)
	}
	if gotIdx, gotAgg := indexFiles(t, path); !bytes.Equal(gotIdx, idx) || !bytes.Equal(gotAgg, agg) {
		t.Fatal("the failed build replaced the committed index or its sidecar")
	}
	ix, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
}

// TestRowStateAcceptsOnlyWhatEncodeWrites: a row the builder writes
// loads back to the values it was given, and the splice that extends
// it by a carried day writes what a build adding all four days writes —
// copying the committed record, never writing into it.
// TestShortRowFailsEveryWindow holds every reader to refusing the forms
// the builder does not write.
func TestRowStateAcceptsOnlyWhatEncodeWrites(t *testing.T) {
	const nDays = 9
	prefix := "192.0.2.0/24"
	add := func(rb *rowBuilder, pos int) {
		rb.add(pos, &core.DocumentEntry{Prefix: prefix, OriginASN: 64500, ACProtocols: []string{"ICMP"},
			GCDMeasured: true, GCDAnycast: true, GCDSites: 3 + pos, MaxReceivers: 300, GCDVPs: 40, GCDCities: []string{"Oslo"}})
	}
	fb, rb := scratchRow(nDays)
	for _, pos := range []int{0, 3, 8} {
		add(rb, pos)
	}
	record := fb.splice(nil, nil, [3]int{}, rb)
	ref := prefixRef{prefix: prefix, origin: rb.origin, length: len(record)}
	var r row
	if err := r.load(ref, nDays, record); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.present, []int{0, 3, 8}) || !slices.Equal(r.sites, []int{3, 6, 11}) || r.receivers[2] != 300 || r.vps[1] != 40 {
		t.Fatalf("the written row loads as present %v, sites %v", r.present, r.sites)
	}
	kept := bytes.Clone(record)
	checkRowRoundTrip(t, nDays, ref, record, &r)
	if !bytes.Equal(record, kept) {
		t.Fatal("splicing the loaded row wrote into the record it was loaded from")
	}
	fb, rb = scratchRow(nDays + 1)
	for _, pos := range []int{0, 3, 8} {
		add(rb, pos)
	}
	rb.carry(nDays)
	want := fb.splice(nil, nil, [3]int{}, rb)
	got, _ := extendRow(t, nDays, ref, record)
	if !bytes.Equal(got, want) {
		t.Fatal("the committed row extended by a carried day differs from the row built over all its days")
	}
}

// scratchRow returns a from-scratch builder over nDays days and the row
// state of one prefix new to it.
func scratchRow(nDays int) (*famBuilder, *rowBuilder) {
	fb := &famBuilder{base: &famIndex{}, out: famIndex{days: make([]int, nDays)}, byPrefix: make(map[string]*rowBuilder)}
	return fb, fb.track("", 0, -1)
}

// extendRow writes the committed row record b, over nDays days and
// loaded in r, into an index one day longer: the prefix present on the
// new day when it was on the last, as a delta naming nothing carries
// it. It returns the row written and the row state that carried it, nil
// when none did.
func extendRow(t testing.TB, nDays int, ref prefixRef, b []byte) ([]byte, *rowBuilder) {
	t.Helper()
	ref.off, ref.length = 0, len(b)
	var r row
	if err := r.load(ref, nDays, b); err != nil {
		t.Fatal(err)
	}
	fb := &famBuilder{
		base: &famIndex{days: make([]int, nDays), prefixes: []prefixRef{ref}}, rows: b,
		cuts: make([][3]int, 1), out: famIndex{days: make([]int, nDays+1)}, byPrefix: make(map[string]*rowBuilder),
	}
	fb.resume(0, &r)
	var rb *rowBuilder
	if len(fb.touched) > 0 {
		rb = fb.touched[0]
		rb.carry(nDays)
	}
	out, err := fb.write(nil, &r, newFamAgg("", &famIndex{}))
	if err != nil {
		t.Fatalf("row for %s: the extended row does not load: %v", ref.prefix, err)
	}
	return out, rb
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

// FuzzIndexState: the committed index is input to the next build and to
// every query, so its decoders face whatever is on disk. The sections
// are mutated and re-sealed (sealIndex: true lengths and CRCs), which
// gets them past Open's integrity checks. Nothing may panic; Open, every
// Timeline, both event scans, the aggregates pass and the splice of
// every row together may allocate no more than a multiple of the file's
// length per call, a scan counting one call per row it visits; every row
// the row reader accepts must re-encode, through the splice, to exactly
// its bytes. Then Build, over the archive the fixture index was built
// from, starts from the fuzzed file: it either names why it built from
// scratch and writes the from-scratch bytes, or resumes and — having no
// day to add — writes the fuzzed file back byte for byte. The sidecar it
// writes is the aggregates pass over what it committed.
func FuzzIndexState(f *testing.F) {
	v4 := synthChain(9, 5)
	dir := f.TempDir()
	for d := range v4 {
		appendDays(f, dir, []DayDoc{{d, v4[d]}, {d, asV6(v4[d : d+1])[0]}})
	}
	if _, err := BuildDir(dir); err != nil {
		f.Fatal(err)
	}
	idxPath := filepath.Join(dir, IndexFileName)
	scratch, _ := indexFiles(f, idxPath)
	toc, rows := splitIndex(f, scratch)
	f.Add(toc, rows)
	f.Add(toc, append(bytes.Clone(rows), 0xAA))
	f.Add(toc[:len(toc)-1], rows)
	f.Add([]byte{1, 0, 0, 0, 4, 0, 'i', 'p', 'v', '4', 0xFF, 0xFF, 0xFF, 0xFF}, []byte{})
	f.Add(withRowLen(f, toc, synthPrefix(3), 1), rows)
	a, err := archive.Open(dir)
	if err != nil {
		f.Fatal(err)
	}

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
		calls := 2 // Open and the aggregates pass
		var r row
		for _, family := range ix.order {
			fam := ix.fams[family]
			for _, ref := range fam.prefixes {
				ix.Timeline(family, ref.prefix) // a row that does not decode is an error, not a crash
				// Open proved every row lies inside the rows section.
				b := ix.record(ref)
				if r.load(ref, len(fam.days), b) == nil {
					checkRowRoundTrip(t, len(fam.days), ref, b, &r)
				}
				calls += 2
			}
			ix.Events(family, nil, 0, -1, EventOptions{})
			if n := len(fam.days); n > 0 {
				ix.Events(family, nil, fam.days[n/2], fam.days[n/2], EventOptions{})
			}
			calls += 3 * len(fam.prefixes) // two event scans and the aggregates pass
		}
		ix.computeAggregates()
		runtime.ReadMemStats(&after)
		ix.Close()
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(calls)*(64*uint64(len(image))+4096); got > bound {
			t.Fatalf("%d calls over a %d-byte index allocated %d bytes, bound %d", calls, len(image), got, bound)
		}

		if err := os.WriteFile(idxPath, image, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Build(a, idxPath)
		if err != nil {
			// A resumable file can still disagree with the day-files that
			// extend it; the build then fails without committing.
			if got, _ := os.ReadFile(idxPath); !bytes.Equal(got, image) {
				t.Fatalf("a failed build (%v) replaced the committed index", err)
			}
			return
		}
		got, _ := indexFiles(t, idxPath)
		switch {
		case !res.Resumed && !bytes.Equal(got, scratch):
			t.Fatalf("built from scratch (%s), the index differs from the from-scratch build", res.FromScratch)
		case res.Resumed && res.DaysAdded == 0 && !bytes.Equal(got, image):
			t.Fatal("resumed with nothing to add, the build did not write the committed file back")
		}
		checkSidecar(t, idxPath)
	})
}

// checkRowRoundTrip holds a row record b, which r loaded over nDays
// days, to the splice: copied into an index of the same days it is
// unchanged, and written from the values r read it is the same bytes.
// Copied into an index one day longer, it is what the builder writes
// for those values and, when present on the last day, that day carried.
// The reader accepts only what the builder writes.
func checkRowRoundTrip(t *testing.T, nDays int, ref prefixRef, b []byte, r *row) {
	t.Helper()
	same := &famBuilder{base: &famIndex{days: make([]int, nDays)}, out: famIndex{days: make([]int, nDays)}}
	if got := same.splice(nil, b, [3]int{r.start[1], r.start[2], r.start[3]}, nil); !bytes.Equal(got, b) {
		t.Fatalf("row for %s: the reader accepts %x, which the splice copies as %x", ref.prefix, b, got)
	}
	values := func(days int) ([]byte, *rowBuilder) {
		fb, rb := scratchRow(days)
		bl := bitmapLen(nDays)
		for pos := range nDays {
			for c := range nFlags {
				if getBit(b[c*bl:], pos) {
					rb.flags[pos-rb.first] |= 1 << c
				}
			}
		}
		for k := range r.present {
			rb.push([4]uint64{uint64(r.sites[k]), uint64(r.receivers[k]), uint64(r.vps[k]), uint64(r.city[k])})
		}
		if days > nDays && rb.present(nDays-1) {
			rb.carry(nDays)
		}
		return fb.splice(nil, nil, [3]int{}, rb), rb
	}
	if got, _ := values(nDays); !bytes.Equal(got, b) {
		t.Fatalf("row for %s: the reader accepts %x, which re-encodes to %x", ref.prefix, b, got)
	}
	want, wb := values(nDays + 1)
	got, rb := extendRow(t, nDays, ref, b)
	if !bytes.Equal(got, want) || rb != nil && rb.last != wb.last {
		t.Fatalf("row for %s: extended by a day, %x splices to %x, want %x", ref.prefix, b, got, want)
	}
}
