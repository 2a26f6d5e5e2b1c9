package query

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
)

// synthChain builds a deterministic multi-day census chain with the
// longitudinal dynamics the query engine exists to detect: late
// onsets, 1-day flaps, multi-day offset/onset gaps, trailing offsets,
// site-count churn and geo shifts.
func synthChain(days, entries int) []*core.Document {
	docs := make([]*core.Document, 0, days)
	for d := 0; d < days; d++ {
		doc := &core.Document{
			Date:               fmt.Sprintf("2024-%02d-%02d", 3+d/28, 1+d%28),
			Family:             "ipv4",
			HitlistSize:        entries * 3,
			Workers:            32,
			ProbesAnycastStage: int64(entries)*96 + int64(d),
			ProbesGCDStage:     int64(entries) * 7,
		}
		for i := 0; i < entries; i++ {
			if !synthPresent(i, d, days) {
				continue
			}
			doc.Entries = append(doc.Entries, synthEntry(i, d))
			if doc.Entries[len(doc.Entries)-1].GCDAnycast {
				doc.GCount++
			} else {
				doc.MCount++
			}
		}
		sortCanonical(doc)
		docs = append(docs, doc)
	}
	return docs
}

// synthPresent is the presence rule: deterministic gaps of every shape.
func synthPresent(i, d, days int) bool {
	switch {
	case i%11 == 3 && d%9 == 4: // 1-day blips → flaps
		return false
	case i%13 == 5 && d%17 >= 5 && d%17 <= 7: // 3-day gaps → offset+onset
		return false
	case i%17 == 7 && d < 10: // late arrival → onset
		return false
	case i%19 == 9 && d >= days-4: // disappears near the end → offset
		return false
	}
	return true
}

func synthEntry(i, d int) core.DocumentEntry {
	e := core.DocumentEntry{
		Prefix:    synthPrefix(i),
		OriginASN: uint32(64500 + i%200),
	}
	if i%3 == 0 {
		e.ACProtocols = []string{"ICMP", "TCP"}
		e.MaxReceivers = 2 + i%7
		e.GCDMeasured = true
		e.GCDAnycast = true
		e.GCDSites = 2 + i%9
		if i%23 == 11 && d%15 >= 8 {
			e.GCDSites += 2 // site churn
		}
		e.GCDCities = []string{"Amsterdam", "Tokyo"}
		if i%29 == 13 && d%19 >= 10 {
			e.GCDCities = []string{"London", "Paris"} // geo shift, same count
		}
		e.GCDVPs = 40 + i%5
	} else {
		e.ACProtocols = []string{"DNS"}
		e.MaxReceivers = 2
		e.GCDMeasured = i%2 == 0
	}
	return e
}

func synthPrefix(i int) string {
	bases := []int{2, 8, 10, 23, 77, 100, 192}
	return fmt.Sprintf("%d.%d.%d.0/24", bases[i%len(bases)], (i/7)%250, i%250)
}

func sortCanonical(d *core.Document) {
	es := d.Entries
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && core.ComparePrefixStrings(es[j].Prefix, es[j-1].Prefix) < 0; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// packChain archives docs as days 0..n-1 and returns the directory.
func packChain(t testing.TB, docs []*core.Document) string {
	t.Helper()
	dir := t.TempDir()
	w, err := archive.Create(dir, archive.Options{SnapshotEvery: 7})
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
	return dir
}

// buildIndex packs docs and builds the timeline index, returning the
// archive dir and the opened index.
func buildIndex(t testing.TB, docs []*core.Document) (string, *Index) {
	t.Helper()
	dir := packChain(t, docs)
	if _, err := BuildDir(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(filepath.Join(dir, IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return dir, ix
}

// timelineFromDocs derives the expected timeline by brute force.
func timelineFromDocs(docs []*core.Document, prefix string) *Timeline {
	tl := &Timeline{Family: "ipv4", Prefix: prefix}
	n := len(docs)
	tl.Days = make([]int, n)
	tl.Present = make([]bool, n)
	tl.AnycastBased = make([]bool, n)
	tl.GCDMeasured = make([]bool, n)
	tl.GCDAnycast = make([]bool, n)
	tl.ICMP = make([]bool, n)
	tl.TCP = make([]bool, n)
	tl.DNS = make([]bool, n)
	tl.Partial = make([]bool, n)
	tl.GlobalBGP = make([]bool, n)
	tl.FromFeedback = make([]bool, n)
	tl.Sites = make([]int, n)
	tl.Receivers = make([]int, n)
	tl.VPs = make([]int, n)
	tl.CityHash = make([]uint32, n)
	for d, doc := range docs {
		tl.Days[d] = d
		for i := range doc.Entries {
			e := &doc.Entries[i]
			if e.Prefix != prefix {
				continue
			}
			tl.OriginASN = e.OriginASN
			tl.Present[d] = true
			tl.AnycastBased[d] = len(e.ACProtocols) > 0
			tl.GCDMeasured[d] = e.GCDMeasured
			tl.GCDAnycast[d] = e.GCDAnycast
			for _, p := range e.ACProtocols {
				switch p {
				case "ICMP":
					tl.ICMP[d] = true
				case "TCP":
					tl.TCP[d] = true
				case "DNS":
					tl.DNS[d] = true
				}
			}
			tl.Partial[d] = e.PartialAnycast
			tl.GlobalBGP[d] = e.GlobalBGP
			tl.FromFeedback[d] = e.FromFeedback
			tl.Sites[d] = e.GCDSites
			tl.Receivers[d] = e.MaxReceivers
			tl.VPs[d] = e.GCDVPs
			tl.CityHash[d] = cityHash(e.GCDCities)
		}
	}
	return tl
}

func timelinesEqual(a, b *Timeline) bool {
	if a.Family != b.Family || a.Prefix != b.Prefix || a.OriginASN != b.OriginASN {
		return false
	}
	ints := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	bools := func(x, y []bool) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !ints(a.Days, b.Days) || !ints(a.Sites, b.Sites) || !ints(a.Receivers, b.Receivers) || !ints(a.VPs, b.VPs) {
		return false
	}
	for i := range a.CityHash {
		if a.CityHash[i] != b.CityHash[i] {
			return false
		}
	}
	pairs := [][2][]bool{
		{a.Present, b.Present}, {a.AnycastBased, b.AnycastBased},
		{a.GCDMeasured, b.GCDMeasured}, {a.GCDAnycast, b.GCDAnycast},
		{a.ICMP, b.ICMP}, {a.TCP, b.TCP}, {a.DNS, b.DNS},
		{a.Partial, b.Partial}, {a.GlobalBGP, b.GlobalBGP}, {a.FromFeedback, b.FromFeedback},
	}
	for _, p := range pairs {
		if !bools(p[0], p[1]) {
			return false
		}
	}
	return len(a.CityHash) == len(b.CityHash)
}

// TestTimelineMatchesDocuments cross-validates every indexed prefix's
// timeline against the brute-force answer derived from the documents.
func TestTimelineMatchesDocuments(t *testing.T) {
	docs := synthChain(40, 90)
	for d, doc := range docs { // the flags synthChain leaves clear
		for i := range doc.Entries {
			e := &doc.Entries[i]
			e.FromFeedback = i%3 == 0
			e.PartialAnycast = i%4 == 1 && d >= 5
			e.GlobalBGP = (i+d)%5 == 2
		}
	}
	_, ix := buildIndex(t, docs)
	prefixes := ix.Prefixes("ipv4")
	if len(prefixes) != 90 {
		t.Fatalf("indexed %d prefixes, want 90", len(prefixes))
	}
	for _, p := range prefixes {
		got, err := ix.Timeline("ipv4", p)
		if err != nil {
			t.Fatal(err)
		}
		want := timelineFromDocs(docs, p)
		if !timelinesEqual(got, want) {
			t.Fatalf("timeline for %s diverges from the documents", p)
		}
	}
}

// TestQueriesAnswerFromIndexAlone is the decode-counter contract:
// Timeline, Events, Stability and Series must not materialize a single
// document.
func TestQueriesAnswerFromIndexAlone(t *testing.T) {
	docs := synthChain(30, 60)
	dir, _ := buildIndex(t, docs)

	// Fresh archive handle so the build pass's decodes don't count.
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(filepath.Join(dir, IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ix.AttachArchive(a)

	prefix := ix.Prefixes("ipv4")[0]
	if _, err := ix.Timeline("ipv4", prefix); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Events("ipv4", nil, 0, -1, EventOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Stability("ipv4", prefix); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Series("ipv4"); err != nil {
		t.Fatal(err)
	}
	if n := a.Decodes(); n != 0 {
		t.Fatalf("index-answered queries decoded %d documents, want 0", n)
	}
}

// mkTimeline hand-builds a timeline for event-detection goldens.
func mkTimeline(present []bool, sites []int, hashes []uint32) *Timeline {
	n := len(present)
	tl := &Timeline{
		Family: "ipv4", Prefix: "192.0.2.0/24",
		Days:    make([]int, n),
		Present: present,
		Sites:   make([]int, n), CityHash: make([]uint32, n),
		GCDAnycast: make([]bool, n),
	}
	for i := range tl.Days {
		tl.Days[i] = i + 100 // non-zero-based days: events must carry day numbers, not positions
	}
	copy(tl.Sites, sites)
	copy(tl.CityHash, hashes)
	for i, s := range tl.Sites {
		tl.GCDAnycast[i] = s > 0
	}
	return tl
}

// scanOf loads a hand-built timeline into the row the detectors read:
// its present days with their sites and city hash, and the GCD bitmap.
func scanOf(tl *Timeline) *row {
	r := &row{gcd: make([]byte, bitmapLen(len(tl.Present)))}
	for i, p := range tl.Present {
		if p {
			r.present = append(r.present, i)
			r.sites = append(r.sites, tl.Sites[i])
			r.city = append(r.city, tl.CityHash[i])
		}
		if tl.GCDAnycast[i] {
			setBit(r.gcd, i)
		}
	}
	return r
}

// TestEventDetectionGolden pins the exact event stream for hand-built
// timelines covering every kind and the hysteresis boundary.
func TestEventDetectionGolden(t *testing.T) {
	pfx := "192.0.2.0/24"
	cases := []struct {
		name string
		tl   *Timeline
		opts EventOptions
		want []Event
	}{
		{
			name: "late-onset",
			tl: mkTimeline(
				[]bool{false, false, true, true, true},
				[]int{0, 0, 3, 3, 3},
				[]uint32{0, 0, 9, 9, 9}),
			// PrevDay -1: no earlier presence in the window.
			want: []Event{{Kind: EventOnset, Family: "ipv4", Prefix: pfx, Day: 102, PrevDay: -1}},
		},
		{
			name: "flap-below-hysteresis",
			tl: mkTimeline(
				[]bool{true, false, true, true, true},
				[]int{3, 0, 3, 3, 3},
				[]uint32{9, 0, 9, 9, 9}),
			want: []Event{{Kind: EventFlap, Family: "ipv4", Prefix: pfx, Day: 102, PrevDay: 100, GapDays: 1}},
		},
		{
			name: "offset-onset-at-hysteresis",
			tl: mkTimeline(
				[]bool{true, false, false, true, true},
				[]int{3, 0, 0, 3, 3},
				[]uint32{9, 0, 0, 9, 9}),
			want: []Event{
				{Kind: EventOffset, Family: "ipv4", Prefix: pfx, Day: 101, PrevDay: 100, GapDays: 2},
				{Kind: EventOnset, Family: "ipv4", Prefix: pfx, Day: 103, PrevDay: 100, GapDays: 2},
			},
		},
		{
			name: "trailing-offset",
			tl: mkTimeline(
				[]bool{true, true, true, false, false},
				[]int{3, 3, 3, 0, 0},
				[]uint32{9, 9, 9, 0, 0}),
			want: []Event{{Kind: EventOffset, Family: "ipv4", Prefix: pfx, Day: 103, PrevDay: 102, GapDays: 2}},
		},
		{
			name: "trailing-gap-undecided",
			tl: mkTimeline(
				[]bool{true, true, true, true, false},
				[]int{3, 3, 3, 3, 0},
				[]uint32{9, 9, 9, 9, 0}),
			want: nil,
		},
		{
			name: "site-churn",
			tl: mkTimeline(
				[]bool{true, true, true, true, true},
				[]int{3, 3, 5, 5, 5},
				[]uint32{9, 9, 9, 9, 9}),
			want: []Event{{Kind: EventSiteChurn, Family: "ipv4", Prefix: pfx, Day: 102, PrevDay: 101, PrevSites: 3, Sites: 5}},
		},
		{
			name: "site-churn-below-min-delta",
			tl: mkTimeline(
				[]bool{true, true, true},
				[]int{3, 4, 4},
				[]uint32{9, 9, 9}),
			opts: EventOptions{MinSiteDelta: 2},
			want: nil,
		},
		{
			name: "geo-shift",
			tl: mkTimeline(
				[]bool{true, true, true},
				[]int{3, 3, 3},
				[]uint32{9, 9, 11}),
			want: []Event{{Kind: EventGeoShift, Family: "ipv4", Prefix: pfx, Day: 102, PrevDay: 101, PrevSites: 3, Sites: 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := scanOf(tc.tl).detect(nil, tc.tl.Family, tc.tl.Prefix, tc.tl.Days, tc.opts)
			if len(got) != len(tc.want) {
				t.Fatalf("events = %+v, want %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("event %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestEventsFilters pins kind and day-range filtering plus the
// chronological ordering of the family-wide scan.
func TestEventsFilters(t *testing.T) {
	docs := synthChain(40, 90)
	_, ix := buildIndex(t, docs)

	all, err := ix.Events("ipv4", nil, 0, -1, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("synthetic chain produced no events")
	}
	seen := make(map[EventKind]int)
	for i, e := range all {
		seen[e.Kind]++
		if i > 0 && all[i].Day < all[i-1].Day {
			t.Fatalf("events out of day order at %d: %+v after %+v", i, all[i], all[i-1])
		}
	}
	for _, k := range EventKinds() {
		if seen[k] == 0 {
			t.Fatalf("synthetic chain produced no %s events (have %v)", k, seen)
		}
	}

	onsets, err := ix.Events("ipv4", []EventKind{EventOnset}, 0, -1, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(onsets) != seen[EventOnset] {
		t.Fatalf("kind filter returned %d onsets, scan saw %d", len(onsets), seen[EventOnset])
	}
	for _, e := range onsets {
		if e.Kind != EventOnset {
			t.Fatalf("kind filter leaked %+v", e)
		}
	}

	window, err := ix.Events("ipv4", nil, 10, 20, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range window {
		if e.Day < 10 || e.Day > 20 {
			t.Fatalf("day filter leaked %+v", e)
		}
	}
}

// TestSortEventsByDayMatchesStableSort holds the counting sort to the
// sort.SliceStable it replaced, on what Events feeds it: per-prefix runs,
// each in day order, concatenated — with ties across runs, single-event
// and empty inputs, days that start far from zero, and (every third
// trial) day spans far wider than the event count.
func TestSortEventsByDayMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 300; trial++ {
		var events []Event
		base, stride := rng.IntN(1000), 1
		if trial%3 == 2 {
			stride = 1 << 30
		}
		for p := rng.IntN(40); p > 0; p-- {
			day := base + rng.IntN(5)*stride
			for n := rng.IntN(6); n > 0; n-- {
				events = append(events, Event{Kind: EventKinds()[rng.IntN(5)], Prefix: fmt.Sprintf("10.%d.0.0/16", p), Day: day, PrevDay: rng.IntN(3)})
				day += rng.IntN(4) * stride
			}
		}
		want := slices.Clone(events)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Day < want[j].Day })
		if got := sortEventsByDay(events); !slices.Equal(got, want) {
			t.Fatalf("trial %d: counting sort = %v\nsort.SliceStable = %v", trial, got, want)
		}
	}
}

// TestStabilityScoring pins the score shape: full presence with a
// frozen site set scores 1.0 and every instability lowers it.
func TestStabilityScoring(t *testing.T) {
	steady := mkTimeline(
		[]bool{true, true, true, true, true},
		[]int{3, 3, 3, 3, 3},
		[]uint32{9, 9, 9, 9, 9})
	st := scanOf(steady).score(steady.Family, steady.Prefix, steady.Days, EventOptions{})
	if st.Score != 1.0 || st.DaysPresent != 5 || st.MeanSites != 3 {
		t.Fatalf("steady prefix scored %+v", st)
	}
	flappy := mkTimeline(
		[]bool{true, false, true, false, true},
		[]int{3, 0, 3, 0, 3},
		[]uint32{9, 0, 9, 0, 9})
	fst := scanOf(flappy).score(flappy.Family, flappy.Prefix, flappy.Days, EventOptions{})
	if fst.Score >= st.Score {
		t.Fatalf("flappy prefix (%v) scored no worse than steady (%v)", fst.Score, st.Score)
	}
	if fst.Flaps != 2 {
		t.Fatalf("flappy prefix counted %d flaps, want 2", fst.Flaps)
	}
}

// TestSeriesMatchesDocuments cross-validates the aggregate series.
func TestSeriesMatchesDocuments(t *testing.T) {
	docs := synthChain(25, 70)
	_, ix := buildIndex(t, docs)
	series, err := ix.Series("ipv4")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(docs) {
		t.Fatalf("series has %d points, want %d", len(series), len(docs))
	}
	prev := map[string]bool{}
	for d, doc := range docs {
		cur := map[string]bool{}
		for i := range doc.Entries {
			cur[doc.Entries[i].Prefix] = true
		}
		added, removed := 0, 0
		if d > 0 {
			for p := range cur {
				if !prev[p] {
					added++
				}
			}
			for p := range prev {
				if !cur[p] {
					removed++
				}
			}
		}
		pt := series[d]
		if pt.Day != d || pt.Entries != len(doc.Entries) || pt.GCDConfirmed != doc.GCount ||
			pt.AnycastOnly != doc.MCount || pt.Added != added || pt.Removed != removed {
			t.Fatalf("day %d: series point %+v diverges (want entries=%d g=%d m=%d +%d -%d)",
				d, pt, len(doc.Entries), doc.GCount, doc.MCount, added, removed)
		}
		prev = cur
	}
}

// TestRebuildByteIdentical: building the index twice from the same
// archive produces byte-identical files (no map-order leakage).
func TestRebuildByteIdentical(t *testing.T) {
	docs := synthChain(30, 80)
	dir := packChain(t, docs)
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1 := filepath.Join(t.TempDir(), "one.idx")
	p2 := filepath.Join(t.TempDir(), "two.idx")
	if _, err := Build(a, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(a, p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two builds of the same archive produced different index bytes")
	}
}

// TestOpenDetectsCorruption flips one byte in each section and expects
// Open to refuse the file.
func TestOpenDetectsCorruption(t *testing.T) {
	docs := synthChain(15, 40)
	dir, ix := buildIndex(t, docs)
	ix.Close()
	path := filepath.Join(dir, IndexFileName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, off := range map[string]int{
		"toc":  headerLen + 3,
		"rows": len(pristine) - 5,
	} {
		b := bytes.Clone(pristine)
		b[off] ^= 0x41
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatalf("Open accepted an index with a corrupt %s section", name)
		}
	}
	// Truncation must also be caught.
	if err := os.WriteFile(path, pristine[:len(pristine)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a truncated index")
	}
}

// TestUnknownLookups pins the typed errors the HTTP layer maps to 404.
func TestUnknownLookups(t *testing.T) {
	docs := synthChain(10, 20)
	_, ix := buildIndex(t, docs)
	if _, err := ix.Timeline("ipv6", "2.0.0.0/24"); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("unknown family: %v", err)
	}
	if _, err := ix.Timeline("ipv4", "198.51.100.0/24"); !errors.Is(err, ErrUnknownPrefix) {
		t.Fatalf("unknown prefix: %v", err)
	}
	if _, err := ix.Events("ipv6", nil, 0, -1, EventOptions{}); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("unknown family events: %v", err)
	}
	if _, err := ix.Series("ipv6"); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("unknown family series: %v", err)
	}
	if _, err := ix.Stability("ipv4", "198.51.100.0/24"); !errors.Is(err, ErrUnknownPrefix) {
		t.Fatalf("unknown prefix stability: %v", err)
	}
}

// TestOpenDirRejectsStaleIndex: an index built before more days were
// appended must be refused, not silently serve wrong longitudinal
// answers for the days it never saw.
func TestOpenDirRejectsStaleIndex(t *testing.T) {
	docs := synthChain(11, 30)
	dir := packChain(t, docs[:10])
	if _, err := BuildDir(dir); err != nil {
		t.Fatal(err)
	}
	if ix, err := OpenDir(dir); err != nil {
		t.Fatal(err)
	} else {
		ix.Close() // fresh index opens fine
	}
	w, err := archive.OpenWriter(dir, archive.Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(10, docs[10]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err := OpenDir(dir); err == nil {
		ix.Close()
		t.Fatal("OpenDir accepted an index that no longer covers the archive")
	}
	// Rebuilding heals it.
	if _, err := BuildDir(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
}
