package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
)

// The row's flag bitmaps, in their serialized order: the order
// rowBuilder.encode writes and row.load reads.
const (
	flagPresent = iota
	flagCandidate
	flagGCDMeasured
	flagGCDAnycast
	flagICMP
	flagTCP
	flagDNS
	flagPartial
	flagGlobalBGP
	flagFromFeedback
	nFlags
)

// rowBuilder accumulates one prefix's column during the build pass.
type rowBuilder struct {
	prefix string
	origin uint32

	// Flag bitmaps over day positions.
	flags [nFlags][]byte

	// series are the row's series over present days in day order, as
	// encode writes them: the site, receiver and GCD-VP counts as
	// uvarints, then the city hashes. last holds the latest present
	// day's four values, which carry repeats.
	series [4][]byte
	last   [4]uint64

	// named is the last delta day position whose delta names the prefix
	// (a delta day is never position 0, so the zero value names none).
	named int
}

func newRowBuilder(prefix string, nDays int) *rowBuilder {
	rb := &rowBuilder{prefix: prefix}
	rb.grow(nDays)
	return rb
}

// grow widens the bitmaps to nDays day positions, keeping the bits set
// so far.
func (rb *rowBuilder) grow(nDays int) {
	n := bitmapLen(nDays)
	if n == len(rb.flags[flagPresent]) {
		return
	}
	buf := make([]byte, nFlags*n)
	for i, bm := range rb.flags {
		rb.flags[i] = buf[i*n : (i+1)*n : (i+1)*n]
		copy(rb.flags[i], bm)
	}
}

func (rb *rowBuilder) add(pos int, e *core.DocumentEntry) {
	setBit(rb.flags[flagPresent], pos)
	rb.origin = e.OriginASN
	if len(e.ACProtocols) > 0 {
		setBit(rb.flags[flagCandidate], pos)
	}
	for _, p := range e.ACProtocols {
		switch p {
		case "ICMP":
			setBit(rb.flags[flagICMP], pos)
		case "TCP":
			setBit(rb.flags[flagTCP], pos)
		case "DNS":
			setBit(rb.flags[flagDNS], pos)
		}
	}
	if e.GCDMeasured {
		setBit(rb.flags[flagGCDMeasured], pos)
	}
	if e.GCDAnycast {
		setBit(rb.flags[flagGCDAnycast], pos)
	}
	if e.PartialAnycast {
		setBit(rb.flags[flagPartial], pos)
	}
	if e.GlobalBGP {
		setBit(rb.flags[flagGlobalBGP], pos)
	}
	if e.FromFeedback {
		setBit(rb.flags[flagFromFeedback], pos)
	}
	rb.push([4]uint64{uint64(e.GCDSites), uint64(e.MaxReceivers), uint64(e.GCDVPs), uint64(cityHash(e.GCDCities))})
}

// carry repeats the row's day pos-1 on day pos, the prefix present on
// both with an unchanged entry: what add(pos, e) writes for the entry
// add(pos-1, e) wrote.
func (rb *rowBuilder) carry(pos int) {
	for _, bm := range rb.flags {
		if getBit(bm, pos-1) {
			setBit(bm, pos)
		}
	}
	rb.push(rb.last)
}

// push appends one present day's values to the series.
func (rb *rowBuilder) push(v [4]uint64) {
	for k := range 3 {
		rb.series[k] = binary.AppendUvarint(rb.series[k], v[k])
	}
	rb.series[3] = binary.LittleEndian.AppendUint32(rb.series[3], uint32(v[3]))
	rb.last = v
}

// encode serializes the row record.
func (rb *rowBuilder) encode(w *bufWriter) {
	for _, bm := range rb.flags {
		w.b = append(w.b, bm...)
	}
	for _, s := range rb.series {
		w.b = append(w.b, s...)
	}
}

// builder returns the builder that wrote the loaded row, over nDays day
// positions: encode's inverse. Its series are the record's own bytes,
// capped so that the next add or carry copies them rather than writing
// into the record.
func (r *row) builder(ref prefixRef, nDays int) *rowBuilder {
	rb := newRowBuilder(ref.prefix, nDays)
	rb.origin = ref.origin
	bl := bitmapLen(nDays)
	for c, bm := range rb.flags {
		copy(bm, r.b[c*bl:])
	}
	for k := range rb.series {
		rb.series[k] = r.b[r.start[k]:r.start[k+1]:r.start[k+1]]
	}
	if k := len(r.present) - 1; k >= 0 {
		rb.last = [4]uint64{uint64(r.sites[k]), uint64(r.receivers[k]), uint64(r.vps[k]), uint64(r.city[k])}
	}
	return rb
}

// famBuilder accumulates one family's section.
type famBuilder struct {
	family string
	// days are the day positions indexed so far; the per-day aggregate
	// columns are aligned to them.
	days                          []int
	entries, g, m, added, removed []int
	rows                          map[string]*rowBuilder
	// order lists the rows: the first sorted in canonical prefix order
	// (the committed index's rows, as state proved them), then the rows
	// this build added, in the order it met their prefixes.
	order  []*rowBuilder
	sorted int
}

// row returns the prefix's row, adding a new one when it has none.
func (fb *famBuilder) row(prefix string) *rowBuilder {
	rb := fb.rows[prefix]
	if rb == nil {
		rb = newRowBuilder(prefix, len(fb.days))
		fb.rows[prefix] = rb
		fb.order = append(fb.order, rb)
	}
	return rb
}

// extend indexes the archived days of the family that fb does not cover
// yet: it widens every row to the archive's day count and reads each
// missing day-file once, through archive.ReadDay, from the first day fb
// lacks — never from the snapshot under it. A snapshot day adds its
// document's entries; a delta day applies to the rows directly, so no
// document is built for it.
func (fb *famBuilder) extend(a *archive.Archive) error {
	days := a.Days(fb.family)
	pos := len(fb.days)
	if pos == len(days) {
		return nil
	}
	fb.days = days
	for _, rb := range fb.order {
		rb.grow(len(days))
	}
	// family is the one the day before's document carries, which a
	// delta must name: what Apply checks on archive.Range's chain.
	family := fb.family
	for ; pos < len(days); pos++ {
		rec, _ := a.Record(fb.family, days[pos])
		if rec.Kind == archive.KindDelta && pos == 0 {
			return fmt.Errorf("%s chain starts with a delta (corrupt index)", fb.family)
		}
		snap, delta, err := a.ReadDay(rec)
		if err != nil {
			return err
		}
		if snap != nil {
			family = snap.Family
			fb.addSnapshot(pos, snap)
			continue
		}
		if err := fb.applyDelta(pos, family, delta); err != nil {
			return fmt.Errorf("%s: %w", rec.File, err)
		}
	}
	return nil
}

// addSnapshot indexes a snapshot day at position pos.
func (fb *famBuilder) addSnapshot(pos int, doc *core.Document) {
	for i := range doc.Entries {
		fb.row(doc.Entries[i].Prefix).add(pos, &doc.Entries[i])
	}
	fb.closeDay(pos, doc.GCount, doc.MCount)
}

// applyDelta indexes a delta day at position pos ≥ 1 from the rows of
// day pos-1: rows present then carry over, upserts are added, removals
// drop out. It refuses the deltas core.DocumentDelta.Apply refuses: a
// family other than the day before's, a removal of a prefix absent the
// day before, and a prefix named twice.
func (fb *famBuilder) applyDelta(pos int, family string, d *core.DocumentDelta) error {
	if d.Header.Family != family {
		return fmt.Errorf("delta for family %q applied to %q document", d.Header.Family, family)
	}
	for _, p := range d.Removed {
		rb := fb.rows[p]
		switch {
		case rb == nil || !getBit(rb.flags[flagPresent], pos-1):
			return fmt.Errorf("delta removes %q which the previous document does not carry", p)
		case rb.named == pos:
			return fmt.Errorf("delta names %q twice", p)
		}
		rb.named = pos
	}
	for i := range d.Upserts {
		rb := fb.row(d.Upserts[i].Prefix)
		if rb.named == pos {
			return fmt.Errorf("delta names %q twice", rb.prefix)
		}
		rb.named = pos
		rb.add(pos, &d.Upserts[i])
	}
	for _, rb := range fb.order {
		if rb.named != pos && getBit(rb.flags[flagPresent], pos-1) {
			rb.carry(pos)
		}
	}
	fb.closeDay(pos, d.Header.GCount, d.Header.MCount)
	return nil
}

// closeDay appends day pos's aggregate columns: the G and M counts the
// day's header publishes, and the entry count and membership churn the
// rows' presence bits give.
func (fb *famBuilder) closeDay(pos, g, m int) {
	var entries, added, removed int
	for _, rb := range fb.order {
		now := getBit(rb.flags[flagPresent], pos)
		before := pos > 0 && getBit(rb.flags[flagPresent], pos-1)
		switch {
		case now && !before && pos > 0:
			added++
		case before && !now:
			removed++
		}
		if now {
			entries++
		}
	}
	fb.entries = append(fb.entries, entries)
	fb.g = append(fb.g, g)
	fb.m = append(fb.m, m)
	fb.added = append(fb.added, added)
	fb.removed = append(fb.removed, removed)
}

// canonical returns the rows in canonical prefix order: the rows this
// build added, sorted and merged into the already sorted ones.
func (fb *famBuilder) canonical() []*rowBuilder {
	old, fresh := fb.order[:fb.sorted], fb.order[fb.sorted:]
	if len(fresh) == 0 {
		return old
	}
	prefixes := make([]string, len(fresh))
	for i, rb := range fresh {
		prefixes[i] = rb.prefix
	}
	core.SortPrefixStrings(prefixes)
	out := make([]*rowBuilder, 0, len(fb.order))
	for _, p := range prefixes {
		key := core.ParsePrefixKey(p)
		n := sort.Search(len(old), func(i int) bool { return core.ParsePrefixKey(old[i].prefix).Compare(key) > 0 })
		out = append(append(out, old[:n]...), fb.rows[p])
		old = old[n:]
	}
	return append(out, old...)
}

// BuildResult summarises one index build.
type BuildResult struct {
	Path     string
	Families int
	// Days counts indexed day-files summed across families (a 120-day
	// dual-family archive indexes 240).
	Days     int
	Prefixes int
	// Bytes is the written index file size; SourceBytes the archive's
	// stored size it summarises — the pair is the index's footprint
	// ledger.
	Bytes       int64
	SourceBytes int64

	// Resumed reports that the build started from the index already
	// committed at Path; otherwise FromScratch names what ruled that out:
	// "no index", "checksum" (the file failed Open's integrity checks),
	// "family set", "day list" or "day counts" (it does not describe a
	// prefix of this archive), or "row N" (that row is not in the form
	// Build writes).
	Resumed     bool
	FromScratch string
	// DaysAdded counts the day-files this build indexed beyond the state
	// it started from, DaysDecoded the day-files it decoded to do so:
	// each appended day-file once — not the chain under it, not the
	// history — so the two are equal.
	DaysAdded   int
	DaysDecoded int64
}

// Build brings the columnar prefix-timeline index at path up to date
// with the archive. It starts from the state of the index already
// committed there — empty when there is none, or when it fails any check
// (see BuildResult.FromScratch; deleting the file forces a full build) —
// decodes each day-file that state does not cover once, and writes the
// whole index again: a resumed build and a from-scratch build of the
// same archive produce the same bytes. A daily step therefore decodes
// the appended day-files alone, not the chain under them and not the
// history; answering queries afterwards decodes nothing. The write is
// atomic: the index appears at path complete and CRC'd, or not at all.
func Build(a *archive.Archive, path string) (*BuildResult, error) {
	decoded := a.Decodes()
	fams, why := loadState(a, path)
	res := &BuildResult{Path: path, Families: len(fams), Resumed: why == "", FromScratch: why}
	for _, fb := range fams {
		covered := len(fb.days)
		if err := fb.extend(a); err != nil {
			return nil, fmt.Errorf("query: indexing %s: %w", fb.family, err)
		}
		res.DaysAdded += len(fb.days) - covered
		res.Days += len(fb.days)
		res.Prefixes += len(fb.rows)
	}
	res.DaysDecoded = a.Decodes() - decoded
	image := encodeIndex(fams)
	// Open the image before committing it: an index its own Open refuses
	// must not replace the one the next build resumes from.
	ix, err := openImage(image)
	if err != nil {
		return nil, fmt.Errorf("query: not committing the built index: %w", err)
	}
	if err := archive.CommitFile(path, func(w io.Writer) error {
		_, err := w.Write(image)
		return err
	}); err != nil {
		return nil, fmt.Errorf("query: writing index: %w", err)
	}
	res.Bytes = int64(len(image))
	for _, st := range a.Stats() {
		res.SourceBytes += st.StoredBytes
	}
	// Materialize the dashboard aggregates next to the index: the
	// serving tier answers its hot queries from this sidecar without
	// touching row storage. Computed over the committed image, so the
	// sidecar is a pure function of the index bytes (and carries their
	// fingerprint).
	ag, err := ix.computeAggregates()
	if err != nil {
		return nil, err
	}
	if err := writeAggregates(AggregatesPath(path), ag); err != nil {
		return nil, err
	}
	return res, nil
}

// BuildDir builds the index for the archive at dir, writing it next to
// the archive's index.jsonl as timeline.idx — extending the one already
// there when it describes the archive's first days.
func BuildDir(dir string) (*BuildResult, error) {
	a, err := archive.Open(dir)
	if err != nil {
		return nil, err
	}
	return Build(a, filepath.Join(dir, IndexFileName))
}

// loadState returns the builders a build of a starts from, one per
// archived family: the state of the index committed at path when that
// index describes the archive's first days, else empty ones and the
// reason (BuildResult.FromScratch).
func loadState(a *archive.Archive, path string) (fams []*famBuilder, why string) {
	if fams, why = committedState(a, path); why == "" {
		return fams, ""
	}
	for _, family := range a.Families() {
		fams = append(fams, &famBuilder{family: family, rows: make(map[string]*rowBuilder)})
	}
	return fams, why
}

// committedState reads the index at path back into builders, or says
// why a build of a cannot start from it. The file is read once: Open's
// checks and the rows run on that one buffer, and the aggregates
// sidecar is not read at all.
func committedState(a *archive.Archive, path string) (fams []*famBuilder, why string) {
	image, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, "no index"
	}
	ix, err := openImage(image)
	if err != nil {
		return nil, "checksum"
	}
	if _, why := ix.behind(a); why != "" {
		return nil, why
	}
	return ix.state(image[ix.rowsOff:])
}

// behind compares the index with an archive: how many archived day-files
// it does not cover and, when it is not an index of the archive's first
// days at all, what differs — the family set, a family's day list, or a
// day's entries / G / M counts against the archive's index.jsonl record.
// Freshness (VerifyCoverage) and resumability (Build) are this one
// predicate.
func (ix *Index) behind(a *archive.Archive) (missing int, why string) {
	if !slices.Equal(ix.order, a.Families()) {
		return 0, "family set"
	}
	for _, family := range ix.order {
		fam, days := ix.fams[family], a.Days(family)
		if len(fam.days) > len(days) || !slices.Equal(fam.days, days[:len(fam.days)]) {
			return 0, "day list"
		}
		for i, day := range fam.days {
			rec, _ := a.Record(family, day)
			if rec.Entries != fam.entries[i] || rec.GCount != fam.g[i] || rec.MCount != fam.m[i] {
				return 0, "day counts"
			}
		}
		missing += len(days) - len(fam.days)
	}
	return missing, ""
}

// state reads the index, whose rows section is rows, back into the
// builders that wrote it. It accepts only the layout encodeIndex produces
// — families and prefixes in strictly ascending order, rows contiguous
// and covering the rows section — so an accepted state encodes to the
// file it was read from; otherwise why names the first row that does not
// fit.
func (ix *Index) state(rows []byte) (fams []*famBuilder, why string) {
	n, off := 0, 0
	var r row
	for i, family := range ix.order {
		if i > 0 && family <= ix.order[i-1] {
			return nil, "family set"
		}
		fam := ix.fams[family]
		fb := &famBuilder{
			family: family, days: fam.days,
			entries: fam.entries, g: fam.g, m: fam.m, added: fam.added, removed: fam.removed,
			rows:  make(map[string]*rowBuilder, len(fam.prefixes)),
			order: make([]*rowBuilder, 0, len(fam.prefixes)),
		}
		var last core.PrefixKey
		for p, ref := range fam.prefixes {
			key := core.ParsePrefixKey(ref.prefix)
			if p > 0 && last.Compare(key) >= 0 || ref.off != int64(off) || ref.length > len(rows)-off ||
				r.load(ref, len(fam.days), rows[off:off+ref.length]) != nil {
				return nil, fmt.Sprintf("row %d", n)
			}
			last = key
			rb := r.builder(ref, len(fam.days))
			fb.rows[ref.prefix] = rb
			fb.order = append(fb.order, rb)
			off += ref.length
			n++
		}
		fb.sorted = len(fb.order)
		fams = append(fams, fb)
	}
	if off != len(rows) {
		return nil, fmt.Sprintf("row %d", n)
	}
	return fams, ""
}

// encodeIndex serializes the accumulated sections into the file image:
// header, TOC, rows.
func encodeIndex(fams []*famBuilder) []byte {
	// Rows first: the TOC needs each row's offset and length.
	type rowRef struct {
		prefix string
		origin uint32
		off    uint64
		length uint32
	}
	rows := &bufWriter{}
	refs := make([][]rowRef, len(fams))
	for fi, fb := range fams {
		for _, rb := range fb.canonical() {
			off := uint64(len(rows.b))
			rb.encode(rows)
			refs[fi] = append(refs[fi], rowRef{
				prefix: rb.prefix, origin: rb.origin,
				off: off, length: uint32(uint64(len(rows.b)) - off),
			})
		}
	}

	toc := &bufWriter{}
	toc.u32(uint32(len(fams)))
	for fi, fb := range fams {
		toc.str16(fb.family)
		toc.u32(uint32(len(fb.days)))
		for _, col := range [][]int{fb.days, fb.entries, fb.g, fb.m, fb.added, fb.removed} {
			for _, v := range col {
				toc.u32(uint32(v))
			}
		}
		toc.u32(uint32(len(refs[fi])))
		for _, ref := range refs[fi] {
			toc.str16(ref.prefix)
			toc.u32(ref.origin)
			toc.u64(ref.off)
			toc.u32(ref.length)
		}
	}

	return sealIndex(toc.b, rows.b)
}

// sealIndex puts the header — section lengths and checksums — in front
// of the two sections.
func sealIndex(toc, rows []byte) []byte {
	h := header{
		version: Version,
		tocLen:  uint32(len(toc)),
		rowsLen: uint64(len(rows)),
		tocCRC:  crc32.Checksum(toc, castagnoli),
		rowsCRC: crc32.Checksum(rows, castagnoli),
	}
	return slices.Concat(h.encode(), toc, rows)
}
