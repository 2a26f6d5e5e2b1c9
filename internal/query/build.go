package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
)

// The row's flag bitmaps, in their serialized order: the order splice
// writes and row.load reads.
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

// rowBuilder holds what a build adds to one prefix's row: its flags and
// values on the days the build appends. Only the rows those days name,
// or carry from the last committed day, have one; a committed row they
// leave alone is copied as it is.
type rowBuilder struct {
	prefix string
	origin uint32

	// ref is the row's position in the committed directory, or -1 for a
	// prefix new to the index, which goes before committed row at.
	ref, at int

	// flags holds one mask of flag bits (1<<flagPresent, …) per day
	// position from first, the last committed day (-1 when none), on:
	// the committed row's bits on that day, then the appended days'.
	flags []uint16
	first int

	// series are the row's values on the appended present days, in day
	// order and as the row record holds them: the site, receiver and
	// GCD-VP counts as uvarints, then the city hashes. last holds the
	// latest present day's four values, which carry repeats.
	series [4][]byte
	last   [4]uint64

	// named is the last delta day position whose delta names the prefix
	// (a delta day is never position 0, so the zero value names none).
	named int
}

func (rb *rowBuilder) present(pos int) bool { return rb.flags[pos-rb.first]&(1<<flagPresent) != 0 }

func (rb *rowBuilder) add(pos int, e *core.DocumentEntry) {
	m := uint16(1 << flagPresent)
	if len(e.ACProtocols) > 0 {
		m |= 1 << flagCandidate
	}
	for _, p := range e.ACProtocols {
		switch p {
		case "ICMP":
			m |= 1 << flagICMP
		case "TCP":
			m |= 1 << flagTCP
		case "DNS":
			m |= 1 << flagDNS
		}
	}
	if e.GCDMeasured {
		m |= 1 << flagGCDMeasured
	}
	if e.GCDAnycast {
		m |= 1 << flagGCDAnycast
	}
	if e.PartialAnycast {
		m |= 1 << flagPartial
	}
	if e.GlobalBGP {
		m |= 1 << flagGlobalBGP
	}
	if e.FromFeedback {
		m |= 1 << flagFromFeedback
	}
	rb.flags[pos-rb.first] |= m
	rb.origin = e.OriginASN
	rb.push([4]uint64{uint64(e.GCDSites), uint64(e.MaxReceivers), uint64(e.GCDVPs), uint64(cityHash(e.GCDCities))})
}

// carry repeats the row's day pos-1 on day pos, the prefix present on
// both with an unchanged entry: what add(pos, e) writes for the entry
// add(pos-1, e) wrote.
func (rb *rowBuilder) carry(pos int) {
	rb.flags[pos-rb.first] |= rb.flags[pos-1-rb.first]
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

// famBuilder builds one family's section: the committed section it
// starts from, extended by the days the archive holds beyond it.
type famBuilder struct {
	family string
	// base is the committed directory (empty for a from-scratch build)
	// and rows the committed rows section its entries point into; cuts
	// holds, per committed row, where its receiver, GCD-VP and city
	// series begin in its record.
	base *famIndex
	rows []byte
	cuts [][3]int
	// out is the new directory: base's day list and per-day columns
	// extended by the appended days, and its rows once written.
	out famIndex

	// touched lists the rows the appended days name or carry, in the
	// order met; byPrefix finds them.
	touched  []*rowBuilder
	byPrefix map[string]*rowBuilder
	// The slabs the touched rows are carved from.
	rbSlab   []rowBuilder
	maskSlab []uint16
	byteSlab []byte
}

func newFamBuilder(a *archive.Archive, family string, base *famIndex, rows []byte) *famBuilder {
	return &famBuilder{
		family: family, base: base, rows: rows,
		cuts: make([][3]int, len(base.prefixes)),
		out: famIndex{
			days:    a.Days(family),
			entries: slices.Clip(base.entries), g: slices.Clip(base.g), m: slices.Clip(base.m),
			added: slices.Clip(base.added), removed: slices.Clip(base.removed),
		},
		byPrefix: make(map[string]*rowBuilder),
	}
}

// carve returns n zeroed elements from the free end of *slab, which it
// refills with a chunk twice the last (or n, when more), so a build
// allocates once per doubling of its rows, not once per row. The result
// has no room past n: appending to it moves it off the slab.
func carve[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, 2*cap(*slab)))
	}
	i := len(*slab)
	*slab = (*slab)[:i+n]
	return (*slab)[i : i+n : i+n]
}

// track starts the row state of prefix: committed row ref, or a row new
// to the index when ref is -1.
func (fb *famBuilder) track(prefix string, origin uint32, ref int) *rowBuilder {
	first := len(fb.base.days) - 1
	rb := &carve(&fb.rbSlab, 1)[0]
	*rb = rowBuilder{prefix: prefix, origin: origin, ref: ref, first: first, flags: carve(&fb.maskSlab, len(fb.out.days)-first)}
	// Room for one day's values: a one-day step's series never move.
	for k, n := range [4]int{binary.MaxVarintLen64, binary.MaxVarintLen64, binary.MaxVarintLen64, 4} {
		rb.series[k] = carve(&fb.byteSlab, n)[:0]
	}
	fb.byPrefix[prefix] = rb
	fb.touched = append(fb.touched, rb)
	return rb
}

// resume takes committed row p, loaded in r: it notes where the row's
// series begin and, when the build appends days and the row is present
// on the last committed day, starts its row state from that day.
func (fb *famBuilder) resume(p int, r *row) {
	fb.cuts[p] = [3]int{r.start[1], r.start[2], r.start[3]}
	last, k := len(fb.base.days)-1, len(r.present)-1
	if last+1 == len(fb.out.days) || k < 0 || r.present[k] != last {
		return
	}
	ref := fb.base.prefixes[p]
	rb := fb.track(ref.prefix, ref.origin, p)
	bl := bitmapLen(last + 1)
	for c := range nFlags {
		if getBit(r.b[c*bl:], last) {
			rb.flags[0] |= 1 << c
		}
	}
	rb.last = [4]uint64{uint64(r.sites[k]), uint64(r.receivers[k]), uint64(r.vps[k]), uint64(r.city[k])}
}

// row returns the prefix's row state, starting it when the build has
// none: from the committed row of the prefix, found through the
// directory, or as a row new to the index.
func (fb *famBuilder) row(prefix string) *rowBuilder {
	if rb := fb.byPrefix[prefix]; rb != nil {
		return rb
	}
	dir, key := fb.base.prefixes, core.ParsePrefixKey(prefix)
	i := sort.Search(len(dir), func(i int) bool { return core.ParsePrefixKey(dir[i].prefix).Compare(key) >= 0 })
	if i < len(dir) && dir[i].prefix == prefix {
		return fb.track(prefix, dir[i].origin, i)
	}
	rb := fb.track(prefix, 0, -1)
	rb.at = i
	return rb
}

// extend indexes the archived days of the family that the committed
// section does not cover: it reads each missing day-file once, through
// archive.ReadDay, from the first day the section lacks — never from
// the snapshot under it. A snapshot day adds its document's entries; a
// delta day applies to the rows directly, so no document is built for
// it.
func (fb *famBuilder) extend(a *archive.Archive) error {
	// family is the one the day before's document carries, which a
	// delta must name: what Apply checks on archive.Range's chain.
	family := fb.family
	for pos := len(fb.base.days); pos < len(fb.out.days); pos++ {
		rec, _ := a.Record(fb.family, fb.out.days[pos])
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
		rb := fb.byPrefix[p]
		switch {
		case rb == nil || !rb.present(pos-1):
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
	for _, rb := range fb.touched {
		if rb.named != pos && rb.present(pos-1) {
			rb.carry(pos)
		}
	}
	fb.closeDay(pos, d.Header.GCount, d.Header.MCount)
	return nil
}

// closeDay appends day pos's aggregate columns: the G and M counts the
// day's header publishes, and the entry count and membership churn the
// rows' presence bits give. Every row present on day pos or pos-1 is a
// touched one.
func (fb *famBuilder) closeDay(pos, g, m int) {
	var entries, added, removed int
	for _, rb := range fb.touched {
		now := rb.present(pos)
		before := rb.present(pos - 1)
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
	fb.out.entries = append(fb.out.entries, entries)
	fb.out.g = append(fb.out.g, g)
	fb.out.m = append(fb.out.m, m)
	fb.out.added = append(fb.out.added, added)
	fb.out.removed = append(fb.out.removed, removed)
}

// size returns the bytes the family's rows take once written.
func (fb *famBuilder) size() int {
	bl0, bl := bitmapLen(len(fb.base.days)), bitmapLen(len(fb.out.days))
	n := len(fb.base.prefixes) * nFlags * (bl - bl0)
	for _, ref := range fb.base.prefixes {
		n += ref.length
	}
	for _, rb := range fb.touched {
		if rb.ref < 0 {
			n += nFlags * bl
		}
		for _, s := range rb.series {
			n += len(s)
		}
	}
	return n
}

// write appends the family's rows to the rows section in canonical
// order — the committed rows spliced, the new ones merged in among them
// — and fills out's directory. It loads each row it writes into r and
// scores it into agg.
func (fb *famBuilder) write(rows []byte, r *row, agg *famAgg) ([]byte, error) {
	var spliced, fresh []*rowBuilder
	var names []string
	for _, rb := range fb.touched {
		if rb.ref < 0 {
			fresh = append(fresh, rb)
			names = append(names, rb.prefix)
		} else {
			spliced = append(spliced, rb)
		}
	}
	slices.SortFunc(spliced, func(a, b *rowBuilder) int { return a.ref - b.ref })
	core.SortPrefixStrings(names)
	for i, p := range names {
		fresh[i] = fb.byPrefix[p]
	}

	dir := fb.base.prefixes
	fb.out.prefixes = make([]prefixRef, 0, len(dir)+len(fresh))
	emit := func(ref prefixRef, old []byte, cut [3]int, rb *rowBuilder) error {
		start := len(rows)
		rows = fb.splice(rows, old, cut, rb)
		if rb != nil {
			ref.origin = rb.origin
		}
		ref.off, ref.length = int64(start), len(rows)-start
		if err := r.load(ref, len(fb.out.days), rows[start:]); err != nil {
			return err
		}
		agg.add(r.score(fb.family, ref.prefix, fb.out.days, EventOptions{}))
		fb.out.prefixes = append(fb.out.prefixes, ref)
		return nil
	}
	for i := 0; ; i++ {
		for ; len(fresh) > 0 && fresh[0].at == i; fresh = fresh[1:] {
			if err := emit(prefixRef{prefix: fresh[0].prefix}, nil, [3]int{}, fresh[0]); err != nil {
				return nil, err
			}
		}
		if i == len(dir) {
			return rows, nil
		}
		var rb *rowBuilder
		if len(spliced) > 0 && spliced[0].ref == i {
			rb, spliced = spliced[0], spliced[1:]
		}
		ref := dir[i]
		if err := emit(ref, fb.rows[ref.off:ref.off+int64(ref.length)], fb.cuts[i], rb); err != nil {
			return nil, err
		}
	}
}

// splice appends a row record over the new day list to out: the
// committed record old, over the days before and with its receiver,
// GCD-VP and city series beginning at cut (nil for a row new to the
// index), with its bitmaps widened and rb's days (nil for none) set in
// them and appended to its series.
func (fb *famBuilder) splice(out, old []byte, cut [3]int, rb *rowBuilder) []byte {
	bl0, bl := bitmapLen(len(fb.base.days)), bitmapLen(len(fb.out.days))
	if rb == nil && bl == bl0 {
		return append(out, old...)
	}
	if old == nil {
		bl0 = 0
	}
	start := len(out)
	for c := range nFlags {
		out = append(out, old[c*bl0:(c+1)*bl0]...)
		out = append(out, make([]byte, bl-bl0)...)
	}
	ends := [5]int{nFlags * bl0, cut[0], cut[1], cut[2], len(old)}
	for k := range 4 {
		out = append(out, old[ends[k]:ends[k+1]]...)
		if rb != nil {
			out = append(out, rb.series[k]...)
		}
	}
	if rb != nil {
		for j, m := range rb.flags[1:] { // flags[0] is the committed day's
			for ; m != 0; m &= m - 1 {
				setBit(out[start+bits.TrailingZeros16(m)*bl:], rb.first+1+j)
			}
		}
	}
	return out
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
// with the archive, and the aggregates sidecar next to it. It starts
// from the index already committed there — none when there is none, or
// when it fails any check (see BuildResult.FromScratch; deleting the
// file forces a full build) — and decodes each day-file that index does
// not cover once. The write is one pass over the rows in canonical
// order: a committed row is copied with its bitmaps widened, and the
// appended days' bits and values added to it; a prefix new to the index
// is encoded and merged in. Each row is scored as it is written, so the
// sidecar needs no second pass over the rows. A daily step therefore
// decodes the appended day-files alone and holds state only for the
// rows they name or carry; a resumed build and a from-scratch build of
// the same archive write the same bytes. The write is atomic: the index
// appears at path complete and CRC'd, or not at all.
func Build(a *archive.Archive, path string) (*BuildResult, error) {
	decoded := a.Decodes()
	fams, why := loadState(a, path)
	res := &BuildResult{Path: path, Families: len(fams), Resumed: why == "", FromScratch: why}
	for _, fb := range fams {
		if err := fb.extend(a); err != nil {
			return nil, fmt.Errorf("query: indexing %s: %w", fb.family, err)
		}
		res.DaysAdded += len(fb.out.days) - len(fb.base.days)
		res.Days += len(fb.out.days)
	}
	res.DaysDecoded = a.Decodes() - decoded
	image, ag, err := writeIndex(fams)
	// Open the image before committing it: an index its own Open refuses
	// must not replace the one the next build resumes from.
	var ix *Index
	if err == nil {
		ix, err = openImage(image)
	}
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
	for _, fb := range fams {
		res.Prefixes += len(fb.out.prefixes)
	}
	for _, st := range a.Stats() {
		res.SourceBytes += st.StoredBytes
	}
	// The dashboard aggregates go next to the index: the serving tier
	// answers its hot queries from this sidecar without touching row
	// storage. They are what computeAggregates makes of the committed
	// image, so the sidecar is a pure function of the index bytes, and
	// carries their fingerprint.
	ag.Fingerprint = ix.fingerprint
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
// archived family: over the index committed at path when that index
// describes the archive's first days, else over nothing, with the
// reason (BuildResult.FromScratch).
func loadState(a *archive.Archive, path string) (fams []*famBuilder, why string) {
	if fams, why = committedState(a, path); why == "" {
		return fams, ""
	}
	for _, family := range a.Families() {
		fams = append(fams, newFamBuilder(a, family, &famIndex{}, nil))
	}
	return fams, why
}

// committedState makes the builders that extend the index at path, or
// says why a build of a cannot start from it. The file is read once:
// Open's checks and the rows run on that one buffer, and the aggregates
// sidecar is not read at all. The index is accepted only in the layout
// writeIndex produces — families and prefixes in strictly ascending
// order, rows contiguous, covering the rows section and each in the form
// row.load accepts — so that copying a row writes what a build from
// scratch writes for it; otherwise why names the first row that does
// not fit.
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
	rows := image[ix.rowsOff:]
	n, off := 0, 0
	var r row
	for i, family := range ix.order {
		if i > 0 && family <= ix.order[i-1] {
			return nil, "family set"
		}
		fam := ix.fams[family]
		fb := newFamBuilder(a, family, fam, rows)
		var last core.PrefixKey
		for p, ref := range fam.prefixes {
			key := core.ParsePrefixKey(ref.prefix)
			if p > 0 && last.Compare(key) >= 0 || ref.off != int64(off) || ref.length > len(rows)-off ||
				r.load(ref, len(fam.days), rows[off:off+ref.length]) != nil {
				return nil, fmt.Sprintf("row %d", n)
			}
			last = key
			fb.resume(p, &r)
			off += ref.length
			n++
		}
		fams = append(fams, fb)
	}
	if off != len(rows) {
		return nil, fmt.Sprintf("row %d", n)
	}
	return fams, ""
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

// writeIndex writes every family's rows, then the TOC, into the file
// image, and returns it with the aggregates of its rows (all but the
// fingerprint, which the sealed image fixes).
func writeIndex(fams []*famBuilder) ([]byte, *Aggregates, error) {
	size := 0
	for _, fb := range fams {
		size += fb.size()
	}
	rows := make([]byte, 0, size)
	dir := &Index{fams: make(map[string]*famIndex, len(fams))}
	ag := &Aggregates{Schema: aggSchema}
	var (
		r   row
		err error
	)
	for _, fb := range fams {
		agg := newFamAgg(fb.family, &fb.out)
		if rows, err = fb.write(rows, &r, agg); err != nil {
			return nil, nil, err
		}
		ag.Families = append(ag.Families, agg.done())
		dir.order = append(dir.order, fb.family)
		dir.fams[fb.family] = &fb.out
	}
	return sealIndex(dir.encodeTOC(), rows), ag, nil
}

// encodeTOC serializes the directory: per family its day list, the
// per-day columns and each row's (prefix, origin, offset, length).
func (ix *Index) encodeTOC() []byte {
	toc := &bufWriter{}
	toc.u32(uint32(len(ix.order)))
	for _, family := range ix.order {
		fam := ix.fams[family]
		toc.str16(family)
		toc.u32(uint32(len(fam.days)))
		for _, col := range [][]int{fam.days, fam.entries, fam.g, fam.m, fam.added, fam.removed} {
			for _, v := range col {
				toc.u32(uint32(v))
			}
		}
		toc.u32(uint32(len(fam.prefixes)))
		for _, ref := range fam.prefixes {
			toc.str16(ref.prefix)
			toc.u32(ref.origin)
			toc.u64(uint64(ref.off))
			toc.u32(uint32(ref.length))
		}
	}
	return toc.b
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
