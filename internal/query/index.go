// Package query is the longitudinal query engine over the census
// archive (§7, Fig 9): the questions the paper's longitudinal pillar
// exists to answer — how long does a prefix stay anycast, when do
// deployments appear, disappear or flap, how do site counts churn —
// answered without touching full-day documents on the hot path.
//
// It has two halves. The indexer (Build) streams an archive into a
// compact columnar prefix-timeline index on disk next to index.jsonl. It
// is resumable: the committed index is the state the next build starts
// from, so a daily step decodes each appended day-file once — a delta
// applied to the rows, not to a document rebuilt from its snapshot —
// rather than the history, and holds state only for the rows the new
// days name or carry. The write is one pass over the rows in canonical
// order that splices each committed row (bitmaps widened, the new days'
// values appended to its series) and scores it for the aggregates
// sidecar; a full build is the same code resuming from nothing. Per
// prefix the index holds a presence bitmap over the indexed days, per-day
// anycast-based and GCD verdict bits, protocol bits, and site-count /
// receiver / VP / geo-signature series; per day the aggregate census
// counts and membership churn. The query layer
// (Index) answers Timeline, Events (onset / offset / flap / site-churn
// / geo-shift, with hysteresis), Stability scoring and aggregate Series
// from the index alone — no query decodes a document, and the archive's
// decode counter proves it. The Index caches no rows, and every result
// is the caller's own. One reader parses a row record (row.load), and it
// accepts only the form the builder writes. Timeline expands the loaded
// row into day-aligned columns; Events, Stability, the aggregates pass
// and Build scan it in place through buffers reused row after row, so a
// family-wide pass allocates nothing per row. Opening an index parses
// only its TOC: the prefix map is made on a family's first lookup and
// the sidecar is read on the first aggregates call.
package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/laces-project/laces/internal/archive"
)

// Errors the query layer distinguishes for its HTTP mapping: unknown
// names are the caller's lookup miss (404), anything else is an index
// integrity or I/O failure.
var (
	ErrUnknownFamily = errors.New("family not indexed")
	ErrUnknownPrefix = errors.New("prefix not indexed")
)

// prefixRef is one TOC directory entry: where a prefix's row record
// lives in the rows section.
type prefixRef struct {
	prefix string
	origin uint32
	off    int64
	length int
}

// famIndex is one family's in-memory directory.
type famIndex struct {
	days []int
	// Per-day aggregate columns (aligned to days).
	entries, g, m, added, removed []int
	prefixes                      []prefixRef

	// byPrefix maps each prefix to its directory position, made on the
	// family's first lookup: a build or an aggregates pass never needs it.
	byPrefix     map[string]int
	byPrefixOnce sync.Once
}

// lookup returns the directory position of prefix.
func (fam *famIndex) lookup(prefix string) (int, bool) {
	fam.byPrefixOnce.Do(func() {
		fam.byPrefix = make(map[string]int, len(fam.prefixes))
		for p, ref := range fam.prefixes {
			fam.byPrefix[ref.prefix] = p
		}
	})
	p, ok := fam.byPrefix[prefix]
	return p, ok
}

// Index is an opened timeline index: the TOC directory in memory, row
// records read and decoded on demand (ReadAt, no mmap). Memory stays
// bounded by the directory no matter how many rows are queried.
type Index struct {
	// src holds the index file: the open file, or an image in memory.
	// Row records are read through it; f is the file to close, nil for
	// an image.
	src     io.ReaderAt
	f       *os.File
	rowsOff int64
	fams    map[string]*famIndex
	order   []string // family names, sorted

	// fingerprint is the build identity: the header's two section CRCs,
	// fixed at build time. See Fingerprint.
	fingerprint string

	arch *archive.Archive // optional: full-entry fallback

	// side is the aggregates sidecar at aggPath, read on first use
	// (sideOnce) and nil unless its fingerprint matches; agg is the set
	// computed from the rows, once (aggOnce), when there is no side.
	aggPath  string
	side     *Aggregates
	sideOnce sync.Once
	agg      *Aggregates
	aggOnce  sync.Once
	aggErr   error

	// Lookup telemetry, atomically updated per query and never consulted
	// by query logic. Read via Stats.
	lookups atomic.Int64

	// Event-scan telemetry: rows considered by Events and rows the
	// day-range presence-prefix check skipped without a full decode.
	eventRows       atomic.Int64
	eventRowsPruned atomic.Int64
}

// Fingerprint identifies the exact build of this index: the hex digest
// of the TOC and rows section CRC-32Cs recorded in the header at build
// time. It is stable across process restarts and re-opens of the same
// file, and changes whenever the index is rebuilt over different
// archive contents — the property HTTP validators (ETags) need.
func (ix *Index) Fingerprint() string { return ix.fingerprint }

// EventScanStats reports the Events scan telemetry: rows considered and
// rows skipped by the day-range presence check without a full decode.
func (ix *Index) EventScanStats() (scanned, pruned int64) {
	if ix == nil {
		return 0, 0
	}
	return ix.eventRows.Load(), ix.eventRowsPruned.Load()
}

// Stats reports the index's lifetime Timeline lookups, zero for a nil
// index. The other two values are always zero — the Index keeps no
// timeline cache, and no query falls back to document decoding — and
// survive only because the frozen bench/ module compiles against three
// results; the next benchmark PR retires them together with the
// query.cache_hit_share and query.decode_fallbacks columns.
func (ix *Index) Stats() (lookups, cacheHits, decodeFallbacks int64) {
	if ix == nil {
		return 0, 0, 0
	}
	return ix.lookups.Load(), 0, 0
}

// Open loads a timeline index file: it validates the header, checks
// both section CRCs (the rows section is streamed through a small
// buffer, never held), parses the TOC, and keeps the file handle for
// on-demand row reads. The aggregates sidecar is read on first use.
func Open(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("query: %w", err)
	}
	ix, err := openReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	ix.f, ix.aggPath = f, AggregatesPath(path)
	return ix, nil
}

// openImage opens an index file image held in memory with Open's checks,
// reading rows from the image. It does not look for a sidecar.
func openImage(image []byte) (*Index, error) {
	return openReader(bytes.NewReader(image), int64(len(image)))
}

// openReader checks the index file held by src, size bytes long — header,
// section lengths against the size, both section CRCs — and parses its
// TOC into an Index reading rows from src. The names in the directory
// are substrings of one copy of the TOC.
func openReader(src io.ReaderAt, size int64) (*Index, error) {
	hb := make([]byte, headerLen)
	if _, err := src.ReadAt(hb, 0); err != nil {
		return nil, fmt.Errorf("query: reading index header: %w", err)
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return nil, err
	}
	// Bound the declared section lengths against the actual file size
	// before allocating: a bit-flipped header must fail cleanly, not
	// drive a multi-GiB allocation.
	if want := int64(headerLen) + int64(h.tocLen) + int64(h.rowsLen); want != size {
		return nil, fmt.Errorf("query: index sections declare %d bytes but the file holds %d (corrupt header or truncated file)", want, size)
	}
	tocBytes := make([]byte, h.tocLen)
	if _, err := src.ReadAt(tocBytes, headerLen); err != nil {
		return nil, fmt.Errorf("query: reading index TOC: %w", err)
	}
	if crc := crc32.Checksum(tocBytes, castagnoli); crc != h.tocCRC {
		return nil, fmt.Errorf("query: index TOC checksum mismatch (%08x/%08x)", crc, h.tocCRC)
	}
	// Stream the rows section once to prove its checksum — O(buffer)
	// memory however large the section, and no more than the section
	// for a small one.
	rowsOff := int64(headerLen) + int64(h.tocLen)
	rowsCRC := crc32.New(castagnoli)
	buf := make([]byte, max(min(h.rowsLen, 32<<10), 1))
	n, err := io.CopyBuffer(rowsCRC, io.NewSectionReader(src, rowsOff, int64(h.rowsLen)), buf)
	if err != nil {
		return nil, fmt.Errorf("query: checksumming index rows: %w", err)
	}
	if uint64(n) != h.rowsLen || rowsCRC.Sum32() != h.rowsCRC {
		return nil, fmt.Errorf("query: index rows section corrupt (%d/%d bytes, crc %08x/%08x)",
			n, h.rowsLen, rowsCRC.Sum32(), h.rowsCRC)
	}

	ix := &Index{
		src:         src,
		rowsOff:     rowsOff,
		fams:        make(map[string]*famIndex),
		fingerprint: fmt.Sprintf("%08x%08x", h.tocCRC, h.rowsCRC),
	}
	r := &bufReader{b: tocBytes, s: string(tocBytes)}
	nFams := int(r.u32())
	for i := 0; i < nFams && r.err == nil; i++ {
		family := r.str16()
		nDays := r.count(6 * 4) // the day list and five columns
		fam := &famIndex{days: make([]int, nDays)}
		for d := 0; d < nDays; d++ {
			fam.days[d] = int(r.u32())
		}
		for _, col := range []*[]int{&fam.entries, &fam.g, &fam.m, &fam.added, &fam.removed} {
			*col = make([]int, nDays)
			for d := 0; d < nDays; d++ {
				(*col)[d] = int(r.u32())
			}
		}
		nPrefixes := r.count(2 + 4 + 8 + 4)
		fam.prefixes = make([]prefixRef, nPrefixes)
		for p := 0; p < nPrefixes && r.err == nil; p++ {
			ref := prefixRef{prefix: r.str16(), origin: r.u32()}
			off, length := r.u64(), r.u32()
			if r.err == nil && (off > h.rowsLen || uint64(length) > h.rowsLen-off) {
				r.err = fmt.Errorf("query: row for %s lies outside the rows section", ref.prefix)
			}
			ref.off, ref.length = int64(off), int(length)
			fam.prefixes[p] = ref
		}
		ix.fams[family] = fam
		ix.order = append(ix.order, family)
	}
	if r.err == nil && r.off != len(tocBytes) {
		r.err = fmt.Errorf("query: index TOC has %d trailing bytes", len(tocBytes)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return ix, nil
}

// OpenDir opens the timeline index of the archive at dir and attaches
// the archive itself for full-entry fallback queries. It refuses a
// stale index: one that no longer covers the archive's day list.
func OpenDir(dir string) (*Index, error) {
	ix, err := Open(filepath.Join(dir, IndexFileName))
	if err != nil {
		return nil, err
	}
	a, err := archive.Open(dir)
	if err != nil {
		ix.Close()
		return nil, err
	}
	if err := ix.VerifyCoverage(a); err != nil {
		ix.Close()
		return nil, err
	}
	ix.AttachArchive(a)
	return ix, nil
}

// VerifyCoverage checks that the index still describes the archive:
// the same families, each over exactly the archive's day list with the
// archive's per-day counts. A mismatch means days were appended (or the
// store regenerated) after the index was built; serving longitudinal
// answers from it would silently misreport the new days, or days no
// archived file backs. Build/BuildDir bring it up to date — by decoding
// each appended day-file once when that is all that happened.
func (ix *Index) VerifyCoverage(a *archive.Archive) error {
	switch missing, why := ix.behind(a); {
	case why != "":
		return fmt.Errorf("query: timeline index is stale: it disagrees with the archive on the %s — `laces query build-index` rebuilds it", why)
	case missing > 0:
		return fmt.Errorf("query: timeline index is stale: %d archived day-files are not indexed — `laces query build-index` extends it, decoding only those days", missing)
	}
	return nil
}

// AttachArchive wires the document store the index was built from, so
// callers can read its decode counter. Queries never touch it.
func (ix *Index) AttachArchive(a *archive.Archive) { ix.arch = a }

// Archive returns the attached fallback store, if any.
func (ix *Index) Archive() *archive.Archive { return ix.arch }

// Close releases the index file handle; row reads fail afterwards.
func (ix *Index) Close() error {
	if ix.f == nil {
		return nil
	}
	err := ix.f.Close()
	ix.f = nil
	return err
}

// Prefixes returns one family's indexed prefixes in canonical order.
func (ix *Index) Prefixes(family string) []string {
	fam := ix.fams[family]
	if fam == nil {
		return nil
	}
	out := make([]string, len(fam.prefixes))
	for i, ref := range fam.prefixes {
		out[i] = ref.prefix
	}
	return out
}

// Timeline is one prefix's full longitudinal record, every column
// aligned to Days (absent days read false / zero).
type Timeline struct {
	Family    string `json:"family"`
	Prefix    string `json:"prefix"`
	OriginASN uint32 `json:"origin_asn"`
	Days      []int  `json:"days"`

	Present      []bool `json:"present"`
	AnycastBased []bool `json:"anycast_based"`
	GCDMeasured  []bool `json:"gcd_measured"`
	GCDAnycast   []bool `json:"gcd_anycast"`
	ICMP         []bool `json:"icmp"`
	TCP          []bool `json:"tcp"`
	DNS          []bool `json:"dns"`
	Partial      []bool `json:"partial_anycast"`
	GlobalBGP    []bool `json:"global_bgp"`
	FromFeedback []bool `json:"from_feedback"`

	Sites     []int    `json:"gcd_sites"`
	Receivers []int    `json:"anycast_based_vps"`
	VPs       []int    `json:"gcd_vps"`
	CityHash  []uint32 `json:"city_hash"`
}

// PresentDays counts the days the prefix appears in the census.
func (tl *Timeline) PresentDays() int {
	n := 0
	for _, p := range tl.Present {
		if p {
			n++
		}
	}
	return n
}

// FirstPresent returns the first census day carrying the prefix.
func (tl *Timeline) FirstPresent() (int, bool) {
	for i, p := range tl.Present {
		if p {
			return tl.Days[i], true
		}
	}
	return 0, false
}

// LastPresent returns the last census day carrying the prefix.
func (tl *Timeline) LastPresent() (int, bool) {
	for i := len(tl.Present) - 1; i >= 0; i-- {
		if tl.Present[i] {
			return tl.Days[i], true
		}
	}
	return 0, false
}

// Timeline answers one prefix's timeline from the index alone: one row
// read and decode per call. The result is the caller's own, except that
// its Days column is the index's shared day list (read-only).
func (ix *Index) Timeline(family, prefix string) (*Timeline, error) {
	fam, ref, err := ix.find(family, prefix)
	if err != nil {
		return nil, err
	}
	n := len(fam.days)
	b, err := ix.readRow(nil, ref)
	if err != nil {
		return nil, err
	}
	var r row
	if err := r.load(ref, n, b); err != nil {
		return nil, err
	}
	// The fresh row's slices are the columns: load sized them to the day
	// list and packed the present days' values at their front.
	tl := &Timeline{
		Family: family, Prefix: ref.prefix, OriginASN: ref.origin, Days: fam.days,
		Sites: r.sites[:n], Receivers: r.receivers[:n], VPs: r.vps[:n], CityHash: r.city[:n],
	}
	bl, flags := bitmapLen(n), make([]bool, nFlags*n)
	for c, col := range [nFlags]*[]bool{
		&tl.Present, &tl.AnycastBased, &tl.GCDMeasured, &tl.GCDAnycast,
		&tl.ICMP, &tl.TCP, &tl.DNS,
		&tl.Partial, &tl.GlobalBGP, &tl.FromFeedback,
	} {
		fc := flags[c*n : (c+1)*n : (c+1)*n]
		for i, x := range b[c*bl : (c+1)*bl] {
			for ; x != 0; x &= x - 1 {
				fc[i*8+bits.TrailingZeros8(x)] = true // load refused bits past the last day
			}
		}
		*col = fc
	}
	// Move each present day's values to its day position, the last
	// first: a position is never below its rank among the present days,
	// so no value is overwritten before it is moved.
	for k := len(r.present) - 1; k >= 0; k-- {
		p := r.present[k]
		s, rc, v, c := tl.Sites[k], tl.Receivers[k], tl.VPs[k], tl.CityHash[k]
		tl.Sites[k], tl.Receivers[k], tl.VPs[k], tl.CityHash[k] = 0, 0, 0, 0
		tl.Sites[p], tl.Receivers[p], tl.VPs[p], tl.CityHash[p] = s, rc, v, c
	}
	return tl, nil
}

// find resolves one prefix's directory entry and counts the lookup.
func (ix *Index) find(family, prefix string) (*famIndex, prefixRef, error) {
	fam := ix.fams[family]
	if fam == nil {
		return nil, prefixRef{}, fmt.Errorf("query: no %s timelines: %w", family, ErrUnknownFamily)
	}
	pos, ok := fam.lookup(prefix)
	if !ok {
		return nil, prefixRef{}, fmt.Errorf("query: %s (%s): %w", prefix, family, ErrUnknownPrefix)
	}
	ix.lookups.Add(1)
	return fam, fam.prefixes[pos], nil
}

// readRow reads one prefix's row record into buf, growing it only when
// the row does not fit.
func (ix *Index) readRow(buf []byte, ref prefixRef) ([]byte, error) {
	buf = slices.Grow(buf[:0], ref.length)[:ref.length]
	if _, err := ix.src.ReadAt(buf, ix.rowsOff+ref.off); err != nil {
		return buf, fmt.Errorf("query: reading row for %s: %w", ref.prefix, err)
	}
	return buf, nil
}

// row is a row record read in place, by the one reader of the form
// famBuilder.splice writes. load fills the positions of the days the
// prefix is present on and, per present day, its site, receiver and
// GCD-VP counts and city hash, into slices sized once to the day list
// and reused row after row, so a pass over a family allocates nothing
// per row.
type row struct {
	b   []byte // the record
	gcd []byte // its GCD-anycast bitmap
	// start[k] is where series k (sites, receivers, GCD VPs, cities)
	// begins in b; start[4] is len(b).
	start [5]int

	present               []int // present day positions, ascending
	sites, receivers, vps []int
	city                  []uint32

	scratch []Event // score's detection buffer
}

// load reads the row record b over nDays day positions. It accepts only
// what splice writes: nFlags bitmaps with no bit set past the last day;
// per present day the site, receiver and GCD-VP counts as minimal
// uvarints; then the city hashes; nothing after.
func (r *row) load(ref prefixRef, nDays int, b []byte) error {
	bl := bitmapLen(nDays)
	if len(b) < nFlags*bl {
		return fmt.Errorf("query: row for %s shorter than its bitmaps", ref.prefix)
	}
	if tail := nDays % 8; tail != 0 {
		for c := 1; c <= nFlags; c++ {
			if b[c*bl-1]>>tail != 0 {
				return fmt.Errorf("query: row for %s flags a day past the last", ref.prefix)
			}
		}
	}
	if cap(r.present) < nDays {
		// Size every slice for the day list at once: no append below
		// grows one, since no bit is set past the last day.
		ints := make([]int, 4*nDays)
		r.present, r.sites = ints[:0:nDays], ints[nDays:nDays:2*nDays]
		r.receivers, r.vps = ints[2*nDays:2*nDays:3*nDays], ints[3*nDays:3*nDays]
		r.city = make([]uint32, 0, nDays)
	}
	r.b, r.gcd = b, b[flagGCDAnycast*bl:(flagGCDAnycast+1)*bl]
	r.present = r.present[:0]
	for i, x := range b[:bl] {
		for ; x != 0; x &= x - 1 {
			r.present = append(r.present, i*8+bits.TrailingZeros8(x))
		}
	}
	off := nFlags * bl
	for k, s := range [...]*[]int{&r.sites, &r.receivers, &r.vps} {
		r.start[k] = off
		vals := (*s)[:len(r.present)]
		for i := range vals {
			if off < len(b) && b[off] < 0x80 { // the one-byte varint, most of them
				vals[i] = int(b[off])
				off++
				continue
			}
			v, n := binary.Uvarint(b[off:])
			if n <= 0 || b[off+n-1] == 0 {
				return fmt.Errorf("query: row for %s holds a truncated or padded varint at byte %d", ref.prefix, off)
			}
			vals[i] = int(v)
			off += n
		}
		*s = vals
	}
	r.start[3], r.start[4] = off, len(b)
	if len(b)-off != 4*len(r.present) {
		return fmt.Errorf("query: row for %s holds %d bytes of city hashes for %d present days", ref.prefix, len(b)-off, len(r.present))
	}
	r.city = r.city[:len(r.present)]
	for i := range r.city {
		r.city[i] = binary.LittleEndian.Uint32(b[off+4*i:])
	}
	return nil
}
