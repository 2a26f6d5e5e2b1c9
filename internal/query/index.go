// Package query is the longitudinal query engine over the census
// archive (§7, Fig 9): the questions the paper's longitudinal pillar
// exists to answer — how long does a prefix stay anycast, when do
// deployments appear, disappear or flap, how do site counts churn —
// answered without touching full-day documents on the hot path.
//
// It has two halves. The indexer (Build) streams an archive into a
// compact columnar prefix-timeline index on disk next to index.jsonl. It
// is resumable: the committed index is the state the next build starts
// from, so a daily step decodes the appended day's delta chain rather
// than the history, and a full build is the same code resuming from
// nothing. Per prefix the index holds a presence bitmap over the
// indexed days, per-day anycast-based and GCD verdict bits, protocol
// bits, and site-count / receiver / VP / geo-signature series; per day
// the aggregate census counts and membership churn. The query layer
// (Index) answers Timeline, Events (onset / offset / flap / site-churn
// / geo-shift, with hysteresis), Stability scoring and aggregate Series
// from the index alone — no query decodes a document, and the archive's
// decode counter proves it. The Index caches no decoded rows: a row read
// and decode is a few microseconds, and every result is the caller's
// own.
package query

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
	byPrefix                      map[string]int
}

// Index is an opened timeline index: the TOC directory in memory, row
// records read and decoded on demand (ReadAt, no mmap). Memory stays
// bounded by the directory no matter how many rows are queried.
type Index struct {
	path    string
	f       *os.File
	rowsOff int64
	fams    map[string]*famIndex
	order   []string // family names, sorted

	// fingerprint is the build identity: the header's two section CRCs,
	// fixed at build time. See Fingerprint.
	fingerprint string

	arch *archive.Archive // optional: full-entry fallback

	// agg is the materialized dashboard aggregate set: preloaded from
	// the sidecar file when its fingerprint matches, otherwise computed
	// once on first use (aggOnce).
	agg         *Aggregates
	aggFromDisk bool
	aggOnce     sync.Once
	aggErr      error

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
// buffer, never held), and keeps the file handle for on-demand row
// reads.
func Open(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	hb := make([]byte, headerLen)
	if _, err := io.ReadFull(f, hb); err != nil {
		f.Close()
		return nil, fmt.Errorf("query: reading index header: %w", err)
	}
	h, err := decodeHeader(hb)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Bound the declared section lengths against the actual file size
	// before allocating: a bit-flipped header must fail cleanly, not
	// drive a multi-GiB allocation.
	if fi, err := f.Stat(); err != nil {
		f.Close()
		return nil, fmt.Errorf("query: %w", err)
	} else if want := int64(headerLen) + int64(h.tocLen) + int64(h.rowsLen); want != fi.Size() {
		f.Close()
		return nil, fmt.Errorf("query: index sections declare %d bytes but the file holds %d (corrupt header or truncated file)", want, fi.Size())
	}
	tocBytes := make([]byte, h.tocLen)
	if _, err := io.ReadFull(f, tocBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("query: reading index TOC: %w", err)
	}
	if crc := crc32.Checksum(tocBytes, castagnoli); crc != h.tocCRC {
		f.Close()
		return nil, fmt.Errorf("query: index TOC checksum mismatch (%08x/%08x)", crc, h.tocCRC)
	}
	// Stream the rows section once to prove its checksum — O(buffer)
	// memory however large the section.
	rowsCRC := crc32.New(castagnoli)
	n, err := io.Copy(rowsCRC, io.LimitReader(f, int64(h.rowsLen)))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("query: checksumming index rows: %w", err)
	}
	if uint64(n) != h.rowsLen || rowsCRC.Sum32() != h.rowsCRC {
		f.Close()
		return nil, fmt.Errorf("query: index rows section corrupt (%d/%d bytes, crc %08x/%08x)",
			n, h.rowsLen, rowsCRC.Sum32(), h.rowsCRC)
	}

	ix := &Index{
		path:        path,
		f:           f,
		rowsOff:     int64(headerLen) + int64(h.tocLen),
		fams:        make(map[string]*famIndex),
		fingerprint: fmt.Sprintf("%08x%08x", h.tocCRC, h.rowsCRC),
	}
	r := &bufReader{b: tocBytes}
	nFams := int(r.u32())
	for i := 0; i < nFams && r.err == nil; i++ {
		family := r.str16()
		nDays := r.count(6 * 4) // the day list and five columns
		fam := &famIndex{days: make([]int, nDays), byPrefix: make(map[string]int)}
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
			fam.byPrefix[ref.prefix] = p
		}
		ix.fams[family] = fam
		ix.order = append(ix.order, family)
	}
	if r.err == nil && r.off != len(tocBytes) {
		r.err = fmt.Errorf("query: index TOC has %d trailing bytes", len(tocBytes)-r.off)
	}
	if r.err != nil {
		f.Close()
		return nil, r.err
	}
	// A matching aggregates sidecar (written by Build) lets the hot
	// dashboard queries skip row storage entirely; a missing, stale or
	// unreadable sidecar just means Aggregates computes on first use.
	if ag := loadAggregates(AggregatesPath(path), ix.fingerprint); ag != nil {
		ix.agg, ix.aggFromDisk = ag, true
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
// only the appended days when that is all that happened.
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

// Close releases the index file handle.
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
	fam := ix.fams[family]
	if fam == nil {
		return nil, fmt.Errorf("query: no %s timelines: %w", family, ErrUnknownFamily)
	}
	pos, ok := fam.byPrefix[prefix]
	if !ok {
		return nil, fmt.Errorf("query: %s (%s): %w", prefix, family, ErrUnknownPrefix)
	}
	ix.lookups.Add(1)
	return ix.loadRow(family, fam, pos)
}

// loadRow reads and decodes one prefix's row record.
func (ix *Index) loadRow(family string, fam *famIndex, pos int) (*Timeline, error) {
	ref := fam.prefixes[pos]
	b := make([]byte, ref.length)
	if _, err := ix.f.ReadAt(b, ix.rowsOff+ref.off); err != nil {
		return nil, fmt.Errorf("query: reading row for %s: %w", ref.prefix, err)
	}
	return decodeRow(family, ref, fam.days, b)
}

// decodeRow expands a columnar row record into a Timeline.
func decodeRow(family string, ref prefixRef, days []int, b []byte) (*Timeline, error) {
	nDays := len(days)
	bl := bitmapLen(nDays)
	if len(b) < 10*bl {
		return nil, fmt.Errorf("query: row for %s shorter than its bitmaps", ref.prefix)
	}
	tl := &Timeline{
		Family: family, Prefix: ref.prefix, OriginASN: ref.origin, Days: days,
		Sites:     make([]int, nDays),
		Receivers: make([]int, nDays),
		VPs:       make([]int, nDays),
		CityHash:  make([]uint32, nDays),
	}
	cols := []*[]bool{
		&tl.Present, &tl.AnycastBased, &tl.GCDMeasured, &tl.GCDAnycast,
		&tl.ICMP, &tl.TCP, &tl.DNS,
		&tl.Partial, &tl.GlobalBGP, &tl.FromFeedback,
	}
	for c, col := range cols {
		bm := b[c*bl : (c+1)*bl]
		*col = make([]bool, nDays)
		for i := 0; i < nDays; i++ {
			(*col)[i] = getBit(bm, i)
		}
	}
	r := &bufReader{b: b, off: 10 * bl}
	for _, series := range []*[]int{&tl.Sites, &tl.Receivers, &tl.VPs} {
		for i := 0; i < nDays; i++ {
			if tl.Present[i] {
				(*series)[i] = int(r.uvarint())
			}
		}
	}
	for i := 0; i < nDays; i++ {
		if tl.Present[i] {
			tl.CityHash[i] = r.u32()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("query: row for %s: %w", ref.prefix, r.err)
	}
	return tl, nil
}
