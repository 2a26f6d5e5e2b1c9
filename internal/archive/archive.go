// Package archive implements the longitudinal census store behind the
// paper's public repository (§4.4, §7): an append-only, delta-encoded
// archive of daily census documents.
//
// Day-over-day censuses are highly redundant — most prefixes persist
// (Fig 10) — so the archive stores a full snapshot every K days and, in
// between, only the day's changes (core.RowDelta). The layout is a
// directory:
//
//	index.jsonl            one JSON line per appended day (the only
//	                       file ever appended to; day files are
//	                       immutable once written)
//	ipv4-000000.snap.json  snapshot: the day's canonical WriteJSON bytes
//	ipv4-000001.delta.json delta against the previous ipv4 day (compact)
//	ipv6-000000.snap.json  families interleave freely; chains are
//	                       per family
//
// Every index record carries a CRC-32C over the day's canonical JSON
// bytes, so every read can prove — without any external reference — that
// unpacking reproduces exactly what WriteJSON published: the reader's
// walk proves each day it rebuilds, and a day-file changed since it was
// packed is an error on every read path (Day, Document, Range,
// RangeJSON, Verify), never a day served.
//
// commit.go is the store's one write seam: a day file (and query's
// timeline.idx and its .agg sidecar) appears whole through CommitFile's
// tmp-and-rename, and index.jsonl is opened, repaired and appended
// there, beside the parser Open reads its lines with.
//
// Rows are the one form a day takes here. core.SplitDocument and
// core.SplitDelta, the one split, split a day-file into rows (a prefix,
// parsed for the merge, and the row's bytes) by finding each row's
// extent and checking no other field; encoding/json reads the small
// header object, and the whole file only when the split cannot find its
// rows. A row's grammar is checked where it is decoded (core.RowDecoder).
// A day outside a day-file takes one form, core.CanonicalDay: its
// canonical bytes and the rows that alias them. The writer streams each
// day into it once (core.StreamDocument), keeps it for the next day, and
// stores a delta day as core.DiffRows of the two days' rows, proven to
// rebuild the day before its record is written; a resumed writer takes
// the last day in it from the reader. The readers rebuild days from
// stored rows: core.RowDelta.Apply merges a delta's rows into the day
// before, the walk proves the day, and a reader appends the day's
// canonical bytes from them (Day, for /v1/census and the writer), decodes
// only the rows it hands out (core.RowDecoder) or, for /v1/range, copies
// their bytes. ReadDay, which proves nothing, decodes one day-file for
// the query indexer as encoding/json reads it, and the indexer takes a
// delta's changes as they are.
//
// The reader (Archive) caches no day and no day-file's bytes, so a day
// it returns is the caller's own, and callers that re-read days keep
// their own cache (internal/api's day LRU). Every day-file is read whole,
// once per walk, and hashed. What changes after Open is a decode counter
// and, per record, a proof: the keyed hash of the bytes its day was last
// proven from and, within one fixed budget per handle, the file's split
// kept as spans, so that a re-read rebuilds its rows without splitting
// it. A read takes no lock; keeping a split takes one.
package archive

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"github.com/laces-project/laces/internal/core"
)

// IndexFile is the append-only index at the archive root.
const IndexFile = "index.jsonl"

// DefaultSnapshotEvery is the default snapshot cadence K: one full
// snapshot, then K-1 deltas.
const DefaultSnapshotEvery = 7

// castagnoli is the CRC-32C table used for day checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kinds of archived day files.
const (
	KindSnapshot = "snapshot"
	KindDelta    = "delta"
)

// dayFileName is the file, relative to the archive root, that holds one
// family's day of the given kind: the only name Writer gives it and the
// only one Open accepts in its record.
func dayFileName(family string, day int, kind string) string {
	var b [64]byte
	return string(appendDayFileName(b[:0], family, day, kind))
}

// appendDayFileName appends dayFileName's name to b: the family, the day
// as fmt's %06d writes it (zero-padded to six characters, a sign
// included), and the kind's extension.
func appendDayFileName(b []byte, family string, day int, kind string) []byte {
	b = append(append(b, family...), '-')
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(day), 10)
	width := len(d)
	if d[0] == '-' {
		b, d = append(b, '-'), d[1:]
	}
	for ; width < 6; width++ {
		b = append(b, '0')
	}
	ext := ".delta.json"
	if kind == KindSnapshot {
		ext = ".snap.json"
	}
	return append(append(b, d...), ext...)
}

// Record is one index line: everything the reader needs to locate,
// decode and verify one archived census day.
type Record struct {
	Seq    int    `json:"seq"`
	Day    int    `json:"day"`
	Family string `json:"family"`
	Date   string `json:"date"`
	Kind   string `json:"kind"`
	File   string `json:"file"`
	// Bytes is the stored file size; FullBytes the size of the day's
	// canonical WriteJSON form (what a per-day full-JSON repository
	// would carry) — the pair is the archive's compression ledger.
	Bytes     int64 `json:"bytes"`
	FullBytes int64 `json:"full_bytes"`
	// CRC is a CRC-32C over the canonical WriteJSON bytes.
	CRC     uint32 `json:"crc32c"`
	Entries int    `json:"entries"`
	GCount  int    `json:"gcd_confirmed"`
	MCount  int    `json:"anycast_based_only"`
	// Probes is the day's published R3 probing total.
	Probes int64 `json:"probes"`
}

// Sink consumes finished census days as they complete — the streaming
// hand-off between the longitudinal runner and the store. Implementations
// may retain the document; producers must not mutate it after Append.
type Sink interface {
	Append(day int, doc *core.Document) error
}

// Options parameterises a Writer.
type Options struct {
	// SnapshotEvery is the full-snapshot cadence K (default 7): one
	// snapshot, then K-1 deltas per family.
	SnapshotEvery int
}

// famState tracks one family's delta chain inside a Writer.
type famState struct {
	lastDay    int
	sinceSnap  int                // days appended since the last snapshot
	last, next *core.CanonicalDay // the last day, and the buffers the next one reuses
}

// Writer appends census days to an archive directory. It is single-writer:
// the index is append-only and day files are never rewritten.
type Writer struct {
	dir   string
	opts  Options
	index *os.File
	seq   int
	fams  map[string]*famState
	delta []byte // where a delta day's file is encoded

	// Lifetime append telemetry, atomically updated after each committed
	// day. Read via AppendStats; never consulted by the append logic.
	appends     atomic.Int64
	storedBytes atomic.Int64
	fullBytes   atomic.Int64
}

// AppendStats reports the writer's lifetime append telemetry: committed
// days, bytes as stored on disk (snapshot or delta form) and the size of
// the same days in canonical full-JSON form. The stored/full ratio is the
// archive's live compression factor. Zero for a nil writer.
func (w *Writer) AppendStats() (appends, storedBytes, fullBytes int64) {
	if w == nil {
		return 0, 0, 0
	}
	return w.appends.Load(), w.storedBytes.Load(), w.fullBytes.Load()
}

// Create initialises a new archive directory (created if missing; an
// existing index means the archive is live — use OpenWriter to resume).
func Create(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: creating %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, IndexFile)); err == nil {
		return nil, fmt.Errorf("archive: %s already holds an archive (use OpenWriter to append)", dir)
	}
	return newWriter(dir, opts, nil)
}

// OpenWriter resumes appending to an existing archive: it replays the
// index and reconstructs each family's last document so delta chains
// continue seamlessly.
func OpenWriter(dir string, opts Options) (*Writer, error) {
	a, err := Open(dir)
	if err != nil {
		return nil, err
	}
	return newWriter(dir, opts, a)
}

// OpenOrCreate resumes an existing archive at dir, or initialises a new
// one when no index exists yet — the CLI's append-by-default behaviour.
func OpenOrCreate(dir string, opts Options) (*Writer, error) {
	if _, err := os.Stat(filepath.Join(dir, IndexFile)); err == nil {
		return OpenWriter(dir, opts)
	}
	return Create(dir, opts)
}

func newWriter(dir string, opts Options, resume *Archive) (*Writer, error) {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	w := &Writer{dir: dir, opts: opts, fams: make(map[string]*famState)}
	if resume != nil {
		if err := w.replay(resume); err != nil {
			return nil, err
		}
	}
	f, err := openIndexLog(dir, resume)
	if err != nil {
		return nil, err
	}
	w.index = f
	return w, nil
}

// replay takes up each family's delta chain where the archive left it:
// the last day as Day rebuilds and checks it, and the days since its
// snapshot, so the cadence keeps its rhythm across writer restarts.
func (w *Writer) replay(a *Archive) error {
	w.seq = len(a.recs)
	for _, fam := range a.Families() {
		idxs := a.byFam[fam]
		last := a.recs[idxs[len(idxs)-1]].Day
		day, err := a.Day(fam, last)
		if err != nil {
			return fmt.Errorf("archive: replaying %s day %d for append: %w", fam, last, err)
		}
		st := &famState{lastDay: last, last: day, next: new(core.CanonicalDay)}
		for i := len(idxs) - 1; i >= 0; i-- {
			st.sinceSnap++
			if a.recs[idxs[i]].Kind == KindSnapshot {
				break
			}
		}
		w.fams[fam] = st
	}
	return nil
}

// Append stores one census day. Days must be appended in strictly
// increasing order per family. The writer keeps the day's canonical
// bytes for the next delta, not doc: nothing of doc is held after Append
// returns. Writer implements Sink.
//
// An append is four phases: admit the day, encode its file (committed
// whole by CommitFile), append its index record, advance the chain. A
// day is part of the archive only once its record lands, so a file
// already at the day's name can only be the orphan of an append that
// died before its record: the commit replaces it. A failed encode leaves
// nothing behind; a failed record append leaves such an orphan.
func (w *Writer) Append(day int, doc *core.Document) error {
	st, err := w.admit(day, doc)
	if err != nil {
		return err
	}
	kind, cur, last := KindSnapshot, new(core.CanonicalDay), (*core.CanonicalDay)(nil)
	if st != nil {
		cur = st.next
		if st.sinceSnap < w.opts.SnapshotEvery {
			kind, last = KindDelta, st.last
		}
	}
	stored, err := w.encodeDay(day, doc, cur, last)
	if err != nil {
		return err
	}
	name := dayFileName(doc.Family, day, kind)
	if err := CommitFile(filepath.Join(w.dir, name), func(f io.Writer) error {
		_, err := f.Write(stored)
		return err
	}); err != nil {
		return err
	}
	rec := Record{
		Seq:       w.seq,
		Day:       day,
		Family:    doc.Family,
		Date:      doc.Date,
		Kind:      kind,
		File:      name,
		Bytes:     int64(len(stored)),
		FullBytes: int64(len(cur.Bytes())),
		CRC:       crc32.Checksum(cur.Bytes(), castagnoli),
		Entries:   len(doc.Entries),
		GCount:    doc.GCount,
		MCount:    doc.MCount,
		Probes:    doc.ProbesTotal(),
	}
	if err := appendIndex(w.index, rec); err != nil {
		return err
	}
	w.advance(rec, cur)
	return nil
}

// admit checks an append against the writer: open, a family the archive
// stores, a day after the family's last, and entries whose prefixes
// parse as IP prefixes — what the timeline index can hold, so that one
// stored day cannot stop every later index build. It returns the
// family's chain, nil before its first day.
func (w *Writer) admit(day int, doc *core.Document) (*famState, error) {
	if w.index == nil {
		return nil, fmt.Errorf("archive: writer is closed")
	}
	fam := doc.Family
	if fam != "ipv4" && fam != "ipv6" {
		return nil, fmt.Errorf("archive: document family %q is not ipv4 or ipv6", fam)
	}
	st := w.fams[fam]
	if st != nil && day <= st.lastDay {
		return nil, fmt.Errorf("archive: day %d (%s) appended after day %d — the archive is append-only", day, fam, st.lastDay)
	}
	for i := range doc.Entries {
		p := doc.Entries[i].Prefix
		if _, err := netip.ParsePrefix(p); err != nil {
			return nil, fmt.Errorf("archive: day %d (%s) entry %d: prefix %.64q (%d bytes) is not an IP prefix", day, fam, i, p, len(p))
		}
	}
	return st, nil
}

// encodeDay streams doc's canonical bytes once, into cur, splits them,
// and returns the day's stored form: those bytes for a snapshot (last
// nil), or the delta from the last day's rows, which core.DiffRows
// proves rebuilds this day before the index record commits it. A day in
// another than canonical order (a census file sorted lexicographically,
// say) would otherwise become a day the append-only store cannot
// reconstruct.
func (w *Writer) encodeDay(day int, doc *core.Document, cur, last *core.CanonicalDay) ([]byte, error) {
	if err := cur.Stream(doc); err != nil {
		return nil, err
	}
	if last == nil {
		return cur.Bytes(), nil
	}
	delta, err := core.DiffRows(last.Rows(), cur.Rows())
	if err != nil {
		return nil, fmt.Errorf("archive: day %d (%s): %w", day, doc.Family, err)
	}
	if w.delta, err = delta.AppendJSON(w.delta[:0]); err != nil {
		return nil, fmt.Errorf("archive: encoding delta: %w", err)
	}
	w.delta = append(w.delta, '\n')
	return w.delta, nil
}

// advance records a committed day: the writer's telemetry, the family's
// chain and the next sequence number.
func (w *Writer) advance(rec Record, cur *core.CanonicalDay) {
	w.appends.Add(1)
	w.storedBytes.Add(rec.Bytes)
	w.fullBytes.Add(rec.FullBytes)
	st := w.fams[rec.Family]
	if st == nil {
		st = &famState{last: new(core.CanonicalDay)}
		w.fams[rec.Family] = st
	}
	st.lastDay, st.last, st.next = rec.Day, cur, st.last
	if rec.Kind == KindSnapshot {
		st.sinceSnap = 1
	} else {
		st.sinceSnap++
	}
	w.seq++
}

// LastDay returns the last appended day for a family, or false when the
// family has no days yet.
func (w *Writer) LastDay(family string) (int, bool) {
	st := w.fams[family]
	if st == nil {
		return 0, false
	}
	return st.lastDay, true
}

// Close releases the index handle. The archive stays readable and
// appendable (via OpenWriter) afterwards.
func (w *Writer) Close() error {
	if w.index == nil {
		return nil
	}
	err := w.index.Close()
	w.index = nil
	w.fams = nil
	return err
}
