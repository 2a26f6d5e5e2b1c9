// Package archive implements the longitudinal census store behind the
// paper's public repository (§4.4, §7): an append-only, delta-encoded
// archive of daily census documents.
//
// Day-over-day censuses are highly redundant — most prefixes persist
// (Fig 10) — so the archive stores a full snapshot every K days and, in
// between, only the day's changes (core.DocumentDelta). The layout is a
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
// bytes, so Verify can prove — without any external reference — that
// unpacking reproduces exactly what WriteJSON published.
//
// commit.go is the store's one write seam: a day file (and query's
// timeline.idx and its .agg sidecar) appears whole through CommitFile's
// tmp-and-rename, and index.jsonl is opened, repaired and appended there.
//
// The reader (Archive) is a stateless, lock-free store: it caches
// nothing, so a decoded document is the caller's own, and callers that
// re-read days keep their own cache (internal/api's decoded-day LRU).
// Every read of a day file goes through ReadDay, the one day-file
// decoder: the file is read whole, once, and decoded by
// core.DecodeDocument or core.DecodeDelta in one reflection-free scan of
// the writer's grammar. Document, Range and Verify apply its deltas to
// the day before; the query indexer takes them as they are.
// encoding/json runs on the small header object, and on the whole file
// only when the file holds something the writer never emits. The writer
// is reflection-free the same way: a snapshot streams through
// core.StreamDocument and a delta is DocumentDelta.AppendJSON, both
// core's entry appender, with encoding/json left the header.
package archive

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"os"
	"path/filepath"
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
	ext := "delta"
	if kind == KindSnapshot {
		ext = "snap"
	}
	return fmt.Sprintf("%s-%06d.%s.json", family, day, ext)
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
	lastDay   int
	sinceSnap int // days appended since the last snapshot
	lastDoc   *core.Document
}

// Writer appends census days to an archive directory. It is single-writer:
// the index is append-only and day files are never rewritten.
type Writer struct {
	dir   string
	opts  Options
	index *os.File
	seq   int
	fams  map[string]*famState

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
// the last document, and the days since its snapshot, so the cadence
// keeps its rhythm across writer restarts.
func (w *Writer) replay(a *Archive) error {
	w.seq = len(a.recs)
	for _, fam := range a.Families() {
		idxs := a.byFam[fam]
		last := a.recs[idxs[len(idxs)-1]].Day
		doc, err := a.Document(fam, last)
		if err != nil {
			return fmt.Errorf("archive: replaying %s day %d for append: %w", fam, last, err)
		}
		since := 0
		for i := len(idxs) - 1; i >= 0; i-- {
			since++
			if a.recs[idxs[i]].Kind == KindSnapshot {
				break
			}
		}
		w.fams[fam] = &famState{lastDay: last, sinceSnap: since, lastDoc: doc}
	}
	return nil
}

// countingWriter tallies bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// Append stores one census day. Days must be appended in strictly
// increasing order per family; the writer retains doc for the next delta,
// so the caller must not mutate it afterwards. Writer implements Sink.
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
	kind, prev := KindSnapshot, (*core.Document)(nil)
	if st != nil && st.sinceSnap < w.opts.SnapshotEvery {
		kind, prev = KindDelta, st.lastDoc
	}
	name := dayFileName(doc.Family, day, kind)
	var c dayCode
	if err := CommitFile(filepath.Join(w.dir, name), func(f io.Writer) (err error) {
		c, err = encodeDay(f, day, doc, prev)
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
		Bytes:     c.stored,
		FullBytes: c.full,
		CRC:       c.crc,
		Entries:   len(doc.Entries),
		GCount:    doc.GCount,
		MCount:    doc.MCount,
		Probes:    doc.ProbesTotal(),
	}
	if err := appendIndex(w.index, rec); err != nil {
		return err
	}
	w.advance(rec, doc)
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

// dayCode is what encoding a day measures: the stored file's size, and
// the size and CRC-32C of the day's canonical WriteJSON bytes.
type dayCode struct {
	stored, full int64
	crc          uint32
}

// encodeDay writes the day's stored form to f: the canonical bytes
// themselves for a snapshot (prev nil), the delta against prev otherwise.
// One streaming pass over the canonical bytes yields the checksum, the
// full-JSON size and, for a snapshot, the stored file itself.
func encodeDay(f io.Writer, day int, doc, prev *core.Document) (dayCode, error) {
	crc := crc32.New(castagnoli)
	full := &countingWriter{}
	canonical := io.MultiWriter(crc, full)
	if prev == nil {
		stored := &countingWriter{}
		if err := core.StreamDocument(io.MultiWriter(canonical, f, stored), doc); err != nil {
			return dayCode{}, fmt.Errorf("archive: streaming snapshot: %w", err)
		}
		return dayCode{stored: stored.n, full: full.n, crc: crc.Sum32()}, nil
	}
	if err := core.StreamDocument(canonical, doc); err != nil {
		return dayCode{}, fmt.Errorf("archive: checksumming day: %w", err)
	}
	delta := core.DiffDocuments(prev, doc)
	// Prove the delta reconstructs this day byte-for-byte BEFORE the
	// index record commits it: delta application assumes canonical
	// entry order, and a document packed from foreign JSON (e.g. an
	// older lexicographically-sorted census file) would otherwise
	// become a permanently unreconstructable day in the append-only
	// store. Failing the append keeps the archive sound.
	back, err := delta.Apply(prev)
	if err != nil {
		return dayCode{}, fmt.Errorf("archive: delta does not apply to the previous day: %w", err)
	}
	backCRC := crc32.New(castagnoli)
	if err := core.StreamDocument(backCRC, back); err != nil {
		return dayCode{}, fmt.Errorf("archive: checksumming delta reconstruction: %w", err)
	}
	if backCRC.Sum32() != crc.Sum32() {
		return dayCode{}, fmt.Errorf("archive: day %d (%s) does not survive delta encoding — are the document's entries in canonical numeric prefix order?", day, doc.Family)
	}
	b, err := delta.AppendJSON(nil)
	if err != nil {
		return dayCode{}, fmt.Errorf("archive: encoding delta: %w", err)
	}
	b = append(b, '\n')
	if _, err := f.Write(b); err != nil {
		return dayCode{}, fmt.Errorf("archive: writing delta: %w", err)
	}
	return dayCode{stored: int64(len(b)), full: full.n, crc: crc.Sum32()}, nil
}

// advance records a committed day: the writer's telemetry, the family's
// chain and the next sequence number.
func (w *Writer) advance(rec Record, doc *core.Document) {
	w.appends.Add(1)
	w.storedBytes.Add(rec.Bytes)
	w.fullBytes.Add(rec.FullBytes)
	st := w.fams[rec.Family]
	if st == nil {
		st = &famState{}
		w.fams[rec.Family] = st
	}
	st.lastDay, st.lastDoc = rec.Day, doc
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
