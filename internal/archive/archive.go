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
// The reader (Archive) is a stateless, lock-free store: it caches
// nothing, so a decoded document is the caller's own, and callers that
// re-read days keep their own cache (internal/api's decoded-day LRU). A
// day file is read whole and decoded by core.DecodeDocument or
// core.DecodeDelta: one reflection-free scan of the writer's grammar.
// encoding/json runs on the small header object, and on the whole file
// only when the file holds something the writer never emits.
package archive

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
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
	f, err := os.OpenFile(filepath.Join(dir, IndexFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: opening index: %w", err)
	}
	w := &Writer{dir: dir, opts: opts, index: f, fams: make(map[string]*famState)}
	if resume != nil {
		// Open skipped a torn final index line (an append that died
		// mid-write); O_APPEND would glue the next record onto it and the
		// archive would stop opening. Cut the index back to the records
		// Open accepted, and terminate a last record that lost only its
		// newline.
		if err := f.Truncate(resume.indexEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("archive: truncating torn index tail: %w", err)
		}
		if resume.indexOpen {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("archive: terminating index: %w", err)
			}
		}
		w.seq = len(resume.recs)
		for _, fam := range resume.Families() {
			days := resume.Days(fam)
			last := days[len(days)-1]
			doc, err := resume.Document(fam, last)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("archive: replaying %s day %d for append: %w", fam, last, err)
			}
			rec, _ := resume.Record(fam, last)
			since := 0
			if rec.Kind == KindDelta {
				// Count days back to the chain's snapshot so the cadence
				// keeps its rhythm across writer restarts.
				for i := len(days) - 1; i >= 0; i-- {
					r, _ := resume.Record(fam, days[i])
					since++
					if r.Kind == KindSnapshot {
						break
					}
				}
			} else {
				since = 1
			}
			w.fams[fam] = &famState{lastDay: last, sinceSnap: since, lastDoc: doc}
		}
	}
	return w, nil
}

// countingWriter tallies bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// Append stores one census day. Days must be appended in strictly
// increasing order per family; the writer retains doc for the next delta,
// so the caller must not mutate it afterwards. Writer implements Sink.
func (w *Writer) Append(day int, doc *core.Document) error {
	if w.index == nil {
		return fmt.Errorf("archive: writer is closed")
	}
	fam := doc.Family
	if fam != "ipv4" && fam != "ipv6" {
		return fmt.Errorf("archive: document family %q is not ipv4 or ipv6", fam)
	}
	st := w.fams[fam]
	if st != nil && day <= st.lastDay {
		return fmt.Errorf("archive: day %d (%s) appended after day %d — the archive is append-only", day, fam, st.lastDay)
	}

	// One streaming pass over the canonical bytes yields the checksum,
	// the full-JSON size and (for snapshots) the stored file itself.
	crc := crc32.New(castagnoli)
	count := &countingWriter{}
	kind := KindSnapshot
	if st != nil && st.sinceSnap < w.opts.SnapshotEvery {
		kind = KindDelta
	}
	name := dayFileName(fam, day, kind)
	path := filepath.Join(w.dir, name)
	// A day is part of the archive only once its index record lands, so a
	// pre-existing file here can only be the orphan of an append that died
	// between writing the day file and the index line — overwrite it
	// (O_TRUNC, not O_EXCL); indexed days are already rejected above.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("archive: creating day file: %w", err)
	}
	// Similarly, drop the partial file if this append fails before its
	// index record is written, so a retry starts clean.
	committed := false
	defer func() {
		if !committed {
			os.Remove(path)
		}
	}()
	bw := bufio.NewWriter(f)

	canonical := io.MultiWriter(crc, count)
	var stored int64
	if kind == KindSnapshot {
		stc := &countingWriter{}
		if err := core.StreamDocument(io.MultiWriter(canonical, bw, stc), doc); err != nil {
			f.Close()
			return fmt.Errorf("archive: streaming snapshot: %w", err)
		}
		stored = stc.n
	} else {
		if err := core.StreamDocument(canonical, doc); err != nil {
			f.Close()
			return fmt.Errorf("archive: checksumming day: %w", err)
		}
		delta := core.DiffDocuments(st.lastDoc, doc)
		// Prove the delta reconstructs this day byte-for-byte BEFORE the
		// index record commits it: delta application assumes canonical
		// entry order, and a document packed from foreign JSON (e.g. an
		// older lexicographically-sorted census file) would otherwise
		// become a permanently unreconstructable day in the append-only
		// store. Failing the append keeps the archive sound.
		back, err := delta.Apply(st.lastDoc)
		if err != nil {
			f.Close()
			return fmt.Errorf("archive: delta does not apply to the previous day: %w", err)
		}
		backCRC := crc32.New(castagnoli)
		if err := core.StreamDocument(backCRC, back); err != nil {
			f.Close()
			return fmt.Errorf("archive: checksumming delta reconstruction: %w", err)
		}
		if backCRC.Sum32() != crc.Sum32() {
			f.Close()
			return fmt.Errorf("archive: day %d (%s) does not survive delta encoding — are the document's entries in canonical numeric prefix order?", day, fam)
		}
		b, err := json.Marshal(delta)
		if err != nil {
			f.Close()
			return fmt.Errorf("archive: encoding delta: %w", err)
		}
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			f.Close()
			return fmt.Errorf("archive: writing delta: %w", err)
		}
		stored = int64(len(b))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("archive: flushing day file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("archive: closing day file: %w", err)
	}

	rec := Record{
		Seq:       w.seq,
		Day:       day,
		Family:    fam,
		Date:      doc.Date,
		Kind:      kind,
		File:      name,
		Bytes:     stored,
		FullBytes: count.n,
		CRC:       crc.Sum32(),
		Entries:   len(doc.Entries),
		GCount:    doc.GCount,
		MCount:    doc.MCount,
		Probes:    doc.ProbesTotal(),
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := w.index.Write(line); err != nil {
		return fmt.Errorf("archive: appending index record: %w", err)
	}
	committed = true
	w.appends.Add(1)
	w.storedBytes.Add(stored)
	w.fullBytes.Add(count.n)

	if st == nil {
		st = &famState{}
		w.fams[fam] = st
	}
	st.lastDay = day
	st.lastDoc = doc
	if kind == KindSnapshot {
		st.sinceSnap = 1
	} else {
		st.sinceSnap++
	}
	w.seq++
	return nil
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
