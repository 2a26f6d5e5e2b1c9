package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/laces-project/laces/internal/core"
)

// ErrNotFound marks a lookup for a day (or family) the archive does not
// carry — as opposed to a decode or integrity failure on a day it does.
var ErrNotFound = errors.New("day not archived")

// Archive reads an archived census repository. A day is rebuilt from
// stored rows: the walk reads each day-file from the nearest snapshot at
// or before the day once, splits it into rows (a prefix, parsed for the
// merge, and the row's bytes) and merges each delta's rows into the day
// before, and proves each day against its record (walk); a reader
// appends the day's canonical bytes from the rows (Day), decodes only
// the rows it hands out (Document, Range) or copies their bytes
// (RangeJSON). A day-file is split by core's one split, which finds the
// rows and checks no field; a row's grammar is checked where it is
// decoded. Once its day is proven, a keyed hash of the file's bytes is
// kept for its record, and a later read of the same bytes proves nothing
// again. What a read fills —
// the day-files' bytes, the split rows with the snapshot rows compacted
// for RangeJSON, a delta day rebuilt to be proven, and RangeJSON's line
// — comes from pools and goes back when the read returns. No day-file's
// bytes are cached, and nothing but an atomic counter and the per-record
// proofs (one atomic word each) changes after Open, so the handle is
// safe for concurrent use without a lock and every day or document it
// returns is the caller's own; a caller that re-reads days caches them
// itself (internal/api holds the one day LRU).
type Archive struct {
	dir   string
	recs  []Record
	byFam map[string][]int // record indices per family, ascending day

	// indexEnd is the length of the index prefix that holds the records
	// above — everything but a torn final line — and indexOpen reports
	// that this prefix lacks its final newline. A resuming writer repairs
	// the tail from them before it appends.
	indexEnd  int64
	indexOpen bool

	// decodes counts day-files read, split or decoded. The query
	// layer's index-only guarantee is asserted against this counter:
	// answering a timeline from the columnar index must leave it
	// untouched.
	decodes atomic.Int64

	// proofs holds, per record, the hash under seed of the day-file bytes
	// its day was last proven from (walk), or zero: the record's
	// day-file has not been proven in this handle.
	seed   maphash.Seed
	proofs []atomic.Uint64
}

// CacheStats always reports zero: the Archive keeps no cache. The
// signature survives only because the frozen bench/ module compiles
// against it; the next benchmark PR retires it together with the
// archive.lru_hit_share column.
func (a *Archive) CacheStats() (hits, misses int64) { return 0, 0 }

// Open loads an archive directory's index.
//
// The index is append-only (one JSON line per packed day, committed
// with a trailing newline), so a reader racing a writer can observe at
// most one incomplete final line: the record whose newline has not
// landed yet. Open treats exactly that — an unterminated, unparsable
// last segment — as "day not visible yet" rather than corruption, which
// is what lets a serving process re-open the archive mid-census to pick
// up freshly appended days. A malformed line anywhere else is still an
// error.
func Open(dir string) (*Archive, error) {
	data, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		return nil, fmt.Errorf("archive: %s is not an archive: %w", dir, err)
	}
	a := &Archive{dir: dir, byFam: make(map[string][]int)}
	terminated := len(data) == 0 || data[len(data)-1] == '\n'
	a.indexEnd, a.indexOpen = int64(len(data)), !terminated
	lines := bytes.Split(data, []byte("\n"))
	for i, ln := range lines {
		if len(ln) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(ln, &rec); err != nil {
			if i == len(lines)-1 && !terminated {
				// Append in flight: the torn final record is not visible yet.
				a.indexEnd, a.indexOpen = int64(len(data)-len(ln)), false
				break
			}
			return nil, fmt.Errorf("archive: index line %d: %w", i+1, err)
		}
		if err := rec.check(); err != nil {
			return nil, fmt.Errorf("archive: index line %d: %w", i+1, err)
		}
		a.byFam[rec.Family] = append(a.byFam[rec.Family], len(a.recs))
		a.recs = append(a.recs, rec)
	}
	a.seed, a.proofs = maphash.MakeSeed(), make([]atomic.Uint64, len(a.recs))
	for fam, idxs := range a.byFam {
		for i := 1; i < len(idxs); i++ {
			if a.recs[idxs[i]].Day <= a.recs[idxs[i-1]].Day {
				return nil, fmt.Errorf("archive: %s days out of order in index (%d after %d)",
					fam, a.recs[idxs[i]].Day, a.recs[idxs[i-1]].Day)
			}
		}
	}
	return a, nil
}

// check rejects a record that names a family or kind the writer never
// writes, or a file other than the one the writer names for its day: the
// index is the archive's trust boundary, and a record may not lead the
// reader to a file outside the archive directory.
func (rec *Record) check() error {
	if rec.Family != "ipv4" && rec.Family != "ipv6" {
		return fmt.Errorf("unknown family %q", rec.Family)
	}
	if rec.Kind != KindSnapshot && rec.Kind != KindDelta {
		return fmt.Errorf("unknown kind %q", rec.Kind)
	}
	if want := dayFileName(rec.Family, rec.Day, rec.Kind); rec.File != want {
		return fmt.Errorf("file %q is not the %s %s day %d file %q", rec.File, rec.Family, rec.Kind, rec.Day, want)
	}
	return nil
}

// Families lists the archived address families in sorted order.
func (a *Archive) Families() []string {
	out := make([]string, 0, len(a.byFam))
	for fam := range a.byFam {
		out = append(out, fam)
	}
	sort.Strings(out)
	return out
}

// Days lists one family's archived census days in ascending order.
func (a *Archive) Days(family string) []int {
	idxs := a.byFam[family]
	out := make([]int, len(idxs))
	for i, idx := range idxs {
		out[i] = a.recs[idx].Day
	}
	return out
}

// Record returns the index record for one archived day.
func (a *Archive) Record(family string, day int) (Record, bool) {
	if pos, ok := a.find(family, day); ok {
		return a.recs[a.byFam[family][pos]], true
	}
	return Record{}, false
}

// Records returns every index record in append order.
func (a *Archive) Records() []Record { return a.recs }

// find locates day's position in the family's record list.
func (a *Archive) find(family string, day int) (int, bool) {
	idxs := a.byFam[family]
	pos := sort.Search(len(idxs), func(i int) bool { return a.recs[idxs[i]].Day >= day })
	if pos < len(idxs) && a.recs[idxs[pos]].Day == day {
		return pos, true
	}
	return 0, false
}

// Document decodes one archived day. The result is the caller's own:
// nothing else holds it. Its day-files are only split, so the day's rows
// are decoded once, with the prefix strings the split made; a row outside
// the row grammar is an error.
func (a *Archive) Document(family string, day int) (*core.Document, error) {
	pos, ok := a.find(family, day)
	if !ok {
		return nil, fmt.Errorf("archive: no %s census for day %d: %w", family, day, ErrNotFound)
	}
	var out *core.Document
	err := a.walk(family, pos, pos, nil, func(_ Record, d *core.RowDay) (err error) {
		out, err = new(core.RowDecoder).Document(d)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Day returns one archived day in its canonical form, in buffers the
// caller owns: the bytes the walk proved against the day's record, and
// the rows that alias them. They are rebuilt from the stored rows
// (core.RowDay.Canonical), with no row decoded and none re-encoded, and a
// delta day the walk proves is proven by these very bytes, so it is
// rebuilt once. A snapshot whose file is not what its rows rebuild to —
// which only a record forged to the file can let through — is its file's
// bytes, split again (core.NewCanonicalDay). A day-file changed since it
// was packed is an error and never the packed day's bytes.
func (a *Archive) Day(family string, day int) (*core.CanonicalDay, error) {
	pos, ok := a.find(family, day)
	if !ok {
		return nil, fmt.Errorf("archive: no %s census for day %d: %w", family, day, ErrNotFound)
	}
	var out *core.CanonicalDay
	if err := a.walk(family, pos, pos, &out, func(Record, *core.RowDay) error { return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// canonical returns day, rebuilt from rec's day-file b, in canonical
// form in buffers of its own: a snapshot's is b itself, copied.
func (rec *Record) canonical(b []byte, day *core.RowDay) (*core.CanonicalDay, error) {
	c, err := day.Canonical(int(rec.FullBytes))
	if err == nil && rec.Kind == KindSnapshot && !bytes.Equal(c.Bytes(), b) {
		c, err = core.NewCanonicalDay(slices.Clone(b))
	}
	return c, err
}

// prove checks a day's canonical bytes b against the CRC-32C and size
// rec recorded at pack time.
func (rec *Record) prove(b []byte) error {
	if crc, n := crc32.Checksum(b, castagnoli), int64(len(b)); crc != rec.CRC || n != rec.FullBytes {
		return fmt.Errorf("archive: %s day %d: reconstructed census does not match packed checksum (crc %08x/%08x, %d/%d bytes)",
			rec.Family, rec.Day, crc, rec.CRC, n, rec.FullBytes)
	}
	return nil
}

// walk rebuilds the days at positions first..last of the family's chain
// in order, proves each against its record, and hands each to fn as
// stored rows; with keep, it also sets *keep to the last day in
// canonical form (Record.canonical), in buffers the caller owns. It
// rewinds to the snapshot the first one derives from, reads each
// day-file once, splits it into rows and merges each delta into the day
// before (a snapshot met on the way simply restarts the chain). A row is
// decoded only if a reader asks for it. Every read goes through here or
// ReadDay, and every day-file it reads through read.
//
// Every day the walk meets is proven before fn sees it or the walk goes
// on, and the first that fails ends the walk with its error, so no
// reader hands out or copies the rows of a day rebuilt from a changed
// day-file or from one built on it (prove): a snapshot by its file's
// CRC, and a delta by its day's canonical bytes, in which each row it
// upserts is re-indented, so a row that is not the canonical compact
// encoding of what it decodes to does not re-indent to the proven bytes;
// the last day's are *keep's bytes when keep asks for them.
// A proven day-file's record keeps the hash of its bytes (proofs), and a
// day-file whose bytes hash as those counts as proven: the split and the
// CRC are functions of those bytes and of the day before, which the walk
// has just proven.
//
// The day-files are read into one buffer and split into one
// core.RowArena, which also holds the rows AppendJSON compacts; both
// are taken from a pool and given back when the walk returns, as is the
// buffer a delta day is rebuilt into to be proven. Rows live in them,
// but only until the next snapshot restarts the chain and both start
// over at their front; and nothing fn is handed outlives the walk in
// them: Document and Range hand out decoded copies, Day the day *keep
// holds, and RangeJSON's line, itself from a pool, is valid only during
// fn.
func (a *Archive) walk(family string, first, last int, keep **core.CanonicalDay, fn func(rec Record, d *core.RowDay) error) error {
	if first > last {
		return nil
	}
	idxs := a.byFam[family]
	base := first
	for base > 0 && a.recs[idxs[base]].Kind != KindSnapshot {
		base--
	}
	files, rows := buffers.Get().(*[]byte), rowArenas.Get().(*core.RowArena)
	var canon *[]byte // taken from the pool by the first delta proven
	buf := (*files)[:0]
	defer func() {
		*files = buf[:0]
		buffers.Put(files)
		if canon != nil {
			buffers.Put(canon)
		}
		rows.Reset()
		rowArenas.Put(rows)
	}()
	var day *core.RowDay
	for i := base; i <= last; i++ {
		rec, proof := a.recs[idxs[i]], &a.proofs[idxs[i]]
		if rec.Kind == KindDelta && day == nil {
			return fmt.Errorf("archive: %s chain starts with a delta (corrupt index)", family)
		}
		if rec.Kind == KindSnapshot {
			// No row of the days before it is read again.
			buf = buf[:0]
			rows.Reset()
		}
		n := len(buf)
		var err error
		if buf, err = a.read(rec, buf); err != nil {
			return err
		}
		b := buf[n:len(buf):len(buf)]
		sum := maphash.Bytes(a.seed, b)
		snap, delta, err := split(rec, b, rows)
		if err != nil {
			return err
		}
		if delta != nil {
			if snap, err = delta.Apply(day); err != nil {
				return fmt.Errorf("archive: %s: %w", rec.File, err)
			}
		}
		day = snap
		if keep != nil && i == last {
			if *keep, err = rec.canonical(b, day); err != nil {
				return err
			}
		}
		if sum == 0 || proof.Load() != sum {
			proven := b // a snapshot's file is its day's canonical bytes
			if rec.Kind == KindDelta && keep != nil && i == last {
				proven = (*keep).Bytes()
			} else if rec.Kind == KindDelta {
				if canon == nil {
					canon = buffers.Get().(*[]byte)
				}
				if *canon, err = day.AppendCanonical((*canon)[:0], int(rec.FullBytes)); err != nil {
					return err
				}
				proven = *canon
			}
			if err := rec.prove(proven); err != nil {
				return err
			}
			proof.Store(sum)
		}
		if i >= first {
			if err := fn(rec, day); err != nil {
				return err
			}
		}
	}
	return nil
}

// Decodes reports how many day-files the archive has read since Open:
// one count per day-file read, whether its rows were split or decoded.
func (a *Archive) Decodes() int64 { return a.decodes.Load() }

// buffers holds the buffers walks and ReadDay read day-files into and
// RangeJSON writes its lines to, rowArenas the arenas they split them
// into, and decoders ReadDay's row decoders, which keep the names they
// intern from one day-file to the next.
var (
	buffers   = sync.Pool{New: func() any { return new([]byte) }}
	rowArenas = sync.Pool{New: func() any { return new(core.RowArena) }}
	decoders  = sync.Pool{New: func() any { return new(core.RowDecoder) }}
)

// read appends rec's day-file, read whole, to buf. Every read of a
// day-file goes through here. The file's size is taken from the file,
// not from the index record, which is only as trustworthy as the index.
func (a *Archive) read(rec Record, buf []byte) ([]byte, error) {
	a.decodes.Add(1)
	f, err := os.Open(filepath.Join(a.dir, rec.File))
	if err != nil {
		return buf, fmt.Errorf("archive: reading %s: %w", rec.Kind, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf, fmt.Errorf("archive: reading %s: %w", rec.Kind, err)
	}
	n, size := len(buf), int(fi.Size())
	buf = slices.Grow(buf, size)[:n+size]
	if _, err := io.ReadFull(f, buf[n:]); err != nil {
		return buf[:n], fmt.Errorf("archive: reading %s: %w", rec.Kind, err)
	}
	return buf, nil
}

// ReadDay reads rec's day-file once and decodes it: a snapshot's
// document, or a delta's changes against the family's day before, as
// rec's kind says. It is the one read that does not prove the day, so the
// file is read as encoding/json reads it: split and its rows decoded
// (core.RowDecoder), or, when a row is outside the row grammar, decoded
// whole by encoding/json. The file's bytes, its rows and the decoder come
// from pools and go back when it returns: what it returns holds copies.
func (a *Archive) ReadDay(rec Record) (snap *core.Document, delta *core.DocumentDelta, err error) {
	file, rows, dec := buffers.Get().(*[]byte), rowArenas.Get().(*core.RowArena), decoders.Get().(*core.RowDecoder)
	b, err := a.read(rec, (*file)[:0])
	defer func() {
		*file = b[:0]
		buffers.Put(file)
		rows.Reset()
		rowArenas.Put(rows)
		decoders.Put(dec)
	}()
	if err != nil {
		return nil, nil, err
	}
	s, d, err := split(rec, b, rows)
	if err != nil {
		return nil, nil, err
	}
	if s != nil {
		if snap, err = dec.Document(s); err != nil {
			snap = new(core.Document)
			err = json.Unmarshal(b, snap)
		}
	} else if delta, err = dec.Delta(d); err != nil {
		delta = new(core.DocumentDelta)
		if err = json.Unmarshal(b, delta); err == nil {
			delta.Header.Entries = nil // as the split holds a delta's header
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("archive: %s: %w", rec.File, err)
	}
	return snap, delta, nil
}

// split splits rec's day-file b, as rec's kind says, into arena rows.
func split(rec Record, b []byte, rows *core.RowArena) (snap *core.RowDay, delta *core.RowDelta, err error) {
	if rec.Kind == KindSnapshot {
		snap, err = core.SplitDocument(b, rows)
	} else {
		delta, err = core.SplitDelta(b, rows)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("archive: %s: %w", rec.File, err)
	}
	return snap, delta, nil
}

// Range streams one family's documents for days in [from, to] (inclusive;
// to < 0 means "through the last day") in ascending order, holding O(1)
// days in memory regardless of the span. Each distinct row is decoded
// once and reused while it stays unchanged. The documents passed to fn
// are owned by the iteration; copy what outlives the callback. A row
// outside the row grammar ends the range with its error.
func (a *Archive) Range(family string, from, to int, fn func(day int, doc *core.Document) error) error {
	first, last, err := a.window(family, from, to)
	if err != nil {
		return err
	}
	var dec core.RowDecoder
	return a.walk(family, first, last, nil, func(rec Record, d *core.RowDay) error {
		doc, err := dec.Document(d)
		if err != nil {
			return err
		}
		return fn(rec.Day, doc)
	})
}

// RangeJSON is Range with each day as the line Document.AppendJSON writes
// for its document, built from the stored rows' bytes without decoding
// them. The line is valid only until fn returns.
func (a *Archive) RangeJSON(family string, from, to int, fn func(day int, line []byte) error) error {
	first, last, err := a.window(family, from, to)
	if err != nil {
		return err
	}
	lines := buffers.Get().(*[]byte)
	line := (*lines)[:0]
	defer func() {
		*lines = line[:0]
		buffers.Put(lines)
	}()
	return a.walk(family, first, last, nil, func(rec Record, d *core.RowDay) (err error) {
		if line, err = d.AppendJSON(line[:0]); err != nil {
			return err
		}
		return fn(rec.Day, line)
	})
}

// window returns the chain positions of the family's first and last day
// in [from, to] (to < 0: through the last day); first > last when none
// is.
func (a *Archive) window(family string, from, to int) (first, last int, err error) {
	idxs := a.byFam[family]
	if len(idxs) == 0 {
		return 0, 0, fmt.Errorf("archive: no %s days archived: %w", family, ErrNotFound)
	}
	first = sort.Search(len(idxs), func(i int) bool { return a.recs[idxs[i]].Day >= from })
	end := len(idxs)
	if to >= 0 {
		end = sort.Search(len(idxs), func(i int) bool { return a.recs[idxs[i]].Day > to })
	}
	return first, end - 1, nil
}

// VerifyResult summarises an integrity pass.
type VerifyResult struct {
	Days int // days whose canonical bytes matched their index record
}

// Verify re-derives every archived day and proves the round-trip
// contract: each day, which the walk proves against the CRC-32C and size
// its record holds (a snapshot's file, or a delta day's canonical bytes
// rebuilt from its rows as Day rebuilds them), must also match the
// record's header counts and row count.
func (a *Archive) Verify() (*VerifyResult, error) {
	res := &VerifyResult{}
	for _, fam := range a.Families() {
		err := a.walk(fam, 0, len(a.byFam[fam])-1, nil, func(rec Record, d *core.RowDay) error {
			if hdr := d.Header(); d.Len() != rec.Entries || hdr.GCount != rec.GCount || hdr.MCount != rec.MCount {
				return fmt.Errorf("archive: %s day %d: counts diverge from index", fam, rec.Day)
			}
			res.Days++
			return nil
		})
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// FamilyStats is the storage ledger for one family.
type FamilyStats struct {
	Family    string
	Days      int
	Snapshots int
	Deltas    int
	// StoredBytes is the on-disk size; FullBytes what per-day full JSON
	// would occupy.
	StoredBytes int64
	FullBytes   int64
}

// Ratio is stored size over full-JSON size (smaller is better).
func (s FamilyStats) Ratio() float64 {
	if s.FullBytes == 0 {
		return 1
	}
	return float64(s.StoredBytes) / float64(s.FullBytes)
}

// Stats tallies the archive's storage ledger per family.
func (a *Archive) Stats() []FamilyStats {
	var out []FamilyStats
	for _, fam := range a.Families() {
		st := FamilyStats{Family: fam}
		for _, idx := range a.byFam[fam] {
			rec := a.recs[idx]
			st.Days++
			if rec.Kind == KindSnapshot {
				st.Snapshots++
			} else {
				st.Deltas++
			}
			st.StoredBytes += rec.Bytes
			st.FullBytes += rec.FullBytes
		}
		out = append(out, st)
	}
	return out
}
