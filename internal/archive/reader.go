package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"github.com/laces-project/laces/internal/core"
)

// ErrNotFound marks a lookup for a day (or family) the archive does not
// carry — as opposed to a decode or integrity failure on a day it does.
var ErrNotFound = errors.New("day not archived")

// Archive reads an archived census repository. Random access decodes
// from the nearest snapshot at or before the requested day and applies
// deltas forward. Nothing is cached and nothing but an atomic counter
// changes after Open, so the handle is safe for concurrent use without a
// lock and every document it returns is the caller's own; a caller that
// re-reads days caches them itself (internal/api holds the one
// decoded-day LRU).
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

	// decodes counts day-files decoded (ReadDay calls). The query
	// layer's index-only guarantee is asserted against this counter:
	// answering a timeline from the columnar index must leave it
	// untouched.
	decodes atomic.Int64
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
// nothing else holds it.
func (a *Archive) Document(family string, day int) (*core.Document, error) {
	pos, ok := a.find(family, day)
	if !ok {
		return nil, fmt.Errorf("archive: no %s census for day %d: %w", family, day, ErrNotFound)
	}
	var out *core.Document
	err := a.walk(family, pos, pos, func(_ Record, doc *core.Document) error {
		out = doc
		return nil
	})
	return out, err
}

// walk decodes the days at positions first..last of the family's chain
// in order and hands each to fn: it rewinds to the snapshot the first
// one derives from, then applies deltas forward (a snapshot met on the
// way simply restarts the chain). Every random-access and streaming read
// goes through here, and every day-file it reads through ReadDay.
func (a *Archive) walk(family string, first, last int, fn func(rec Record, doc *core.Document) error) error {
	if first > last {
		return nil
	}
	idxs := a.byFam[family]
	base := first
	for base > 0 && a.recs[idxs[base]].Kind != KindSnapshot {
		base--
	}
	var doc *core.Document
	for i := base; i <= last; i++ {
		rec := a.recs[idxs[i]]
		if rec.Kind == KindDelta && doc == nil {
			return fmt.Errorf("archive: %s chain starts with a delta (corrupt index)", family)
		}
		switch snap, delta, err := a.ReadDay(rec); {
		case err != nil:
			return err
		case snap != nil:
			doc = snap
		default:
			if doc, err = delta.Apply(doc); err != nil {
				return fmt.Errorf("archive: %s: %w", rec.File, err)
			}
		}
		if i >= first {
			if err := fn(rec, doc); err != nil {
				return err
			}
		}
	}
	return nil
}

// Decodes reports how many day-files the archive has decoded since
// Open: every read goes through ReadDay, one count per file.
func (a *Archive) Decodes() int64 { return a.decodes.Load() }

// ReadDay is the one decoder of a stored day-file: it reads rec's file
// once and returns a snapshot's document or a delta's changes against
// the family's day before, as rec's kind says. Both are the caller's
// own.
func (a *Archive) ReadDay(rec Record) (snap *core.Document, delta *core.DocumentDelta, err error) {
	a.decodes.Add(1)
	b, err := os.ReadFile(filepath.Join(a.dir, rec.File))
	if err != nil {
		return nil, nil, fmt.Errorf("archive: reading %s: %w", rec.Kind, err)
	}
	if rec.Kind == KindSnapshot {
		snap, err = core.DecodeDocument(b)
	} else {
		delta, err = core.DecodeDelta(b)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("archive: %s: %w", rec.File, err)
	}
	return snap, delta, nil
}

// Range streams one family's documents for days in [from, to] (inclusive;
// to < 0 means "through the last day") in ascending order, holding O(1)
// documents in memory regardless of the span. The documents passed to fn
// are owned by the iteration; copy what outlives the callback.
func (a *Archive) Range(family string, from, to int, fn func(day int, doc *core.Document) error) error {
	idxs := a.byFam[family]
	if len(idxs) == 0 {
		return fmt.Errorf("archive: no %s days archived: %w", family, ErrNotFound)
	}
	start := sort.Search(len(idxs), func(i int) bool { return a.recs[idxs[i]].Day >= from })
	end := len(idxs)
	if to >= 0 {
		end = sort.Search(len(idxs), func(i int) bool { return a.recs[idxs[i]].Day > to })
	}
	return a.walk(family, start, end-1, func(rec Record, doc *core.Document) error {
		return fn(rec.Day, doc)
	})
}

// VerifyResult summarises an integrity pass.
type VerifyResult struct {
	Days int // days whose canonical bytes matched their index record
}

// Verify re-derives every archived day and proves the round-trip
// contract: the reconstructed document's canonical WriteJSON bytes must
// match the CRC-32C and size recorded at pack time.
func (a *Archive) Verify() (*VerifyResult, error) {
	res := &VerifyResult{}
	for _, fam := range a.Families() {
		err := a.walk(fam, 0, len(a.byFam[fam])-1, func(rec Record, doc *core.Document) error {
			crc := crc32.New(castagnoli)
			count := &countingWriter{}
			if err := core.StreamDocument(io.MultiWriter(crc, count), doc); err != nil {
				return err
			}
			if crc.Sum32() != rec.CRC || count.n != rec.FullBytes {
				return fmt.Errorf("archive: %s day %d: reconstructed census does not match packed checksum (crc %08x/%08x, %d/%d bytes)",
					fam, rec.Day, crc.Sum32(), rec.CRC, count.n, rec.FullBytes)
			}
			if len(doc.Entries) != rec.Entries || doc.GCount != rec.GCount || doc.MCount != rec.MCount {
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
