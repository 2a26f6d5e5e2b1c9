package archive

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/lru"
)

// DefaultCacheSize bounds the decoded-day LRU of an Archive.
const DefaultCacheSize = 8

// ErrNotFound marks a lookup for a day (or family) the archive does not
// carry — as opposed to a decode or integrity failure on a day it does.
var ErrNotFound = errors.New("day not archived")

// Archive reads an archived census repository. Random access decodes
// from the nearest snapshot at or before the requested day and applies
// deltas forward; a bounded LRU of decoded days keeps repeated and
// nearby lookups cheap. Documents returned by the Archive are shared and
// must be treated as immutable.
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

	mu    sync.Mutex
	cache *lru.Cache[dayKey, *core.Document]

	// decodes counts document materializations (snapshot parses and
	// delta applications). The query layer's index-only guarantee is
	// asserted against this counter: answering a timeline from the
	// columnar index must leave it untouched.
	decodes atomic.Int64

	// cacheHits/cacheMisses tally decoded-day LRU outcomes for requested
	// days: a hit means the day was served straight from the cache, a
	// miss means decoding work happened (walk-back lookups while serving
	// one miss are not separately counted). Read via CacheStats.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// CacheStats reports the decoded-day LRU's hit/miss tallies. Zero for a
// nil archive.
func (a *Archive) CacheStats() (hits, misses int64) {
	if a == nil {
		return 0, 0
	}
	return a.cacheHits.Load(), a.cacheMisses.Load()
}

type dayKey struct {
	family string
	day    int
}

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
	a := &Archive{dir: dir, byFam: make(map[string][]int), cache: lru.New[dayKey, *core.Document](DefaultCacheSize)}
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

// SetCacheSize rebounds the decoded-day LRU (minimum 1).
func (a *Archive) SetCacheSize(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cache = lru.New[dayKey, *core.Document](n)
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

// Document decodes one archived day. The result is cached in the
// bounded LRU and shared across callers; treat it as read-only.
func (a *Archive) Document(family string, day int) (*core.Document, error) {
	pos, ok := a.find(family, day)
	if !ok {
		return nil, fmt.Errorf("archive: no %s census for day %d: %w", family, day, ErrNotFound)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.documentLocked(family, pos)
}

// documentLocked decodes the day at position pos in the family chain,
// starting from the nearest cached day or snapshot behind it.
func (a *Archive) documentLocked(family string, pos int) (*core.Document, error) {
	idxs := a.byFam[family]
	// Walk back to a usable base: a cached day or the chain's snapshot.
	base := pos
	var doc *core.Document
	for {
		day := a.recs[idxs[base]].Day
		if d, ok := a.cache.Get(dayKey{family, day}); ok {
			if base == pos {
				a.cacheHits.Add(1)
			}
			doc = d
			break
		}
		if base == pos {
			a.cacheMisses.Add(1)
		}
		if a.recs[idxs[base]].Kind == KindSnapshot {
			break
		}
		if base == 0 {
			return nil, fmt.Errorf("archive: %s chain starts with a delta (corrupt index)", family)
		}
		base--
	}
	if doc == nil {
		var err error
		doc, err = a.loadSnapshot(a.recs[idxs[base]])
		if err != nil {
			return nil, err
		}
		a.cache.Put(dayKey{family, a.recs[idxs[base]].Day}, doc)
	}
	for i := base + 1; i <= pos; i++ {
		next, err := a.applyDelta(doc, a.recs[idxs[i]])
		if err != nil {
			return nil, err
		}
		doc = next
		a.cache.Put(dayKey{family, a.recs[idxs[i]].Day}, doc)
	}
	return doc, nil
}

// Decodes reports how many document materializations (snapshot parses
// plus delta applications) the archive has performed since Open.
func (a *Archive) Decodes() int64 { return a.decodes.Load() }

// loadSnapshot parses one snapshot file through the streaming reader.
func (a *Archive) loadSnapshot(rec Record) (*core.Document, error) {
	a.decodes.Add(1)
	f, err := os.Open(filepath.Join(a.dir, rec.File))
	if err != nil {
		return nil, fmt.Errorf("archive: opening snapshot: %w", err)
	}
	defer f.Close()
	dr, err := core.NewDocumentReader(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", rec.File, err)
	}
	doc := dr.Header().DeepCopy()
	for {
		e, err := dr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("archive: %s: %w", rec.File, err)
		}
		doc.Entries = append(doc.Entries, *e)
	}
	return doc, nil
}

// applyDelta advances the chain by one day.
func (a *Archive) applyDelta(prev *core.Document, rec Record) (*core.Document, error) {
	if rec.Kind != KindDelta {
		// A snapshot interleaved mid-chain simply restarts it.
		return a.loadSnapshot(rec)
	}
	a.decodes.Add(1)
	b, err := os.ReadFile(filepath.Join(a.dir, rec.File))
	if err != nil {
		return nil, fmt.Errorf("archive: reading delta: %w", err)
	}
	var delta core.DocumentDelta
	if err := json.Unmarshal(b, &delta); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", rec.File, err)
	}
	doc, err := delta.Apply(prev)
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", rec.File, err)
	}
	return doc, nil
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
	if to < 0 {
		to = a.recs[idxs[len(idxs)-1]].Day
	}
	start := sort.Search(len(idxs), func(i int) bool { return a.recs[idxs[i]].Day >= from })
	if start == len(idxs) || a.recs[idxs[start]].Day > to {
		return nil
	}
	// Rewind to the snapshot the first requested day derives from.
	base := start
	for base > 0 && a.recs[idxs[base]].Kind != KindSnapshot {
		base--
	}
	var doc *core.Document
	for i := base; i < len(idxs); i++ {
		rec := a.recs[idxs[i]]
		if rec.Day > to {
			return nil
		}
		if doc == nil && rec.Kind != KindSnapshot {
			return fmt.Errorf("archive: %s chain starts with a delta (corrupt index)", family)
		}
		var err error
		if doc == nil || rec.Kind == KindSnapshot {
			doc, err = a.loadSnapshot(rec)
		} else {
			doc, err = a.applyDelta(doc, rec)
		}
		if err != nil {
			return err
		}
		if rec.Day >= from {
			if err := fn(rec.Day, doc); err != nil {
				return err
			}
		}
	}
	return nil
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
		err := a.Range(fam, 0, -1, func(day int, doc *core.Document) error {
			rec, _ := a.Record(fam, day)
			crc := crc32.New(castagnoli)
			count := &countingWriter{}
			if err := core.StreamDocument(io.MultiWriter(crc, count), doc); err != nil {
				return err
			}
			if crc.Sum32() != rec.CRC || count.n != rec.FullBytes {
				return fmt.Errorf("archive: %s day %d: reconstructed census does not match packed checksum (crc %08x/%08x, %d/%d bytes)",
					fam, day, crc.Sum32(), rec.CRC, count.n, rec.FullBytes)
			}
			if len(doc.Entries) != rec.Entries || doc.GCount != rec.GCount || doc.MCount != rec.MCount {
				return fmt.Errorf("archive: %s day %d: counts diverge from index", fam, day)
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

// CachedDays reports how many decoded days the LRU currently holds.
func (a *Archive) CachedDays() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cache.Len()
}
