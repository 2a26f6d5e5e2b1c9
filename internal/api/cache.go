package api

// The serving tier's caching layer: snapshot-isolated read views and
// the HTTP validators (ETag / Cache-Control) they precompute; respond.go
// stamps them and answers conditional requests.
//
// Archived census days are immutable — a packed day never changes bytes
// — so day-keyed responses carry a strong ETag derived from the CRC-32C
// recorded at pack time (stable across restarts by construction) and
// `Cache-Control: public, max-age=31536000, immutable`. Collection
// responses that grow as days are appended (/v1/days, open-ended
// /v1/range) and index-keyed responses (/v1/timeline, /v1/events,
// /v1/stability, /v1/aggregates, validator = the index build
// fingerprint) use `public, no-cache`: cache, but revalidate — a 304
// costs no body bytes and no row reads.
//
// Snapshot isolation: every request resolves one immutable view at
// start — archive handle, query index, precomputed validators, the
// per-view events cache — via an atomic pointer. A census appending to
// the archive publishes a new generation with Reload; in-flight
// requests keep the generation they pinned and can never observe a
// half-appended day.

import (
	"fmt"
	"hash/crc32"
	"strings"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/lru"
	"github.com/laces-project/laces/internal/query"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// eventsCacheSize bounds the per-view cache of computed event lists
// (one entry per distinct family/hysteresis/window combination).
const eventsCacheSize = 8

// resTag is one precomputed HTTP validator: the quoted ETag and its
// ready-made single-element header value, so the conditional-GET path
// allocates nothing.
type resTag struct {
	etag string
	hdr  []string
}

func newResTag(etag string) *resTag { return &resTag{etag: etag, hdr: []string{etag}} }

// eventsKey identifies one computed event list inside a view. The kind
// filter is deliberately absent: the view caches the all-kinds list and
// handlers filter per request, so kind permutations share one scan.
type eventsKey struct {
	family     string
	hysteresis int
	from, to   int
}

// view is one serving generation: everything a request needs, resolved
// once at request start and immutable for the request's lifetime.
type view struct {
	gen  uint64
	arch *archive.Archive
	q    *query.Index
	fp   string // query index fingerprint ("" without an index)

	// Validators, precomputed at view construction: per archived day,
	// per family day-list, and one for every index-keyed response.
	dayTags map[censusKey]*resTag
	famTags map[string]*resTag
	idxTag  *resTag

	events *lru.Cache[eventsKey, []query.Event] // guarded by the owning Server's mu
}

// newView builds a serving generation over the given handles. ETags are
// derived from content hashes fixed at pack/build time, so two views
// over the same archived bytes — across restarts or processes — mint
// identical validators.
func (s *Server) newView(a *archive.Archive, q *query.Index) *view {
	v := &view{
		gen:     s.gen.Add(1),
		arch:    a,
		q:       q,
		dayTags: make(map[censusKey]*resTag),
		famTags: make(map[string]*resTag),
		events:  lru.New[eventsKey, []query.Event](eventsCacheSize),
	}
	if a != nil {
		for _, fam := range a.Families() {
			v6 := fam == "ipv6"
			sum := crc32.New(castagnoli)
			days := a.Days(fam)
			for _, day := range days {
				rec, _ := a.Record(fam, day)
				v.dayTags[censusKey{day, v6}] = newResTag(
					fmt.Sprintf("\"%s-%d-%08x\"", fam, day, rec.CRC))
				fmt.Fprintf(sum, "%d:%08x;", day, rec.CRC)
			}
			v.famTags[fam] = newResTag(
				fmt.Sprintf("\"%s-days-%d-%08x\"", fam, len(days), sum.Sum32()))
		}
	}
	if q != nil {
		v.fp = q.Fingerprint()
		v.idxTag = newResTag("\"idx-" + v.fp + "\"")
	}
	return v
}

// rangeTag derives the validator for a /v1/range span: a CRC over the
// packed-day checksums the span covers. Unlike the precomputed tags
// this allocates — the range response streams whole documents, so the
// cost is noise there.
func (v *view) rangeTag(fam string, from, to int) *resTag {
	if v.arch == nil {
		return nil
	}
	sum := crc32.New(castagnoli)
	n := 0
	for _, d := range v.arch.Days(fam) {
		if d < from || (to >= 0 && d > to) {
			continue
		}
		rec, _ := v.arch.Record(fam, d)
		fmt.Fprintf(sum, "%d:%08x;", d, rec.CRC)
		n++
	}
	if n == 0 {
		return nil
	}
	return newResTag(fmt.Sprintf("\"%s-range-%d-%08x\"", fam, n, sum.Sum32()))
}

// eventList returns the view's all-kinds event list for one
// family/hysteresis/window, computing it at most once per view.
func (s *Server) eventList(v *view, family string, hysteresis, from, to int) ([]query.Event, error) {
	key := eventsKey{family, hysteresis, from, to}
	s.mu.Lock()
	ev, ok := v.events.Get(key)
	s.mu.Unlock()
	if ok {
		return ev, nil
	}
	ev, err := v.q.Events(family, nil, from, to, query.EventOptions{Hysteresis: hysteresis})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	v.events.Put(key, ev)
	s.mu.Unlock()
	return ev, nil
}

// currentView returns the serving snapshot this request pins. The first
// request materializes it from the set-before-first-request fields;
// afterwards it is one atomic load.
func (s *Server) currentView() *view {
	if v := s.viewPtr.Load(); v != nil {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.viewPtr.Load(); v != nil {
		return v
	}
	v := s.newView(s.Archive, s.Query)
	s.viewPtr.Store(v)
	return v
}

// Reload atomically publishes a new serving generation over fresh
// archive/index handles. In-flight requests finish on the generation
// they pinned; new requests see the new one — an appending census can
// never tear a concurrent reader. The decoded-day LRU is kept: it is
// keyed by day, and archived days are immutable, so entries stay valid
// across generations of the same growing archive. Reload is for
// re-opening the same archive directory after appends; pointing it at
// an unrelated directory would serve the old generation's cached days.
func (s *Server) Reload(a *archive.Archive, q *query.Index) {
	v := s.newView(a, q)
	s.mu.Lock()
	s.Archive, s.Query = a, q
	s.viewPtr.Store(v)
	s.mu.Unlock()
}

// Generation reports the current serving generation (0 before the first
// request; incremented by each Reload). For tests and monitoring.
func (s *Server) Generation() uint64 {
	if v := s.viewPtr.Load(); v != nil {
		return v.gen
	}
	return 0
}

// etagMatch implements the If-None-Match grammar this server needs:
// "*", an exact match, or a comma-separated list containing the tag.
// Weak validators (W/) are never minted here, so a W/ entry can only
// mismatch. Substring-only operations: no allocation.
func etagMatch(inm, etag string) bool {
	if inm == "*" || inm == etag {
		return true
	}
	for inm != "" {
		var tok string
		if i := strings.IndexByte(inm, ','); i >= 0 {
			tok, inm = inm[:i], inm[i+1:]
		} else {
			tok, inm = inm, ""
		}
		if strings.TrimSpace(tok) == etag {
			return true
		}
	}
	return false
}
