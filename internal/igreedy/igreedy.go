// Package igreedy implements the latency-based anycast detection,
// enumeration and geolocation algorithm of Cicalese et al.'s iGreedy
// (§2.1 of the LACeS paper), in the streamlined form LACeS ships as
// "MiGreedy" (the paper's improved implementation that "severely reduces
// processing time", §4.3).
//
// Given RTT samples from geographically dispersed vantage points, each
// sample constrains the responder to a disc around the VP with radius
// RTT/2 × c_fibre. Two disjoint discs cannot contain one host — a
// "speed-of-light violation" proving anycast. The minimum set of pairwise
// disjoint discs lower-bounds the number of sites, and each chosen disc is
// geolocated to the highest-population city it contains.
//
// Fast path: for the (overwhelmingly common) unicast case, all discs share
// a common point — the responder. Checking whether every disc contains the
// centre of the smallest disc is an O(n) certificate of "no violation";
// only targets failing it pay for the O(n²) pairwise scan. This is the
// optimisation benchmarked by BenchmarkIGreedyOrdering.
//
// Geometry: every disc is turned into a geo.Cap once per call — the VP's
// unit vector, remembered across calls, and sin/cos of the radius — and
// every containment, overlap and city test after that is a few
// multiplications whose decision equals the haversine comparison's (see
// package geo). The discs are sorted by radius once and the enumeration
// walks that order — except when the certificate held and the smallest
// disc is unique and overlaps every other one: the enumeration is then
// that disc alone, and neither the sort nor the walk runs (scratch.alone).
// Working memory is pooled, so a call allocates only the
// Result it returns. The analysis as it stood on haversine is kept in
// reference_test.go and every Result is held to it.
package igreedy

import (
	"slices"
	"sync"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/geo"
)

// Sample is one latency measurement from a vantage point.
type Sample struct {
	VP  string // vantage point name
	Loc geo.Coordinate
	RTT time.Duration
}

// Options tunes the analysis. The zero value is ready to use.
type Options struct {
	// DB is the geolocation city database; nil uses the embedded default.
	DB *cities.DB
	// ProcessingAllowance is subtracted from each RTT before computing
	// the disc radius, discounting target processing delay. Zero (the
	// iGreedy default) is conservative: it can only overestimate radii
	// and therefore never produces a false violation.
	ProcessingAllowance time.Duration
}

func (o Options) db() *cities.DB {
	if o.DB != nil {
		return o.DB
	}
	return cities.Default()
}

// Site is one enumerated anycast site.
type Site struct {
	VP     string   // the vantage point whose disc identified the site
	Disc   geo.Disc // the constraint disc
	City   cities.City
	CityOK bool // false when no database city lies within the disc
}

// Result is the outcome of analysing one target.
type Result struct {
	// Anycast is true when a speed-of-light violation exists.
	Anycast bool
	// Sites is the greedy enumeration: a set of pairwise disjoint discs,
	// each a distinct site (a lower bound, §2.1). For unicast targets it
	// holds the single best-constrained location.
	Sites []Site
	// Samples is the number of usable (positive-RTT) samples analysed.
	Samples int
}

// NumSites returns the enumerated site count.
func (r Result) NumSites() int { return len(r.Sites) }

// vpDisc is one vantage point's constraint disc with its geometry
// precomputed (geo.Cap), so the pairwise tests below cost multiplications.
type vpDisc struct {
	geo.Cap
	vp string
}

// scratch is the working memory of one Detect/Analyze call, pooled so a
// census that analyses thousands of targets from the same VP pool
// allocates nothing per target beyond the Result it returns.
type scratch struct {
	discs  []vpDisc // one per vantage point, in first-seen order
	order  []int32  // disc indices in ascending radius order
	picked []int32  // the greedy enumeration

	// vps remembers every vantage point by name across calls: where its
	// disc sits in the current call (for the min-RTT filter) and the unit
	// vector of its last location, so a VP pool pays for its trigonometry
	// once per pooled scratch instead of once per target.
	vps  map[string]*vpEntry
	call uint64 // stamps the entries the current call has seen
}

type vpEntry struct {
	loc  geo.Coordinate
	u    geo.Vec // loc.Vec()
	call uint64  // the last call that saw this VP
	idx  int32   // its index into discs during that call
}

// maxRememberedVPs bounds scratch.vps; past it the memory starts over.
const maxRememberedVPs = 1 << 12

var scratchPool = sync.Pool{New: func() any {
	return &scratch{vps: make(map[string]*vpEntry)}
}}

// build converts samples to discs, dropping unusable samples and keeping
// only the smallest disc per vantage point (the min-RTT filter —
// retransmissions and jitter only ever enlarge a disc).
func (sc *scratch) build(samples []Sample, opts Options) {
	sc.discs, sc.order, sc.picked = sc.discs[:0], sc.order[:0], sc.picked[:0]
	sc.call++
	if len(sc.vps) > maxRememberedVPs {
		clear(sc.vps)
	}
	for _, s := range samples {
		rtt := s.RTT - opts.ProcessingAllowance
		if rtt <= 0 {
			if s.RTT <= 0 {
				continue
			}
			rtt = time.Microsecond
		}
		radius := geo.MaxDistanceKm(rtt)
		e := sc.vps[s.VP]
		if e == nil {
			e = &vpEntry{loc: s.Loc, u: s.Loc.Vec()}
			sc.vps[s.VP] = e
		}
		if e.call != sc.call {
			e.call, e.idx = sc.call, int32(len(sc.discs))
			sc.discs = append(sc.discs, vpDisc{})
		} else if radius >= sc.discs[e.idx].RadiusKm {
			continue
		}
		if e.loc != s.Loc {
			e.loc, e.u = s.Loc, s.Loc.Vec()
		}
		d := &sc.discs[e.idx]
		d.Cap, d.vp = geo.NewCap(geo.Disc{Center: s.Loc, RadiusKm: radius}, e.u), s.VP
	}
}

// Detect reports whether the samples prove anycast: some pair of discs is
// disjoint. It runs the O(n) common-point certificate first and falls back
// to a pairwise scan sorted so violations are found early.
func Detect(samples []Sample, opts Options) bool {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.build(samples, opts)
	anycast, _, _ := sc.detect()
	return anycast
}

// sortByRadius fills sc.order with the disc indices in ascending radius
// order. It is slices.SortFunc over the identity order: the same pdqsort,
// comparison for comparison, as the sort.Slice it replaces, so discs of
// equal radius land in the same places and the enumeration that walks the
// order is unchanged (TestSortByRadiusMatchesSortSlice).
func (sc *scratch) sortByRadius() {
	for i := range sc.discs {
		sc.order = append(sc.order, int32(i))
	}
	discs := sc.discs
	slices.SortFunc(sc.order, func(a, b int32) int {
		if discs[a].RadiusKm < discs[b].RadiusKm {
			return -1
		}
		return 0
	})
}

// detect returns whether a violation exists and, if so, one disjoint pair.
// When it had to look for one it leaves sc.order sorted for the
// enumeration to reuse; when the common-point certificate settled it, it
// returns the smallest disc as its first index and leaves sc.order empty.
func (sc *scratch) detect() (bool, int32, int32) {
	discs := sc.discs
	if len(discs) < 2 {
		return false, 0, 0
	}
	// O(n) certificate: if every disc contains the centre of the smallest
	// disc, all discs pairwise overlap (they share a common point), so no
	// violation exists.
	m := 0
	for i := range discs {
		if discs[i].RadiusKm < discs[m].RadiusKm {
			m = i
		}
	}
	all := true
	for i := range discs {
		if !discs[i].Contains(discs[m].Center, discs[m].U) {
			all = false
			break
		}
	}
	if all {
		return false, int32(m), 0
	}
	// Pairwise scan in ascending radius order: small discs are the most
	// discriminating, so true violations exit early.
	sc.sortByRadius()
	order := sc.order
	for a := 0; a < len(order); a++ {
		da := &discs[order[a]]
		for b := a + 1; b < len(order); b++ {
			if !da.Overlaps(&discs[order[b]].Cap) {
				return true, order[a], order[b]
			}
		}
	}
	return false, 0, 0
}

// pickDisjoint appends to sc.picked, in ascending radius order, every disc
// other than skip1 and skip2 that is disjoint from everything picked.
func (sc *scratch) pickDisjoint(skip1, skip2 int32) {
	for _, i := range sc.order {
		if i == skip1 || i == skip2 {
			continue
		}
		ok := true
		for _, p := range sc.picked {
			if sc.discs[i].Overlaps(&sc.discs[p].Cap) {
				ok = false
				break
			}
		}
		if ok {
			sc.picked = append(sc.picked, i)
		}
	}
}

// alone reports whether disc m is strictly the smallest and overlaps
// every other disc — the usual unicast outcome of the common-point
// certificate. The greedy enumeration is then {m} alone: sorted first,
// m is picked first, and no other disc is disjoint from it. The overlap
// test is pickDisjoint's own, so the shortcut returns what the sort and
// the walk would, by construction; a tied minimum takes the sort, whose
// order among equal radii decides which disc comes first.
func (sc *scratch) alone(m int32) bool {
	dm := &sc.discs[m]
	for i := range sc.discs {
		if int32(i) != m && (sc.discs[i].RadiusKm <= dm.RadiusKm || !sc.discs[i].Overlaps(&dm.Cap)) {
			return false
		}
	}
	return true
}

// Analyze runs detection, enumeration and geolocation on the samples.
func Analyze(samples []Sample, opts Options) Result {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.build(samples, opts)
	res := Result{Samples: len(sc.discs)}
	if len(sc.discs) == 0 {
		return res
	}
	anycast, vi, vj := sc.detect()
	res.Anycast = anycast
	if len(sc.order) == 0 && sc.alone(vi) {
		sc.picked = append(sc.picked, vi) // the greedy answer without the sort
	} else {
		if len(sc.order) == 0 {
			sc.sortByRadius()
		}
		// Greedy maximum-independent-set approximation: repeatedly take
		// the smallest disc disjoint from everything taken. Each taken disc
		// is a distinct site (two disjoint discs cannot share a host).
		sc.pickDisjoint(-1, -1)
	}
	// Greedy maximality does not guarantee it realises a known violation
	// (the witness pair can both overlap an earlier pick); if that
	// happens, rebuild the set seeded with the witness pair so the result
	// is self-consistent: Anycast ⇒ at least two sites.
	if anycast && len(sc.picked) < 2 {
		sc.picked = append(sc.picked[:0], vi, vj)
		sc.pickDisjoint(vi, vj)
	}

	res.Sites = sc.sites(opts)
	return res
}

// sites geolocates the enumeration in sc.picked: each disc to the most
// populous city inside it.
func (sc *scratch) sites(opts Options) []Site {
	db := opts.db()
	out := make([]Site, 0, len(sc.picked))
	for _, i := range sc.picked {
		d := &sc.discs[i]
		s := Site{VP: d.vp, Disc: d.Disc}
		if c, ok := db.HighestPopulationInCap(&d.Cap); ok {
			s.City, s.CityOK = c, true
		} else if c, _, ok := db.Nearest(d.Center); ok {
			// No city inside the disc (tiny disc in a remote area):
			// fall back to the nearest city to the VP.
			s.City, s.CityOK = c, false
		}
		out = append(out, s)
	}
	return out
}

// DetectNaive is the reference O(n²) detector without the common-point
// fast path; used by tests as ground truth and by the ordering ablation
// benchmark.
func DetectNaive(samples []Sample, opts Options) bool {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.build(samples, opts)
	discs := sc.discs
	for a := 0; a < len(discs); a++ {
		for b := a + 1; b < len(discs); b++ {
			if !discs[a].Disc.Overlaps(discs[b].Disc) {
				return true
			}
		}
	}
	return false
}
