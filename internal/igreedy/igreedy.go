// Package igreedy implements the latency-based anycast detection,
// enumeration and geolocation algorithm of Cicalese et al.'s iGreedy
// (§2.1 of the LACeS paper), in the streamlined form LACeS ships as
// "MiGreedy" (the paper's improved implementation that "severely reduces
// processing time", §4.3).
//
// Given RTT samples from geographically dispersed vantage points, each
// sample constrains the responder to a disc around the VP with radius
// RTT/2 × c_fibre. Two disjoint discs cannot contain one host — a
// "speed-of-light violation" proving anycast. A set of pairwise disjoint
// discs lower-bounds the number of sites; iGreedy takes the greedy one —
// the smallest disc, then each next smallest disc disjoint from all taken
// — and geolocates every taken disc to the highest-population city inside
// it.
//
// Input. A campaign builds one VPTable (names, locations, unit vectors)
// and passes VPTable.Analyze each fan's best RTT per VP, by index.
// Analyze and Detect over []Sample are adapters onto the same kernel that
// find each VP's disc through a name map.
//
// The kernel, in order:
//   - The common-point certificate. When every disc holds the centre of
//     the smallest one, all discs share a point and none is disjoint: an
//     O(n) proof of "no violation" for the usual unicast target.
//   - The enumeration's first step, by selection. The smallest disc is
//     picked, and one pass drops every disc that overlaps it. For ≈60 % of
//     census targets nothing survives.
//   - The survivors, bucket-sorted by radius, are walked in ascending
//     order. A candidate is tested only against the picks filed in the
//     cells of its reach (geo.Cells).
//   - A tied minimum, or equal radii among the survivors, falls back to
//     sortByRadius and pickDisjoint: pdqsort's order among equal radii is
//     the one the census goldens were cut with.
//   - The witness scan runs when the certificate failed but only one disc
//     was picked. A disjoint pair then seeds the enumeration, so that
//     Anycast ⇒ two sites. It tests only the pairs with a disc that misses
//     the smallest disc's centre.
//
// Geometry. geo.ContainsByBound and geo.OverlapsByBound decide a test from
// the chord between the centres' unit vectors and the radii. Only a test
// near its threshold builds the disc's geo.Cap, with one Sincos. Both
// decide as the haversine comparison does (see package geo). Working
// memory is pooled, so a call allocates only the Result it returns. The
// analysis as it stood on haversine is kept in reference_test.go, and
// every Result is held to it.
package igreedy

import (
	"math"
	"math/bits"
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

// VP is one vantage point of a VPTable.
type VP struct {
	Name string
	Loc  geo.Coordinate
}

// VPTable is a campaign's vantage points resolved once for all its
// targets: names, locations and unit vectors, indexed the way the
// campaign's RTT fans are. Build it with NewVPTable; it is read-only after
// that, so a campaign's shards share it.
type VPTable struct {
	names []string
	locs  []geo.Coordinate
	vecs  []geo.Vec
	// first[i] is the index of the first VP named like VP i, so a fan
	// keeps one disc per name as the []Sample path does; nil when every
	// name is distinct.
	first []int32
}

// NewVPTable builds the table of vps, in order: index i of a fan is vps[i].
func NewVPTable(vps []VP) *VPTable {
	t := &VPTable{
		names: make([]string, len(vps)),
		locs:  make([]geo.Coordinate, len(vps)),
		vecs:  make([]geo.Vec, len(vps)),
	}
	seen := make(map[string]int32, len(vps))
	first, dup := make([]int32, len(vps)), false
	for i, vp := range vps {
		t.names[i], t.locs[i], t.vecs[i] = vp.Name, vp.Loc, vp.Loc.Vec()
		f, ok := seen[vp.Name]
		if !ok {
			f = int32(i)
			seen[vp.Name] = f
		}
		first[i], dup = f, dup || ok
	}
	if dup {
		t.first = first
	}
	return t
}

// Analyze is Analyze over one RTT fan of the table: best[i] is VP i's
// smallest RTT, 0 for a VP without one. It returns what Analyze returns
// for the samples {VP i, best[i]} in index order. best must hold an entry for every VP of the table.
func (t *VPTable) Analyze(best []time.Duration, opts Options) Result {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.buildFan(t, best, opts)
	return sc.analyze(opts)
}

// Detect is Detect over one RTT fan of the table, read as Analyze reads it.
func (t *VPTable) Detect(best []time.Duration, opts Options) bool {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.buildFan(t, best, opts)
	anycast, _, _ := sc.detect()
	return anycast
}

// vpDisc is one vantage point's constraint disc with its geometry
// precomputed (geo.Cap), so the pairwise tests below cost multiplications.
// Build writes the disc and its centre's unit vector; the Cap's
// trigonometry is filled in when a test first needs it (scratch.ready).
type vpDisc struct {
	geo.Cap
	vp string
}

// scratch is the working memory of one Detect/Analyze call, pooled so a
// census that analyses thousands of targets from the same VP pool
// allocates nothing per target beyond the Result it returns.
type scratch struct {
	discs  []vpDisc // one per vantage point, in first-seen order
	order  []int32  // disc indices in ascending radius order, when sorted
	picked []int32  // the greedy enumeration

	// The discs column-wise, for the loops over them: centre unit vector
	// and radius, and whether the disc's Cap is ready.
	u    []geo.Vec
	r    []float64
	done []bool
	nan  bool // some disc's centre is invalid, its unit vector NaN

	// in[i]: geo.ContainsByBound puts the smallest disc's centre inside
	// disc i; set by certificate.
	in []bool

	live       []int32 // enumerate: the discs disjoint from the first pick, then in walk order
	byBucket   []int32 // ascending: the discs in bucket order
	count      []int32 // ascending: the bucket bounds
	head, next []int32 // enumerate: the picks filed by pickCells cell, as 1 + position in picked

	slot []int32 // buildFan with repeated names: the disc of each first-named VP, or -1

	// vps remembers every vantage point by name across []Sample calls:
	// where its disc sits in the current call (for the min-RTT filter) and
	// the unit vector of its last location, so a VP pool pays for its
	// trigonometry once per pooled scratch instead of once per target.
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

// radiusOf is the disc radius of an RTT sample: the RTT less the
// processing allowance, or a microsecond's where that is not positive;
// ok is false when neither the difference nor the RTT is positive.
func radiusOf(rtt time.Duration, opts Options) (float64, bool) {
	d := rtt - opts.ProcessingAllowance
	if d <= 0 {
		if rtt <= 0 {
			return 0, false
		}
		d = time.Microsecond
	}
	return geo.MaxDistanceKm(d), true
}

// reset empties the scratch for a call of at most n discs, sizing the
// columns so that put writes in place.
func (sc *scratch) reset(n int) {
	sc.discs = slices.Grow(sc.discs[:0], n)
	sc.u, sc.r = slices.Grow(sc.u[:0], n)[:n], slices.Grow(sc.r[:0], n)[:n]
	sc.done = slices.Grow(sc.done[:0], n)[:n]
	sc.order, sc.picked = sc.order[:0], sc.picked[:0]
	sc.nan = false
}

// trim cuts the columns to the discs put.
func (sc *scratch) trim() {
	n := len(sc.discs)
	sc.u, sc.r, sc.done = sc.u[:n], sc.r[:n], sc.done[:n]
}

// put makes disc k the disc of the given radius around a VP, appending it
// when k is one past the last disc. Its Cap is not ready.
func (sc *scratch) put(k int32, vp string, loc geo.Coordinate, u geo.Vec, radius float64) {
	if int(k) == len(sc.discs) {
		sc.discs = sc.discs[:k+1]
	}
	d := &sc.discs[k]
	d.Disc, d.vp = geo.Disc{Center: loc, RadiusKm: radius}, vp
	sc.u[k], sc.r[k], sc.done[k] = u, radius, false
	sc.nan = sc.nan || u.X != u.X
}

// ready computes disc i's Cap, for the tests the bounds leave to it.
func (sc *scratch) ready(i int32) {
	if !sc.done[i] {
		d := &sc.discs[i]
		d.Cap.Set(d.Disc, sc.u[i])
		sc.done[i] = true
	}
}

// build converts samples to discs, dropping unusable samples and keeping
// only the smallest disc per vantage point (the min-RTT filter —
// retransmissions and jitter only ever enlarge a disc).
func (sc *scratch) build(samples []Sample, opts Options) {
	sc.reset(len(samples))
	sc.call++
	if len(sc.vps) > maxRememberedVPs {
		clear(sc.vps)
	}
	for _, s := range samples {
		radius, ok := radiusOf(s.RTT, opts)
		if !ok {
			continue
		}
		e := sc.vps[s.VP]
		if e == nil {
			e = &vpEntry{loc: s.Loc, u: s.Loc.Vec()}
			sc.vps[s.VP] = e
		}
		if e.call != sc.call {
			e.call, e.idx = sc.call, int32(len(sc.discs))
		} else if radius >= sc.r[e.idx] {
			continue
		}
		if e.loc != s.Loc {
			e.loc, e.u = s.Loc, s.Loc.Vec()
		}
		sc.put(e.idx, s.VP, s.Loc, e.u, radius)
	}
	sc.trim()
}

// buildFan is build for the samples {VP i, best[i]} of t in index order,
// reading names, locations and unit vectors from the table.
func (sc *scratch) buildFan(t *VPTable, best []time.Duration, opts Options) {
	sc.reset(len(t.names))
	if t.first != nil {
		sc.slot = slices.Grow(sc.slot[:0], len(t.first))[:len(t.first)]
		for i := range sc.slot {
			sc.slot[i] = -1
		}
	}
	for i, rtt := range best[:len(t.names)] {
		radius, ok := radiusOf(rtt, opts)
		if !ok {
			continue
		}
		k := int32(len(sc.discs))
		if t.first != nil {
			f := t.first[i]
			if j := sc.slot[f]; j >= 0 {
				if radius >= sc.r[j] {
					continue
				}
				k = j
			} else {
				sc.slot[f] = k
			}
		}
		sc.put(k, t.names[i], t.locs[i], t.vecs[i], radius)
	}
	sc.trim()
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

// smallest returns the first disc of the smallest radius and whether no
// other disc has that radius.
func (sc *scratch) smallest() (m int32, unique bool) {
	r := sc.r
	unique = true
	for i := 1; i < len(r); i++ {
		switch {
		case r[i] < r[m]:
			m, unique = int32(i), true
		case r[i] == r[m]:
			unique = false
		}
	}
	return m, unique
}

// certificate reports whether every disc contains the centre of disc m,
// the smallest: then all discs share a point and no two are disjoint — the
// O(n) "no violation" proof that settles the common unicast target. It
// fills sc.in for every disc on the way.
func (sc *scratch) certificate(m int32) bool {
	sc.in = slices.Grow(sc.in[:0], len(sc.discs))[:len(sc.discs)]
	mu, mc := sc.u[m], sc.discs[m].Center
	all := true
	for i := range sc.discs {
		inside, ok := geo.ContainsByBound(geo.HavOf(sc.u[i], mu), sc.r[i])
		sc.in[i] = inside && ok
		if !ok && all {
			sc.ready(int32(i))
			inside = sc.discs[i].Contains(mc, mu)
		}
		all = all && inside
	}
	return all
}

// shared reports whether discs i and j are known to overlap without a
// test: both hold the smallest disc's centre by more than the guard band,
// and geo.OverlapByCommonPoint vouches for their radii. sc.in must be set.
func (sc *scratch) shared(i, j int32) bool {
	return sc.in[i] && sc.in[j] && geo.OverlapByCommonPoint(sc.r[i], sc.r[j])
}

// overlaps is discs[i].Overlaps(&discs[p].Cap), decided by
// geo.OverlapsByBound on the columns wherever the bounds tell.
func (sc *scratch) overlaps(i, p int32) bool {
	if overlap, ok := geo.OverlapsByBound(geo.HavOf(sc.u[i], sc.u[p]), sc.r[i]+sc.r[p]); ok {
		return overlap
	}
	sc.ready(i)
	sc.ready(p)
	return sc.discs[i].Overlaps(&sc.discs[p].Cap)
}

// detect returns whether a violation exists and, if so, one disjoint pair:
// the first of the witness scan. When the common-point certificate settles
// it, it returns the smallest disc as its first index and leaves sc.order
// empty.
func (sc *scratch) detect() (bool, int32, int32) {
	if len(sc.discs) < 2 {
		return false, 0, 0
	}
	m, _ := sc.smallest()
	if sc.certificate(m) {
		return false, m, 0
	}
	return sc.witness()
}

// witness scans the disc pairs in ascending radius order — small discs are
// the most discriminating, so true violations exit early — and returns the
// first disjoint one, leaving sc.order sorted. Pairs shared says overlap
// are not tested, and the first disjoint pair is the same: a disc that
// holds the smallest disc's centre is tested only against the ones that
// do not, unless geo.CommonPointWindow puts one of the others in doubt,
// when it takes the full row. sc.in must be set.
func (sc *scratch) witness() (bool, int32, int32) {
	if len(sc.order) == 0 {
		for i := range sc.discs {
			sc.order = append(sc.order, int32(i))
		}
		if !sc.ascending(sc.order) {
			sc.order = sc.order[:0]
			sc.sortByRadius()
		}
	}
	order, in, r := sc.order, sc.in, sc.r
	out := sc.live[:0] // the positions of the discs not in
	for pos, i := range order {
		if !in[i] {
			out = append(out, int32(pos))
		}
	}
	sc.live = out
	// As a ascends, its window's lower edge descends: w is the first
	// position at or above it.
	w, k := len(order), 0
	for a, ia := range order {
		for k < len(out) && int(out[k]) <= a {
			k++
		}
		if in[ia] {
			lo, hi := geo.CommonPointWindow(r[ia])
			for w > 0 && r[order[w-1]] >= lo {
				w--
			}
			if p := max(w, a+1); p == len(order) || r[order[p]] >= hi {
				for _, b := range out[k:] {
					if ib := order[b]; !sc.overlaps(ia, ib) {
						return true, ia, ib
					}
				}
				continue
			}
		}
		for _, ib := range order[a+1:] {
			if !sc.shared(ia, ib) && !sc.overlaps(ia, ib) {
				return true, ia, ib
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
			if sc.overlaps(i, p) {
				ok = false
				break
			}
		}
		if ok {
			sc.picked = append(sc.picked, i)
		}
	}
}

// pickCells is the lattice enumerate files its picks in: slabs 0.25 wide
// in unit-vector coordinates, about 14° of arc.
var pickCells = geo.NewCells(8)

const (
	// gridMinPicks is the number of picks below which a candidate is
	// tested against every pick: the cells would cost more than the tests.
	gridMinPicks = 8
	// gridMaxAngle is the widest reach, in radians of arc, that a candidate
	// looks up in the cells; a wider box covers most of the lattice.
	gridMaxAngle = 0.5
)

// enumerate fills sc.picked with pickDisjoint's enumeration, walking the
// discs in ascending radius without sorting the ones the walk would drop
// at its first test. m must be the unique smallest disc, and sc.in set.
//
// Its first step is a selection: m is picked, and one pass drops every
// disc that overlaps it — the whole enumeration for the common unicast
// target, where nothing survives. The walk drops those discs at their
// first test, so only the survivors are sorted by radius (ascending) and
// walked, each tested against the picks so far. Which pick a candidate is
// tested against first does not change whether one overlaps it, so the
// walk consults only the picks filed in the cells of the candidate's
// reach (pickCells): a pick outside them lies farther from it than both
// radii together, by a margin geo.Cells leaves far past rounding, and
// Overlaps says so too. Distinct radii have one ascending order, the one
// pdqsort gives; equal radii among the survivors take the order pdqsort
// gives them, which only sortByRadius reproduces, so enumerate then
// empties sc.picked and returns false for the caller to sort and walk.
func (sc *scratch) enumerate(m int32) bool {
	live := sc.live[:0]
	for i := range sc.discs {
		if i := int32(i); i != m && !sc.shared(i, m) && !sc.overlaps(i, m) {
			live = append(live, i)
		}
	}
	sc.live = live
	sc.picked = append(sc.picked, m)
	if len(live) == 0 {
		return true
	}
	if !sc.ascending(live) {
		sc.picked = sc.picked[:0]
		return false
	}
	if sc.head == nil {
		sc.head = make([]int32, pickCells.Len())
	}
	clear(sc.head)
	sc.next = sc.next[:0]
	sc.file(0)
	for _, c := range live {
		if !sc.overlapsPick(c) {
			sc.picked = append(sc.picked, c)
			sc.file(len(sc.picked) - 1)
		}
	}
	return true
}

// ascending sorts discs live by radius and reports whether the radii are
// distinct: if so, the order is sortByRadius's. It is a bucket sort on
// the radii's bits — radii are positive, so their bits order as they do,
// and spread about logarithmically — into len(live) buckets, finished by
// an insertion sort that only moves discs within a bucket.
func (sc *scratch) ascending(live []int32) bool {
	n, r := len(live), sc.r
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, i := range live {
		b := math.Float64bits(r[i])
		lo, hi = min(lo, b), max(hi, b)
	}
	shift := uint(bits.Len64((hi - lo) / uint64(n))) // (hi-lo)>>shift < n
	count := slices.Grow(sc.count[:0], n+1)[:n+1]
	clear(count)
	for _, i := range live {
		count[(math.Float64bits(r[i])-lo)>>shift+1]++
	}
	for b := 1; b < n; b++ {
		count[b] += count[b-1]
	}
	tmp := slices.Grow(sc.byBucket[:0], n)[:n]
	for _, i := range live {
		b := (math.Float64bits(r[i]) - lo) >> shift
		tmp[count[b]] = i
		count[b]++
	}
	sc.count, sc.byBucket = count, tmp
	for k, i := range tmp {
		j := k
		for ; j > 0 && r[live[j-1]] > r[i]; j-- {
			live[j] = live[j-1]
		}
		live[j] = i
	}
	for k := 1; k < n; k++ {
		if !(r[live[k-1]] < r[live[k]]) {
			return false
		}
	}
	return true
}

// file enters sc.picked[k] in the cell list of its centre.
func (sc *scratch) file(k int) {
	cell := pickCells.Of(sc.u[sc.picked[k]])
	sc.next = append(sc.next, sc.head[cell])
	sc.head[cell] = int32(k + 1)
}

// overlapsPick reports whether candidate c overlaps any pick after the
// first, which it is known to miss.
func (sc *scratch) overlapsPick(c int32) bool {
	picked := sc.picked
	// Picks come in ascending radius: the last is the largest.
	reach := (sc.r[c] + sc.r[picked[len(picked)-1]]) / geo.EarthRadiusKm
	if len(picked) > gridMinPicks && !sc.nan && reach < gridMaxAngle {
		// An empty cell costs a load; a test costs a few dozen flops.
		if lo, hi := pickCells.Box(sc.u[c], reach); (hi[0]-lo[0]+1)*(hi[1]-lo[1]+1)*(hi[2]-lo[2]+1) < 4*len(picked) {
			return sc.overlapsIn(c, lo, hi)
		}
	}
	for _, p := range picked[1:] {
		if sc.overlaps(c, p) {
			return true
		}
	}
	return false
}

// overlapsIn reports whether candidate c overlaps a pick filed in the
// cells of the box from lo to hi.
func (sc *scratch) overlapsIn(c int32, lo, hi [3]int) bool {
	picked := sc.picked
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for z := lo[2]; z <= hi[2]; z++ {
				for k := sc.head[pickCells.Index(x, y, z)]; k != 0; k = sc.next[k-1] {
					if sc.overlaps(c, picked[k-1]) {
						return true
					}
				}
			}
		}
	}
	return false
}

// analyze runs detection, enumeration and geolocation on the built discs.
func (sc *scratch) analyze(opts Options) Result {
	res := Result{Samples: len(sc.discs)}
	if len(sc.discs) == 0 {
		return res
	}
	m, unique := sc.smallest()
	settled := sc.certificate(m) || len(sc.discs) < 2
	// Greedy maximum-independent-set approximation: repeatedly take the
	// smallest disc disjoint from everything taken. Each taken disc is a
	// distinct site (two disjoint discs cannot share a host).
	if !unique || !sc.enumerate(m) {
		sc.sortByRadius()
		sc.pickDisjoint(-1, -1)
	}
	switch {
	case settled:
	case len(sc.picked) >= 2:
		res.Anycast = true // two picks are a disjoint pair
	default:
		// Greedy maximality does not guarantee it realises a violation
		// (the witness pair can both overlap an earlier pick); if one
		// exists, rebuild the set seeded with the witness pair so the
		// result is self-consistent: Anycast ⇒ at least two sites.
		var vi, vj int32
		if res.Anycast, vi, vj = sc.witness(); res.Anycast {
			sc.picked = append(sc.picked[:0], vi, vj)
			sc.pickDisjoint(vi, vj)
		}
	}
	res.Sites = sc.sites(opts)
	return res
}

// Analyze runs detection, enumeration and geolocation on the samples.
func Analyze(samples []Sample, opts Options) Result {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.build(samples, opts)
	return sc.analyze(opts)
}

// sites geolocates the enumeration in sc.picked: each disc to the most
// populous city inside it.
func (sc *scratch) sites(opts Options) []Site {
	db := opts.db()
	out := make([]Site, 0, len(sc.picked))
	for _, i := range sc.picked {
		sc.ready(i)
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
