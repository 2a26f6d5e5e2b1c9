// Package geo provides the geographic primitives LACeS relies on: great
// circle distance (GCD) computation on the WGS-84 sphere approximation and
// the conversion between round-trip times and the maximum distance a packet
// can have travelled at the speed of light in fibre.
//
// These primitives underpin the iGreedy latency-based anycast detection
// described in §2.1 of the paper: a reply observed with RTT r at a vantage
// point places the responding host inside a disc of radius
// MaxDistanceKm(r) around that vantage point. Two vantage points whose
// discs do not intersect constitute a "speed-of-light violation" and prove
// the probed address is anycast.
//
// The disc tests come in two forms that always agree. Disc.Contains and
// Disc.Overlaps compare a haversine DistanceKm with the radius: three
// trigonometric calls, a square root and an arcsine per test. They are the
// reference. Cap carries the same disc with its geometry precomputed — the
// centre's unit vector and sin/cos of RadiusKm/2R — so that Cap.Contains
// and Cap.Overlaps decide with multiplications only, and fall back to the
// reference comparison whenever their two sides are too close for the
// rounding of either form to be trusted (see guardBand). The census hot
// path (iGreedy, the city lookup) runs on Cap, and most of its tests do
// not even build one: ContainsByBound and OverlapsByBound decide from the
// chord and the radii alone, by Taylor bounds on the Cap's threshold,
// wherever those bounds settle the comparison. Cells buckets unit vectors
// in a coarse lattice, so an index finds the points a cap may hold
// without testing the rest.
package geo

import (
	"fmt"
	"math"
	"time"
)

const (
	// EarthRadiusKm is the mean Earth radius used for great circle
	// distance computation.
	EarthRadiusKm = 6371.0

	// FibreSpeedKmPerSec is the propagation speed of light in optical
	// fibre (~2/3 of c). iGreedy's default (§2.1).
	FibreSpeedKmPerSec = 200000.0

	// degToRad converts degrees to radians.
	degToRad = math.Pi / 180.0
)

// Coordinate is a point on the Earth surface in decimal degrees.
// The zero value is the Gulf of Guinea origin (0°N 0°E), which is a valid
// coordinate; use IsValid to reject out-of-range values from untrusted
// input.
type Coordinate struct {
	Lat float64 // latitude in [-90, 90]
	Lon float64 // longitude in [-180, 180]
}

// IsValid reports whether the coordinate lies within the valid
// latitude/longitude ranges.
func (c Coordinate) IsValid() bool {
	return c.Lat >= -90 && c.Lat <= 90 && c.Lon >= -180 && c.Lon <= 180 &&
		!math.IsNaN(c.Lat) && !math.IsNaN(c.Lon)
}

// String renders the coordinate as "lat,lon" with 4 decimal digits
// (≈11 m resolution), enough for city-level geolocation.
func (c Coordinate) String() string {
	return fmt.Sprintf("%.4f,%.4f", c.Lat, c.Lon)
}

// DistanceKm returns the great circle distance in kilometres between c and
// other, using the haversine formula. Haversine is numerically stable for
// the small angles that dominate anycast site discrimination (nearby sites)
// while remaining accurate antipodally.
func (c Coordinate) DistanceKm(other Coordinate) float64 {
	lat1 := c.Lat * degToRad
	lat2 := other.Lat * degToRad
	dLat := (other.Lat - c.Lat) * degToRad
	dLon := (other.Lon - c.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// MaxDistanceKm converts a round-trip time into the maximum one-way great
// circle distance the reply can have covered assuming propagation at the
// speed of light in fibre. This deliberately ignores queueing and
// processing delay, so it over-estimates the disc radius and therefore
// under-estimates the number of anycast prefixes and sites (§2.1) — it
// never produces a false "speed-of-light violation".
func MaxDistanceKm(rtt time.Duration) float64 {
	switch {
	case rtt <= 0:
		return 0
	case rtt < time.Second:
		// rtt.Seconds() is 0 + float64(rtt)/1e9 below a second: the same
		// bits, without its integer division and remainder.
		return float64(rtt) / 1e9 / 2 * FibreSpeedKmPerSec
	}
	return rtt.Seconds() / 2 * FibreSpeedKmPerSec
}

// Disc is a spherical cap: every point within RadiusKm great circle
// kilometres of Center. iGreedy represents each vantage point measurement
// as a disc that must contain the responding anycast site.
type Disc struct {
	Center   Coordinate
	RadiusKm float64
}

// Contains reports whether p lies inside the disc (boundary inclusive).
func (d Disc) Contains(p Coordinate) bool {
	return d.Center.DistanceKm(p) <= d.RadiusKm
}

// Overlaps reports whether two discs share at least one point. Two
// non-overlapping discs cannot contain the same host, which is exactly the
// speed-of-light violation iGreedy looks for.
func (d Disc) Overlaps(other Disc) bool {
	return d.Center.DistanceKm(other.Center) <= d.RadiusKm+other.RadiusKm
}

// Vec is a coordinate's unit vector on the sphere. For two coordinates a
// quarter of the squared chord between their vectors is sin²(θ/2) of the
// angle θ between them: exactly haversine's h, without its trigonometry.
type Vec struct{ X, Y, Z float64 }

// Vec returns the coordinate's unit vector. An invalid coordinate gets the
// NaN vector, which sends every Cap test it takes part in to the haversine
// reference.
func (c Coordinate) Vec() Vec {
	if !c.IsValid() {
		nan := math.NaN()
		return Vec{nan, nan, nan}
	}
	sinLat, cosLat := math.Sincos(c.Lat * degToRad)
	sinLon, cosLon := math.Sincos(c.Lon * degToRad)
	return Vec{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat}
}

// hav returns chord²/4 = sin²(θ/2) between two unit vectors.
func (u Vec) hav(v Vec) float64 {
	dx, dy, dz := u.X-v.X, u.Y-v.Y, u.Z-v.Z
	return (dx*dx + dy*dy + dz*dz) * 0.25
}

const (
	// guardBand is the relative distance between hav and its threshold
	// below which a Cap test hands the decision to the haversine
	// reference. Both forms compute sin²(θ/2) of the same float inputs;
	// they differ from the true value, and so from each other, by at most
	// a few 1e-15·√h absolute (the rounding of a vector component, or of
	// a longitude difference near ±180°, times the chord) plus a few ulps
	// relative, and the thresholds sin²(r/2R) carry a few ulps. Above
	// minFastHav a band of 1e-9·h is hundreds of times that, so outside
	// the band the sign of hav − threshold is the sign of
	// DistanceKm − radius, and inside it the reference itself is asked:
	// every decision equals the reference's.
	guardBand = 1e-9

	// minFastHav is the threshold (as sin²(r/2R); 1e-9 is r ≈ 400 m)
	// under which the absolute error term above outgrows the relative
	// band, so smaller discs always take the reference comparison. An
	// RTT-derived radius is 100 m per microsecond: nothing a census
	// measures is that small.
	minFastHav = 1e-9
)

// maxDistanceKm is the largest value DistanceKm returns for valid
// coordinates (πR as the haversine rounds it: the arcsine of a clamped h
// never exceeds Asin(1)). A radius, or sum of radii, at or past it holds
// every valid point whatever the distance, and sin(r/2R) stops growing
// with r there, so the fast comparisons are for radii below it.
var maxDistanceKm = 2 * EarthRadiusKm * math.Asin(1)

// Cap is a Disc with its geometry precomputed for many tests: build it
// once with NewCap, then Contains and Overlaps cost a handful of
// multiplications each. Their decisions are those of Disc.Contains and
// Disc.Overlaps for every input, NaN, negative and whole-Earth radii and
// invalid coordinates included.
type Cap struct {
	Disc
	U Vec // Center.Vec()

	// sin and cos of RadiusKm/2R; NaN when the radius is negative, NaN or
	// at least maxDistanceKm, which fails every fast comparison below.
	sin, cos float64
	// Contains is decided without the reference when hav falls below lo
	// or above hi: sin² ∓ guardBand; NaN (never) for a radius that is
	// negative, NaN or under minFastHav; +Inf (always inside, unless hav
	// is NaN) for a radius of at least maxDistanceKm.
	lo, hi float64
}

// NewCap precomputes d. u must be d.Center.Vec(); callers that test many
// discs around the same centre compute it once.
func NewCap(d Disc, u Vec) Cap {
	var c Cap
	c.Set(d, u)
	return c
}

// Set makes c the cap of d in place: NewCap without the copy, for callers
// that keep caps in a reused slice.
func (c *Cap) Set(d Disc, u Vec) {
	c.Disc, c.U = d, u
	c.sin, c.cos, c.lo, c.hi = math.NaN(), math.NaN(), math.NaN(), math.NaN()
	switch {
	case d.RadiusKm >= maxDistanceKm:
		c.lo, c.hi = math.Inf(1), math.Inf(1)
	case d.RadiusKm >= 0:
		c.sin, c.cos = math.Sincos(d.RadiusKm / (2 * EarthRadiusKm))
		if t := c.sin * c.sin; t >= minFastHav {
			c.lo, c.hi = t*(1-guardBand), t*(1+guardBand)
		}
	}
}

// Contains reports whether p, whose unit vector is u, lies inside the cap
// (boundary inclusive): Disc.Contains(p) without the trigonometry.
//
//laces:hotpath one call per (disc, city) and per (disc, disc) in iGreedy; multiplications only outside the guard band
func (c *Cap) Contains(p Coordinate, u Vec) bool {
	h := c.U.hav(u)
	if h < c.lo {
		return true
	}
	if h > c.hi {
		return false
	}
	return c.Disc.Contains(p)
}

// Overlaps reports whether two caps share at least one point:
// Disc.Overlaps without the trigonometry. The threshold is
// sin²((r₁+r₂)/2R) by the angle-sum identity on the precomputed halves.
//
//laces:hotpath one call per disc pair in iGreedy; multiplications only outside the guard band
func (c *Cap) Overlaps(o *Cap) bool {
	h := c.U.hav(o.U)
	if c.RadiusKm+o.RadiusKm >= maxDistanceKm {
		if !math.IsNaN(h) {
			return true // together they span any two valid points
		}
	} else {
		s := c.sin*o.cos + c.cos*o.sin
		if t := s * s; t >= minFastHav {
			if h < t*(1-guardBand) {
				return true
			}
			if h > t*(1+guardBand) {
				return false
			}
		}
	}
	return c.Disc.Overlaps(o.Disc)
}

// boundSlack narrows the guard band once more for the ByBound decisions,
// far past the few ulps by which a Taylor bound and a computed sine may
// each round the wrong way.
const boundSlack = 1e-12

// ContainsByBound is Contains for a point at hav h (see HavOf) from the
// centre of a cap of radius radiusKm, decided before the cap is built: it
// compares h with Taylor bounds on sin²(r/2R) instead of the sine. Where
// ok, inside is Contains's answer; and a point it puts inside lies inside
// by more than the guard band, as OverlapByCommonPoint asks. ok is false
// where the bounds cannot tell — h within about x⁴/60 of the threshold,
// caps too small for Contains's fast path, negative radii — and the
// caller then builds the cap.
func ContainsByBound(h, radiusKm float64) (inside, ok bool) {
	switch {
	case radiusKm >= maxDistanceKm:
		return true, !math.IsNaN(h) // the cap holds every valid point
	case !(radiusKm >= 0):
		return false, false
	}
	return belowSinSq(h, radiusKm*(1/(2*EarthRadiusKm)))
}

// OverlapsByBound is Overlaps for two caps whose radii sum to radiusSum,
// their centres at hav h, decided before either cap is built, as
// ContainsByBound decides Contains.
func OverlapsByBound(h, radiusSum float64) (overlap, ok bool) {
	switch {
	case radiusSum >= maxDistanceKm:
		return true, !math.IsNaN(h) // together they span any two valid points
	case !(radiusSum >= 0):
		return false, false
	}
	return belowSinSq(h, radiusSum*(1/(2*EarthRadiusKm)))
}

// belowSinSq decides h against the threshold t = sin²x (x in [0, π/2))
// the way a Cap's fast comparison does, h < t(1−guardBand) or
// h > t(1+guardBand), from (x − x³/6)² ≤ sin²x ≤ (x − x³/6 + x⁵/120)²
// and boundSlack; ok is false when neither holds or t may lie under
// minFastHav, where the Cap asks the haversine reference.
func belowSinSq(h, x float64) (below, ok bool) {
	x3 := x * x * x
	lo := x - x3*(1./6)
	hi := lo + x3*x*x*(1./120)
	lo, hi = lo*lo, hi*hi
	switch {
	case lo < 2*minFastHav:
		return false, false
	case h < lo*((1-guardBand)*(1-boundSlack)):
		return true, true
	case h > hi*((1+guardBand)*(1+boundSlack)):
		return false, true
	}
	return false, false
}

// OverlapByCommonPoint reports whether two caps of radii r1 and r2 that
// ContainsByBound puts one point inside are sure to pass Overlaps without
// asking it: r2 lies outside CommonPointWindow(r1). Each cap holds the
// point by more than the guard band, so by the triangle inequality their
// centres lie closer than r1+r2 by more than the band Overlaps decides in
// — except where the haversine reference loses that margin to the
// arcsine's rounding near antipodal centres, which only a radius sum a few
// metres short of maxDistanceKm can reach. Sums at or past it overlap
// outright.
func OverlapByCommonPoint(r1, r2 float64) bool {
	lo, hi := CommonPointWindow(r1)
	return r2 < lo || r2 >= hi
}

// CommonPointWindow returns the partner radii, [lo, hi), for which
// OverlapByCommonPoint(r1, ·) is false: those whose sum with r1 falls
// within a kilometre short of maxDistanceKm, or rounds to it.
func CommonPointWindow(r1 float64) (lo, hi float64) {
	return maxDistanceKm - 1 - r1, maxDistanceKm - r1 + 1e-6
}

// HavOf returns sin²(θ/2) of the angle θ between two unit vectors, the
// quantity every Cap test compares with its threshold.
func HavOf(u, v Vec) float64 { return u.hav(v) }

// Cells is a coarse cubic lattice over unit vectors: each axis of
// [-1, 1]³ cut into the same number of slabs. Every point of the sphere
// falls in one cell, and every point within an angle of a unit vector u
// falls in the cells of Box(u, angle), since an angle is never shorter
// than its chord. An index that buckets points by Of visits only those
// cells to find the points a cap may hold — with no trigonometry, no
// poles and no longitude wrap.
type Cells struct {
	n     int     // slabs per axis
	scale float64 // n/2: slab index of a coordinate x is ⌊(x+1)·scale⌋
}

// NewCells returns the lattice of n slabs per axis (n ≥ 1).
func NewCells(n int) Cells { return Cells{n: n, scale: float64(n) / 2} }

// Len returns the number of cells, n³; Of and Index return values below it.
func (g Cells) Len() int { return g.n * g.n * g.n }

// Index returns the cell of slab x, y and z.
func (g Cells) Index(x, y, z int) int { return (x*g.n+y)*g.n + z }

// slab is the slab of coordinate x, clamped to the lattice. It is
// monotone in x, which is what lets a box drawn around a point's
// coordinates hold every point whose coordinates lie within the box.
func (g Cells) slab(x float64) int {
	i := int((x + 1) * g.scale) // truncation toward zero only differs from ⌊⌋ below 0, where the clamp decides
	return min(max(i, 0), g.n-1)
}

// Of returns the cell of unit vector u. u must not hold a NaN.
func (g Cells) Of(u Vec) int { return g.Index(g.slab(u.X), g.slab(u.Y), g.slab(u.Z)) }

// cellSlack widens a box beyond the angle it is drawn for, far past the
// rounding of a unit vector or of an angle computed from a radius.
const cellSlack = 1e-6

// Box returns the slab ranges, inclusive, of every cell that may hold a
// point within angle radians of u: per axis, the slabs of u's coordinate
// ∓ the angle, widened by cellSlack. A negative angle holds nothing and
// gives an empty range; angle and u must not be NaN.
func (g Cells) Box(u Vec, angle float64) (lo, hi [3]int) {
	if angle < 0 {
		return [3]int{1, 1, 1}, [3]int{0, 0, 0}
	}
	a := angle + cellSlack
	lo = [3]int{g.slab(u.X - a), g.slab(u.Y - a), g.slab(u.Z - a)}
	hi = [3]int{g.slab(u.X + a), g.slab(u.Y + a), g.slab(u.Z + a)}
	return lo, hi
}

// Midpoint returns the coordinate halfway along the great circle segment
// between a and b. Used by the simulator to place intermediate
// infrastructure and by tests.
func Midpoint(a, b Coordinate) Coordinate {
	lat1 := a.Lat * degToRad
	lon1 := a.Lon * degToRad
	lat2 := b.Lat * degToRad
	lon2 := b.Lon * degToRad

	bx := math.Cos(lat2) * math.Cos(lon2-lon1)
	by := math.Cos(lat2) * math.Sin(lon2-lon1)
	lat := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon := lon1 + math.Atan2(by, math.Cos(lat1)+bx)

	// Normalise longitude to [-180, 180].
	lonDeg := math.Mod(lon/degToRad+540, 360) - 180
	return Coordinate{Lat: lat / degToRad, Lon: lonDeg}
}
