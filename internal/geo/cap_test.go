package geo

import (
	"math"
	"math/rand"
	"testing"
)

// capCase is one (disc, disc) pair: both predicates are checked on it,
// Contains with the second centre as the point.
type capCase struct {
	lat1, lon1, r1 float64
	lat2, lon2, r2 float64
}

// agree reports whether the Cap predicates decide c as the haversine
// reference does, in both directions.
func agree(c capCase) (ok bool, what string) {
	a := Disc{Center: Coordinate{c.lat1, c.lon1}, RadiusKm: c.r1}
	b := Disc{Center: Coordinate{c.lat2, c.lon2}, RadiusKm: c.r2}
	ca, cb := NewCap(a, a.Center.Vec()), NewCap(b, b.Center.Vec())
	switch {
	case ca.Contains(b.Center, cb.U) != a.Contains(b.Center):
		return false, "a.Contains(b.Center)"
	case cb.Contains(a.Center, ca.U) != b.Contains(a.Center):
		return false, "b.Contains(a.Center)"
	case ca.Overlaps(&cb) != a.Overlaps(b):
		return false, "a.Overlaps(b)"
	case cb.Overlaps(&ca) != b.Overlaps(a):
		return false, "b.Overlaps(a)"
	}
	return true, ""
}

// adversarialCapCases are the inputs where a trig-free form is most likely
// to part from haversine: points exactly on a boundary, degenerate radii,
// the places where longitude wraps or stops mattering, whole-Earth discs
// and values no census produces but an API caller can.
func adversarialCapCases() []capCase {
	nan, inf := math.NaN(), math.Inf(1)
	ams, syd := amsterdam, sydney
	d := ams.DistanceKm(syd)
	// The radius a measurement gives a host exactly d away: the boundary
	// as iGreedy meets it, after the round trip through a Duration.
	rtt := MaxDistanceKm(MinRTT(d))
	cases := []capCase{
		// on and next to the boundary
		{ams.Lat, ams.Lon, d, syd.Lat, syd.Lon, 0},
		{ams.Lat, ams.Lon, math.Nextafter(d, 0), syd.Lat, syd.Lon, 0},
		{ams.Lat, ams.Lon, math.Nextafter(d, inf), syd.Lat, syd.Lon, 0},
		{ams.Lat, ams.Lon, rtt, syd.Lat, syd.Lon, 0},
		{ams.Lat, ams.Lon, d / 2, syd.Lat, syd.Lon, d / 2},
		{ams.Lat, ams.Lon, d / 3, syd.Lat, syd.Lon, d - d/3},
		{ams.Lat, ams.Lon, rtt / 2, syd.Lat, syd.Lon, rtt / 2},
		// radius 0 and identical points
		{ams.Lat, ams.Lon, 0, ams.Lat, ams.Lon, 0},
		{ams.Lat, ams.Lon, 0, syd.Lat, syd.Lon, 0},
		{ams.Lat, ams.Lon, 1e-9, ams.Lat, ams.Lon, 1e-9},
		{ams.Lat, ams.Lon, 500, ams.Lat, ams.Lon, 3},
		{0, 0, 0, 0, 0, 0},
		// antipodes
		{0, 0, halfTurn, 0, 180, 0},
		{0, 0, math.Nextafter(halfTurn, 0), 0, 180, 0},
		{52, 4, halfTurn / 2, -52, -176, halfTurn / 2},
		{52, 4, 10000, -52, -176, 10015},
		{52, 4, 10000, -52, -176, 10016},
		// poles: longitude is meaningless there
		{90, 0, 100, 90, 137, 0},
		{90, -45, 0, 90, 45, 0},
		{-90, 0, 1, -90, 180, 1},
		{90, 0, halfTurn, -90, 0, 0},
		{89.9999999, 0, 0.01, 89.9999999, 180, 0.01},
		// the ±180° dateline
		{10, 180, 0, 10, -180, 0},
		{10, 179.9999999, 0.02, 10, -179.9999999, 0},
		{10, 179.9999999, 0.01, 10, -179.9999999, 0.01},
		{0, 179, 111, 0, -179, 111.5},
		{-33, 180, 5000, -33, -180, 5000},
		// radius at or past πR
		{ams.Lat, ams.Lon, halfTurn, syd.Lat, syd.Lon, 0},
		{ams.Lat, ams.Lon, 25000, syd.Lat, syd.Lon, 1},
		{ams.Lat, ams.Lon, 12000, syd.Lat, syd.Lon, 12000},
		{ams.Lat, ams.Lon, inf, syd.Lat, syd.Lon, -1},
		{ams.Lat, ams.Lon, math.MaxFloat64, syd.Lat, syd.Lon, math.MaxFloat64},
		{0, 0, halfTurn, 0, 180, -1e-3},
		// NaN and negative radii
		{ams.Lat, ams.Lon, nan, syd.Lat, syd.Lon, 100},
		{ams.Lat, ams.Lon, nan, ams.Lat, ams.Lon, nan},
		{ams.Lat, ams.Lon, -1, ams.Lat, ams.Lon, 2},
		{ams.Lat, ams.Lon, -1, ams.Lat, ams.Lon, -1},
		{ams.Lat, ams.Lon, math.Copysign(0, -1), ams.Lat, ams.Lon, 0},
		{ams.Lat, ams.Lon, -inf, syd.Lat, syd.Lon, inf},
		// coordinates outside the valid range
		{nan, 0, 100, 0, 0, 100},
		{0, nan, 25000, 0, 0, 25000},
		{100, 0, 3000, 80, 180, 3000},
		{100, 0, 25000, 120, 77, 0},
		{0, 540, 100, 0, 180, 100},
		{inf, 0, 100, 0, -inf, 100},
	}
	// Metre-scale geometry, where a chord's rounding is large against it.
	for _, m := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5} {
		p := Coordinate{Lat: ams.Lat + m/111, Lon: ams.Lon}
		dm := ams.DistanceKm(p)
		cases = append(cases,
			capCase{ams.Lat, ams.Lon, dm, p.Lat, p.Lon, 0},
			capCase{ams.Lat, ams.Lon, math.Nextafter(dm, 0), p.Lat, p.Lon, 0},
			capCase{ams.Lat, ams.Lon, dm / 2, p.Lat, p.Lon, dm / 2},
			capCase{ams.Lat, 179.99999999, dm, p.Lat, -179.99999999, dm / 7},
		)
	}
	return cases
}

const halfTurn = math.Pi * EarthRadiusKm

func TestCapAdversarialCases(t *testing.T) {
	for _, c := range adversarialCapCases() {
		if ok, what := agree(c); !ok {
			t.Errorf("%s differs from the haversine reference on %+v", what, c)
		}
	}
}

// randomCapCase draws a pair the way the predicates are stressed rather
// than the way a census draws them: points anywhere or close together,
// radii across nine decades, and — two times in three — a radius placed
// within a relative 1e-13 … 1e-6 of the exact boundary, both sides of the
// guard band and well inside it.
func randomCapCase(rng *rand.Rand) capCase {
	point := func() (lat, lon float64) {
		return math.Asin(2*rng.Float64()-1) / degToRad, 360*rng.Float64() - 180
	}
	var c capCase
	c.lat1, c.lon1 = point()
	switch rng.Intn(4) {
	case 0: // neighbours, down to metres apart
		span := math.Pow(10, -7+8*rng.Float64()) // degrees
		c.lat2 = math.Max(-90, math.Min(90, c.lat1+span*(2*rng.Float64()-1)))
		c.lon2 = math.Max(-180, math.Min(180, c.lon1+span*(2*rng.Float64()-1)))
	case 1: // near the antipode
		c.lat2 = -c.lat1 + 1e-3*(2*rng.Float64()-1)
		c.lon2 = c.lon1 + 180
		if c.lon2 > 180 {
			c.lon2 -= 360
		}
		c.lat2 = math.Max(-90, math.Min(90, c.lat2))
	default:
		c.lat2, c.lon2 = point()
	}
	radius := func() float64 { return math.Pow(10, -4+8.5*rng.Float64()) } // 0.1 m … 31,600 km
	c.r1, c.r2 = radius(), radius()
	d := Coordinate{c.lat1, c.lon1}.DistanceKm(Coordinate{c.lat2, c.lon2})
	near := d * (1 + math.Copysign(math.Pow(10, -13+7*rng.Float64()), rng.Float64()-0.5))
	switch rng.Intn(3) {
	case 0: // the point sits on the first disc's rim
		c.r1 = near
	case 1: // the two discs touch
		c.r1 = near * rng.Float64()
		c.r2 = near - c.r1
	}
	return c
}

// TestCapMatchesHaversine is the contract of the trig-free predicates:
// the same decision as the haversine form on every input.
func TestCapMatchesHaversine(t *testing.T) {
	n := 1_200_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(20251001))
	for i := 0; i < n; i++ {
		c := randomCapCase(rng)
		if ok, what := agree(c); !ok {
			t.Fatalf("pair %d: %s differs from the haversine reference on %+v", i, what, c)
		}
	}
}

// TestCapDecidesWithoutReference guards the point of the exercise: on
// census-like geometry the fast comparison must settle nearly every test
// itself; a guard band or floor grown too wide would be exact and slow.
func TestCapDecidesWithoutReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fast, total := 0, 200_000
	for i := 0; i < total; i++ {
		a := Coordinate{math.Asin(2*rng.Float64()-1) / degToRad, 360*rng.Float64() - 180}
		b := Coordinate{math.Asin(2*rng.Float64()-1) / degToRad, 360*rng.Float64() - 180}
		ca := NewCap(Disc{a, MaxDistanceKm(MinRTT(50 + 15000*rng.Float64()))}, a.Vec())
		h := ca.U.hav(b.Vec())
		if h < ca.lo || h > ca.hi {
			fast++
		}
	}
	if fast < total*999/1000 {
		t.Fatalf("only %d of %d containment tests were decided without the reference", fast, total)
	}
}

// FuzzDiscPredicates lets the fuzzer hunt for any input — valid or not —
// on which a Cap predicate and its haversine reference disagree.
func FuzzDiscPredicates(f *testing.F) {
	for _, c := range adversarialCapCases() {
		f.Add(c.lat1, c.lon1, c.r1, c.lat2, c.lon2, c.r2)
	}
	f.Fuzz(func(t *testing.T, lat1, lon1, r1, lat2, lon2, r2 float64) {
		c := capCase{lat1, lon1, r1, lat2, lon2, r2}
		if ok, what := agree(c); !ok {
			t.Fatalf("%s differs from the haversine reference on %+v", what, c)
		}
	})
}

func TestVecIsUnit(t *testing.T) {
	for _, c := range []Coordinate{amsterdam, sydney, {90, 0}, {-90, 33}, {0, 180}, {0, -180}, {}} {
		u := c.Vec()
		if n := u.X*u.X + u.Y*u.Y + u.Z*u.Z; math.Abs(n-1) > 1e-15 {
			t.Errorf("|Vec(%v)|² = %v", c, n)
		}
	}
	if u := (Coordinate{Lat: 91}).Vec(); !math.IsNaN(u.X) {
		t.Errorf("Vec of an invalid coordinate = %+v, want NaN", u)
	}
}

func BenchmarkCapContains(b *testing.B) {
	c := NewCap(Disc{amsterdam, 9000}, amsterdam.Vec())
	u := sydney.Vec()
	for i := 0; i < b.N; i++ {
		c.Contains(sydney, u)
	}
}

func BenchmarkCapOverlaps(b *testing.B) {
	c := NewCap(Disc{amsterdam, 4000}, amsterdam.Vec())
	o := NewCap(Disc{sydney, 3000}, sydney.Vec())
	for i := 0; i < b.N; i++ {
		c.Overlaps(&o)
	}
}
