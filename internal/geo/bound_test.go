package geo

import (
	"math"
	"math/rand"
	"testing"
)

// randomPoint draws a point uniformly over the sphere.
func randomPoint(rng *rand.Rand) Coordinate {
	return Coordinate{Lat: math.Asin(2*rng.Float64()-1) / degToRad, Lon: 360*rng.Float64() - 180}
}

// pointAt returns the point at angle θ (radians) from c along bearing β.
func pointAt(c Coordinate, theta, beta float64) Coordinate {
	lat1, lon1 := c.Lat*degToRad, c.Lon*degToRad
	lat := math.Asin(math.Sin(lat1)*math.Cos(theta) + math.Cos(lat1)*math.Sin(theta)*math.Cos(beta))
	lon := lon1 + math.Atan2(math.Sin(beta)*math.Sin(theta)*math.Cos(lat1), math.Cos(theta)-math.Sin(lat1)*math.Sin(lat))
	return Coordinate{Lat: lat / degToRad, Lon: math.Mod(lon/degToRad+540, 360) - 180}
}

// radiusNear returns a radius around d: at it, a hair inside or outside,
// or well either side, from metres to past the whole Earth.
func radiusNear(rng *rand.Rand, d float64) float64 {
	switch rng.Intn(4) {
	case 0:
		return d
	case 1:
		return d * (1 + (rng.Float64()-0.5)*1e-8)
	case 2:
		return d * (1 + (rng.Float64()-0.5)*0.2)
	}
	return math.Pow(10, -3+8*rng.Float64())
}

// TestDecisionsByBound holds the trigonometry-free decisions to the Cap's:
// where ContainsByBound and OverlapsByBound answer, they answer as
// Contains and Overlaps do, a point put inside lies inside by more than
// the guard band, and they answer for most pairs that are not near the
// threshold.
func TestDecisionsByBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var clear, answered int
	for i := 0; i < 200_000; i++ {
		c, p := randomPoint(rng), randomPoint(rng)
		d := c.DistanceKm(p)
		r1 := radiusNear(rng, d)
		cp, pu := NewCap(Disc{Center: c, RadiusKm: r1}, c.Vec()), p.Vec()
		h := HavOf(cp.U, pu)
		if inside, ok := ContainsByBound(h, r1); ok {
			if inside != cp.Contains(p, pu) {
				t.Fatalf("ContainsByBound(%v in the %v km cap around %v) = %v; Contains says otherwise", p, r1, c, inside)
			}
			if inside && !(h < cp.lo) {
				t.Fatalf("ContainsByBound puts %v inside the %v km cap around %v, not by the guard band", p, r1, c)
			}
		}
		r2 := radiusNear(rng, d) * rng.Float64()
		r1 -= r2
		a, b := NewCap(Disc{Center: c, RadiusKm: r1}, c.Vec()), NewCap(Disc{Center: p, RadiusKm: r2}, pu)
		overlap, ok := OverlapsByBound(h, r1+r2)
		if ok && overlap != a.Overlaps(&b) {
			t.Fatalf("OverlapsByBound(%v ±%v km, %v ±%v km) = %v; Overlaps says otherwise", c, r1, p, r2, overlap)
		}
		if r1 >= 0 && math.Abs(d-(r1+r2)) > 0.01*d && d > 100 {
			clear++
			if ok {
				answered++
			}
		}
	}
	if answered < clear*3/4 {
		t.Errorf("OverlapsByBound answers %d of the %d pairs a per cent away from touching: it leaves too many to the Cap", answered, clear)
	}
}

// TestOverlapByCommonPoint holds the premise the witness scan and the
// enumeration's first pass skip tests on: two caps that ContainsByBound
// puts one point inside, with radii outside each other's
// CommonPointWindow, pass Overlaps. Half the pairs are drawn around
// nearly antipodal centres with the point between them, so that their
// radii sum to about half the circumference.
func TestOverlapByCommonPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var vouched [2]int // by i%2: random partners, nearly antipodal ones
	for i := 0; i < 400_000; i++ {
		p := randomPoint(rng)
		a := pointAt(p, rng.Float64()*math.Pi, 2*math.Pi*rng.Float64())
		b := randomPoint(rng)
		if i%2 == 0 { // b across p from a, nearly antipodal to it
			theta := math.Pi - p.DistanceKm(a)/EarthRadiusKm - rng.Float64()*1e-6
			b = pointAt(p, theta, bearing(p, a)+math.Pi)
		}
		// Radii from a hair to a few per cent over the distance to p.
		ra := p.DistanceKm(a)*(1+math.Pow(10, -8+6.5*rng.Float64())) + 1e-3*rng.Float64()
		rb := p.DistanceKm(b)*(1+math.Pow(10, -8+6.5*rng.Float64())) + 1e-3*rng.Float64()
		ca, cb := NewCap(Disc{Center: a, RadiusKm: ra}, a.Vec()), NewCap(Disc{Center: b, RadiusKm: rb}, b.Vec())
		u := p.Vec()
		inA, okA := ContainsByBound(HavOf(ca.U, u), ra)
		inB, okB := ContainsByBound(HavOf(cb.U, u), rb)
		if !inA || !okA || !inB || !okB || !OverlapByCommonPoint(ra, rb) {
			continue
		}
		vouched[i%2]++
		if !ca.Overlaps(&cb) || !cb.Overlaps(&ca) {
			t.Fatalf("caps %v ±%v km and %v ±%v km both hold %v by ContainsByBound, yet Overlaps says they are disjoint", a, ra, b, rb, p)
		}
	}
	if vouched[0] < 1000 || vouched[1] < 1000 {
		t.Errorf("only %d nearly antipodal and %d random pairs reached the check", vouched[0], vouched[1])
	}
}

// bearing returns the initial bearing, radians, from c towards d.
func bearing(c, d Coordinate) float64 {
	lat1, lat2 := c.Lat*degToRad, d.Lat*degToRad
	dLon := (d.Lon - c.Lon) * degToRad
	return math.Atan2(math.Sin(dLon)*math.Cos(lat2), math.Cos(lat1)*math.Sin(lat2)-math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon))
}

// TestCellsBoxHoldsCap holds Cells.Box to its promise: every point within
// the angle of u — on the rim too, near the poles and across ±180° — falls
// in a cell of the box.
func TestCellsBoxHoldsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []Cells{NewCells(1), NewCells(8), NewCells(16)} {
		for i := 0; i < 50_000; i++ {
			c := randomPoint(rng)
			switch i % 5 {
			case 0:
				c.Lat = math.Copysign(90-rng.Float64()*1e-3, c.Lat)
			case 1:
				c.Lon = math.Copysign(180, c.Lon)
			}
			angle := math.Pow(10, -6+6.5*rng.Float64())
			theta := angle
			if i%2 == 0 {
				theta *= rng.Float64()
			}
			p := pointAt(c, theta, 2*math.Pi*rng.Float64())
			if c.DistanceKm(p) > angle*EarthRadiusKm {
				continue // the rim rounded outward
			}
			lo, hi := g.Box(c.Vec(), angle)
			cell := g.Of(p.Vec())
			x, y, z := cell/(g.n*g.n), cell/g.n%g.n, cell%g.n
			if x < lo[0] || x > hi[0] || y < lo[1] || y > hi[1] || z < lo[2] || z > hi[2] {
				t.Fatalf("%d slabs: %v lies %v rad from %v, in cell (%d,%d,%d), outside the box %v–%v of angle %v", g.n, p, theta, c, x, y, z, lo, hi, angle)
			}
		}
	}
}
