package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// Reference city coordinates used across the geo tests.
var (
	amsterdam = Coordinate{Lat: 52.3676, Lon: 4.9041}
	newYork   = Coordinate{Lat: 40.7128, Lon: -74.0060}
	sydney    = Coordinate{Lat: -33.8688, Lon: 151.2093}
	saoPaulo  = Coordinate{Lat: -23.5505, Lon: -46.6333}
	tokyo     = Coordinate{Lat: 35.6762, Lon: 139.6503}
	london    = Coordinate{Lat: 51.5074, Lon: -0.1278}
)

func TestDistanceKnownPairs(t *testing.T) {
	// Expected values computed from published great circle distances;
	// tolerance 1% absorbs the spherical-Earth approximation.
	cases := []struct {
		name string
		a, b Coordinate
		want float64
	}{
		{"AMS-NYC", amsterdam, newYork, 5863},
		{"AMS-LHR", amsterdam, london, 358},
		{"NYC-SYD", newYork, sydney, 15990},
		{"GRU-NRT", saoPaulo, tokyo, 18530},
		{"same", tokyo, tokyo, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a.DistanceKm(tc.b)
			if tc.want == 0 {
				if got != 0 {
					t.Fatalf("DistanceKm = %v, want 0", got)
				}
				return
			}
			if math.Abs(got-tc.want)/tc.want > 0.01 {
				t.Fatalf("DistanceKm = %.0f, want %.0f ±1%%", got, tc.want)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := clampCoord(lat1, lon1)
		b := clampCoord(lat2, lon2)
		d1 := a.DistanceKm(b)
		d2 := b.DistanceKm(a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceNonNegativeAndBounded(t *testing.T) {
	half := math.Pi * EarthRadiusKm // half Earth circumference
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := clampCoord(lat1, lon1)
		b := clampCoord(lat2, lon2)
		d := a.DistanceKm(b)
		return d >= 0 && d <= half+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceIdentity(t *testing.T) {
	f := func(lat, lon float64) bool {
		a := clampCoord(lat, lon)
		return a.DistanceKm(a) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := clampCoord(lat1, lon1)
		b := clampCoord(lat2, lon2)
		c := clampCoord(lat3, lon3)
		// Allow a small epsilon for floating point error.
		return a.DistanceKm(c) <= a.DistanceKm(b)+b.DistanceKm(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinateValidity(t *testing.T) {
	valid := []Coordinate{{0, 0}, {90, 180}, {-90, -180}, amsterdam}
	for _, c := range valid {
		if !c.IsValid() {
			t.Errorf("IsValid(%v) = false, want true", c)
		}
	}
	invalid := []Coordinate{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}}
	for _, c := range invalid {
		if c.IsValid() {
			t.Errorf("IsValid(%v) = true, want false", c)
		}
	}
}

func TestMaxDistanceKm(t *testing.T) {
	// 100 ms RTT → 50 ms one-way → 10,000 km at 200,000 km/s.
	got := MaxDistanceKm(100 * time.Millisecond)
	if math.Abs(got-10000) > 1e-6 {
		t.Fatalf("MaxDistanceKm(100ms) = %v, want 10000", got)
	}
	if MaxDistanceKm(0) != 0 {
		t.Fatal("MaxDistanceKm(0) should be 0")
	}
	if MaxDistanceKm(-time.Second) != 0 {
		t.Fatal("MaxDistanceKm(negative) should be 0")
	}
}

func TestMinRTTInverseOfMaxDistance(t *testing.T) {
	f := func(ms uint16) bool {
		rtt := time.Duration(ms) * time.Millisecond
		d := MaxDistanceKm(rtt)
		back := MinRTT(d)
		return absDuration(back-rtt) < time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiscContains(t *testing.T) {
	d := Disc{Center: amsterdam, RadiusKm: 400}
	if !d.Contains(london) {
		t.Error("Amsterdam disc of 400km should contain London (~358km)")
	}
	if d.Contains(newYork) {
		t.Error("Amsterdam disc of 400km should not contain New York")
	}
	if !d.Contains(amsterdam) {
		t.Error("disc should contain its own center")
	}
}

func TestDiscOverlaps(t *testing.T) {
	a := Disc{Center: amsterdam, RadiusKm: 200}
	b := Disc{Center: london, RadiusKm: 200}
	if !a.Overlaps(b) {
		t.Error("AMS(200km) and LHR(200km) should overlap (~358km apart)")
	}
	c := Disc{Center: newYork, RadiusKm: 1000}
	if a.Overlaps(c) {
		t.Error("AMS(200km) and NYC(1000km) should not overlap (~5863km apart)")
	}
	// Overlap must be symmetric.
	f := func(lat1, lon1, r1, lat2, lon2, r2 float64) bool {
		d1 := Disc{Center: clampCoord(lat1, lon1), RadiusKm: math.Abs(math.Mod(r1, 20000))}
		d2 := Disc{Center: clampCoord(lat2, lon2), RadiusKm: math.Abs(math.Mod(r2, 20000))}
		return d1.Overlaps(d2) == d2.Overlaps(d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiscOverlapImpliedByContainment(t *testing.T) {
	// If both discs contain a common point, they must overlap.
	f := func(lat, lon float64, r1, r2 float64) bool {
		p := clampCoord(lat, lon)
		rad1 := 1 + math.Abs(math.Mod(r1, 5000))
		rad2 := 1 + math.Abs(math.Mod(r2, 5000))
		d1 := Disc{Center: p, RadiusKm: rad1}
		d2 := Disc{Center: Midpoint(p, amsterdam), RadiusKm: rad2}
		if d1.Contains(p) && d2.Contains(p) {
			return d1.Overlaps(d2)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(amsterdam, london)
	// Midpoint must be (half-way ± small epsilon) from both endpoints.
	da := amsterdam.DistanceKm(m)
	db := london.DistanceKm(m)
	if math.Abs(da-db) > 1 {
		t.Fatalf("midpoint unbalanced: %0.1f vs %0.1f km", da, db)
	}
	total := amsterdam.DistanceKm(london)
	if math.Abs(da+db-total) > 1 {
		t.Fatalf("midpoint off the great circle: %0.1f+%0.1f != %0.1f", da, db, total)
	}
	if !m.IsValid() {
		t.Fatalf("midpoint %v out of range", m)
	}
}

func TestMidpointValidRange(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := clampCoord(lat1, lon1)
		b := clampCoord(lat2, lon2)
		return Midpoint(a, b).IsValid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// clampCoord maps arbitrary float inputs from testing/quick into valid
// coordinates, keeping NaN/Inf out.
func clampCoord(lat, lon float64) Coordinate {
	if math.IsNaN(lat) || math.IsInf(lat, 0) {
		lat = 0
	}
	if math.IsNaN(lon) || math.IsInf(lon, 0) {
		lon = 0
	}
	lat = math.Mod(lat, 90)
	lon = math.Mod(lon, 180)
	return Coordinate{Lat: lat, Lon: lon}
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func BenchmarkDistanceKm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = amsterdam.DistanceKm(sydney)
	}
}

// MinRTT returns the smallest physically possible round-trip time for a
// target at the given one-way distance: the inverse of MaxDistanceKm.
func MinRTT(distanceKm float64) time.Duration {
	if distanceKm <= 0 {
		return 0
	}
	return time.Duration(distanceKm * 2 / FibreSpeedKmPerSec * float64(time.Second))
}
