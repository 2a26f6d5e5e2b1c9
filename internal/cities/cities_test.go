package cities

import (
	"testing"
	"testing/quick"

	"github.com/laces-project/laces/internal/geo"
)

func TestDefaultDBBasics(t *testing.T) {
	db := Default()
	if db.Len() < 200 {
		t.Fatalf("expected at least 200 cities, got %d", db.Len())
	}
	for _, c := range db.All() {
		if c.Name == "" || c.Country == "" {
			t.Errorf("city with empty name/country: %+v", c)
		}
		if !c.Location.IsValid() {
			t.Errorf("city %s has invalid coordinates %v", c, c.Location)
		}
		if c.Population <= 0 {
			t.Errorf("city %s has non-positive population", c)
		}
		if c.Continent > Oceania {
			t.Errorf("city %s has unknown continent %d", c, c.Continent)
		}
	}
}

func TestEveryContinentPopulated(t *testing.T) {
	db := Default()
	for _, ct := range Continents() {
		got := db.InContinent(ct)
		if len(got) < 10 {
			t.Errorf("continent %s has only %d cities, want >= 10", ct, len(got))
		}
		// Sorted by descending population.
		for i := 1; i < len(got); i++ {
			if got[i].Population > got[i-1].Population {
				t.Fatalf("InContinent(%s) not sorted: %s > %s", ct, got[i], got[i-1])
			}
		}
	}
}

func TestByName(t *testing.T) {
	db := Default()
	ams, ok := db.ByName("Amsterdam")
	if !ok {
		t.Fatal("Amsterdam not found")
	}
	if ams.Country != "NL" || ams.Continent != Europe {
		t.Fatalf("unexpected Amsterdam entry: %+v", ams)
	}
	if _, ok := db.ByName("Atlantis"); ok {
		t.Fatal("found nonexistent city")
	}
}

func TestVultrMetrosResolve(t *testing.T) {
	db := Default()
	metros := VultrMetros()
	if len(metros) != 32 {
		t.Fatalf("TANGLED should have 32 sites, got %d", len(metros))
	}
	countries := map[string]bool{}
	continents := map[Continent]bool{}
	for _, name := range metros {
		c, ok := db.ByName(name)
		if !ok {
			t.Errorf("Vultr metro %q missing from DB", name)
			continue
		}
		countries[c.Country] = true
		continents[c.Continent] = true
	}
	// Paper: "located in 19 countries on 6 continents".
	if len(countries) < 15 {
		t.Errorf("Vultr metros span %d countries, want many (paper: 19)", len(countries))
	}
	if len(continents) != 6 {
		t.Errorf("Vultr metros span %d continents, want 6", len(continents))
	}
}

func TestNearest(t *testing.T) {
	db := Default()
	got, d, ok := db.Nearest(geo.Coordinate{Lat: 52.4, Lon: 4.9})
	if !ok {
		t.Fatal("Nearest returned no city")
	}
	if got.Name != "Amsterdam" {
		t.Fatalf("Nearest(near AMS) = %s, want Amsterdam", got)
	}
	if d > 20 {
		t.Fatalf("Nearest distance = %v km, want < 20", d)
	}
}

func TestNearestEmptyDB(t *testing.T) {
	db := NewDB(nil)
	if _, _, ok := db.Nearest(geo.Coordinate{}); ok {
		t.Fatal("empty DB should report no nearest city")
	}
	if _, ok := db.HighestPopulationIn(geo.Disc{RadiusKm: 1e9}); ok {
		t.Fatal("empty DB should report no city in disc")
	}
}

func TestHighestPopulationIn(t *testing.T) {
	db := Default()
	ams, _ := db.ByName("Amsterdam")
	// A 400 km disc around Amsterdam includes London (pop 9.6M) which beats
	// every Dutch/Belgian/German city within range.
	got, ok := db.HighestPopulationIn(geo.Disc{Center: ams.Location, RadiusKm: 400})
	if !ok {
		t.Fatal("no city found in disc")
	}
	if got.Name != "London" {
		t.Fatalf("HighestPopulationIn(AMS,400km) = %s, want London", got)
	}
	// A tiny disc selects Amsterdam itself.
	got, ok = db.HighestPopulationIn(geo.Disc{Center: ams.Location, RadiusKm: 10})
	if !ok || got.Name != "Amsterdam" {
		t.Fatalf("HighestPopulationIn(AMS,10km) = %v, want Amsterdam", got)
	}
	// A disc in the middle of the Pacific contains nothing.
	if _, ok := db.HighestPopulationIn(geo.Disc{Center: geo.Coordinate{Lat: -40, Lon: -130}, RadiusKm: 500}); ok {
		t.Fatal("expected empty disc in South Pacific")
	}
}

func TestHighestPopulationInIsInDisc(t *testing.T) {
	db := Default()
	f := func(lat, lon float64, r uint16) bool {
		d := geo.Disc{
			Center:   geo.Coordinate{Lat: float64(int(lat) % 90), Lon: float64(int(lon) % 180)},
			RadiusKm: float64(r%5000) + 1,
		}
		c, ok := db.HighestPopulationIn(d)
		if !ok {
			return true
		}
		return d.Contains(c.Location)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewDBDuplicateNames(t *testing.T) {
	a := City{Name: "X", Country: "AA", Location: geo.Coordinate{Lat: 1}, Population: 10}
	b := City{Name: "X", Country: "BB", Location: geo.Coordinate{Lat: 2}, Population: 20}
	db := NewDB([]City{a, b})
	got, ok := db.ByName("X")
	if !ok || got.Country != "AA" {
		t.Fatalf("duplicate name lookup should return first entry, got %+v", got)
	}
	if db.Len() != 2 {
		t.Fatalf("both entries should remain in list, got %d", db.Len())
	}
}

func TestContinentString(t *testing.T) {
	want := map[Continent]string{
		NorthAmerica: "NA", SouthAmerica: "SA", Europe: "EU",
		Africa: "AF", Asia: "AS", Oceania: "OC",
	}
	for ct, s := range want {
		if ct.String() != s {
			t.Errorf("Continent(%d).String() = %q, want %q", ct, ct.String(), s)
		}
	}
	if Continent(42).String() != "Continent(42)" {
		t.Errorf("unknown continent formatting broken: %s", Continent(42))
	}
}

func BenchmarkHighestPopulationIn(b *testing.B) {
	db := Default()
	d := geo.Disc{Center: geo.Coordinate{Lat: 50, Lon: 8}, RadiusKm: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.HighestPopulationIn(d)
	}
}
