package netsim

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/cities"
)

// The reference placement below is the implementation that re-copied and
// re-sorted the city DB on every call and recomputed both cities' scores
// inside the sort comparator. It is kept verbatim (as functions of w) so
// the precomputed pools and scores are pinned to it.

func refPickSitesBiased(w *World, pool []cities.City, n int, spacingKm float64, salt uint64, bias float64) []Site {
	scored := make([]cities.City, len(pool))
	copy(scored, pool)
	score := func(c cities.City) float64 {
		h := mix(w.seed, salt, hashString(c.Name))
		return (0.2 + unitFloat(h)) * math.Pow(float64(c.Population), bias)
	}
	sort.Slice(scored, func(i, j int) bool { return score(scored[i]) > score(scored[j]) })
	return refPickSites(w, scored, n, spacingKm)
}

func refPickSites(w *World, pool []cities.City, n int, minSpacingKm float64) []Site {
	if minSpacingKm <= 0 {
		minSpacingKm = 400
	}
	var out []Site
	for _, c := range pool {
		if len(out) >= n {
			return out
		}
		ok := true
		for _, s := range out {
			if s.City.Location.DistanceKm(c.Location) < minSpacingKm {
				ok = false
				break
			}
		}
		if ok {
			idx, _ := w.cityIndex(c.Name)
			out = append(out, Site{City: c, CityIdx: idx})
		}
	}
	for i := 0; len(out) < n && len(pool) > 0; i++ {
		c := pool[i%len(pool)]
		idx, _ := w.cityIndex(c.Name)
		out = append(out, Site{City: c, CityIdx: idx})
	}
	return out
}

func refGlobalPool(w *World) []cities.City {
	var pool []cities.City
	pool = append(pool, w.DB.All()...)
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].Population != pool[j].Population {
			return pool[i].Population > pool[j].Population
		}
		return pool[i].Name < pool[j].Name
	})
	return pool
}

func refSmallGlobalSites(w *World, ns int, h uint64) []Site {
	cs := cities.Continents()
	start := pick(h, len(cs))
	var out []Site
	for k := 0; len(out) < ns && k < len(cs); k++ {
		ct := cs[(start+k)%len(cs)]
		pool := w.DB.InContinent(ct)
		if len(pool) == 0 {
			continue
		}
		c := pool[pick(mix(h, uint64(k)), min(8, len(pool)))]
		idx, _ := w.cityIndex(c.Name)
		out = append(out, Site{City: c, CityIdx: idx})
	}
	return out
}

// refGenericSites is generic deployment i's placement as derivation ran
// it per call.
func refGenericSites(w *World, v6 bool, i int) []Site {
	nMedium, nSmall := w.Cfg.MediumAnycast, w.Cfg.SmallAnycast
	fam := uint64(4)
	if v6 {
		nMedium, nSmall, fam = nMedium/3, nSmall/3, 6
	}
	h := mix(w.seed, fam, 0x9e9e, uint64(i))
	switch {
	case i < nMedium:
		ns := 4 + pick(h, 13)
		return refPickSitesBiased(w, refGlobalPool(w), ns, 400, h, 0.25)
	case i < nMedium+nSmall:
		ns := 2 + pick(h, 2)
		return refSmallGlobalSites(w, ns, h)
	default:
		ct := cities.Continents()[pick(splitmix64(h), 6)]
		ns := 2 + pick(h>>8, 3)
		return refPickSitesBiased(w, w.DB.InContinent(ct), ns, 150, h, 0.25)
	}
}

// TestPickSitesBiasedMatchesReference derives every generic deployment
// of the shipped configurations, both families, and compares its sites
// with the reference placement. Lazy worlds lay out the same deployments
// as eager ones without materializing the unicast fill.
func TestPickSitesBiasedMatchesReference(t *testing.T) {
	for name, cfg := range map[string]Config{
		"test":    TestConfig(),
		"default": DefaultConfig(),
		"paper":   PaperScaleConfig(),
	} {
		cfg.LazyTargets = true
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v6 := range []bool{false, true} {
			L := w.fam(v6).L
			if len(L.generic) == 0 {
				t.Fatalf("%s v6=%v: no generic deployments", name, v6)
			}
			for bi := range L.batches {
				b := &L.batches[bi]
				if b.class != classGeneric {
					continue
				}
				got := w.TargetAt(v6, b.startID).Sites
				if want := refGenericSites(w, v6, b.param); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s v6=%v deployment %d: sites\n%v\nwant\n%v", name, v6, b.param, got, want)
				}
			}
		}
	}
}

// FuzzPickSitesBiased compares pickSitesBiased with the reference over
// arbitrary salts, site counts of 1–20, spacings of 0–2,000 km and the
// global or one continent's pool.
func FuzzPickSitesBiased(f *testing.F) {
	f.Add(uint64(0), uint8(3), 400.0, uint8(0))
	f.Add(uint64(0x9e9e), uint8(16), 150.0, uint8(3))
	f.Add(^uint64(0), uint8(19), 2000.0, uint8(6))
	f.Add(uint64(42), uint8(0), 0.0, uint8(5))
	f.Fuzz(func(t *testing.T, salt uint64, n uint8, spacing float64, pool uint8) {
		w := testWorld
		if math.IsNaN(spacing) || math.IsInf(spacing, 0) {
			spacing = 0
		}
		spacing = math.Mod(math.Abs(spacing), 2000)
		ns := 1 + int(n)%20
		got, want := []Site(nil), []Site(nil)
		if k := int(pool) % 7; k == 0 {
			got = w.pickSitesBiased(w.globalPool, ns, spacing, salt)
			want = refPickSitesBiased(w, refGlobalPool(w), ns, spacing, salt, 0.25)
		} else {
			ct := cities.Continents()[k-1]
			got = w.pickSitesBiased(w.contPools[ct], ns, spacing, salt)
			want = refPickSitesBiased(w, w.DB.InContinent(ct), ns, spacing, salt, 0.25)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("salt %#x n %d spacing %g pool %d: sites\n%v\nwant\n%v", salt, ns, spacing, pool, got, want)
		}
	})
}

// TestSampleCityWeightedMatchesLinear pins the binary search over the
// cumulative population to the linear walk it replaced.
func TestSampleCityWeightedMatchesLinear(t *testing.T) {
	w := testWorld
	linear := func(h uint64) int {
		all := w.DB.All()
		var total int64
		for _, c := range all {
			total += int64(c.Population)
		}
		x := int64(h % uint64(total))
		for i, c := range all {
			x -= int64(c.Population)
			if x < 0 {
				return i
			}
		}
		return len(all) - 1
	}
	total := uint64(w.popCum[len(w.popCum)-1])
	hashes := []uint64{0, total - 1, ^uint64(0)}
	for i := uint64(0); i < 100_000; i++ {
		hashes = append(hashes, splitmix64(i))
	}
	for _, h := range hashes {
		if got, want := w.sampleCityWeighted(h), linear(h); got != want {
			t.Fatalf("sampleCityWeighted(%#x) = %d, want %d", h, got, want)
		}
	}
}

// TestGenericFirstDerivationRace derives every cold generic target of a
// lazy world from many goroutines at once, through each access path, and
// compares with the eager world's targets. Run it under -race: the first
// derivation publishes the deployment's sites to every racing reader.
func TestGenericFirstDerivationRace(t *testing.T) {
	eager, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := New(lazyConfig(TestConfig().Seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, v6 := range []bool{false, true} {
		L := lazy.fam(v6).L
		lo, hi := classRange(L, classGeneric)
		check := func(path string, got *Target) {
			if want := eager.TargetAt(v6, got.ID); !reflect.DeepEqual(got, want) {
				t.Errorf("v6=%v %s: target %d differs from the eager world's", v6, path, got.ID)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch g % 3 {
				case 0:
					for id := hi - 1; id >= lo; id-- {
						check("TargetAt", lazy.TargetAt(v6, id))
					}
				case 1:
					lazy.IterTargets(v6, 7, func(batch []Target) bool {
						for i := range batch {
							if id := batch[i].ID; id >= lo && id < hi {
								check("IterTargets", &batch[i])
							}
						}
						return batch[len(batch)-1].ID < hi
					})
				case 2:
					wk := lazy.Walker(v6)
					for id := lo; id < hi; id++ {
						check("Walker", wk.At(id))
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestDeriveGenericAllocs pins placement at most once per deployment: on
// a warm world, deriving a generic target with no TempWindows allocates
// nothing.
func TestDeriveGenericAllocs(t *testing.T) {
	w, err := New(lazyConfig(0x1ace5))
	if err != nil {
		t.Fatal(err)
	}
	L := w.fam(true).L
	lo, hi := classRange(L, classGeneric)
	id := -1
	for i := lo; i < hi && id < 0; i++ {
		if len(w.TargetAt(true, i).TempWindows) == 0 { // also warms the deployment
			id = i
		}
	}
	if id < 0 {
		t.Fatal("no generic target without TempWindows")
	}
	var tg Target
	if n := testing.AllocsPerRun(100, func() { w.deriveTargetID(L, id, &tg) }); n != 0 {
		t.Fatalf("warm generic derivation allocates %.1f per run, want 0", n)
	}
	if tg.ID != id || len(tg.Sites) == 0 {
		t.Fatalf("derived target %d with %d sites, want target %d", tg.ID, len(tg.Sites), id)
	}
}
