package platform

import (
	"testing"

	"github.com/laces-project/laces/internal/netsim"
)

var testWorld = mustWorld()

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func TestDeploymentSizes(t *testing.T) {
	cases := []struct {
		name string
		mk   func(*netsim.World) (*netsim.Deployment, error)
		want int
	}{
		{"EU-NA", EUNA2, 2},
		{"1-per-continent", OnePerContinent6, 6},
		{"2-per-continent", TwoPerContinent11, 11},
		{"ccTLD", CcTLD, 12},
		{"Melbicom", Melbicom, 16},
		{"Vultr+Melbicom", VultrMelbicom, 48},
	}
	for _, tc := range cases {
		d, err := tc.mk(testWorld)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d.NumSites() != tc.want {
			t.Errorf("%s has %d sites, want %d", tc.name, d.NumSites(), tc.want)
		}
	}
	tangled, err := Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	if tangled.NumSites() != 32 {
		t.Errorf("TANGLED has %d sites, want 32", tangled.NumSites())
	}
}

func TestMelbicomAsiaCoverage(t *testing.T) {
	// §5.4: Melbicom provides only a single VP in Asia/Oceania, which is
	// why it misses regional anycast there.
	d, _ := Melbicom(testWorld)
	apac := 0
	for _, s := range d.Sites {
		switch s.City.Continent.String() {
		case "AS", "OC":
			apac++
		}
	}
	if apac != 1 {
		t.Fatalf("Melbicom has %d APAC sites, want exactly 1", apac)
	}
}

func TestArkGrowth(t *testing.T) {
	if got := ArkSize(0, false); got != 160 {
		t.Errorf("Ark v4 at census start = %d, want 160", got)
	}
	if got := ArkSize(540, false); got != 250 {
		t.Errorf("Ark v4 at day 540 = %d, want 250", got)
	}
	if got := ArkSize(0, true); got != 90 {
		t.Errorf("Ark v6 at start = %d, want 90", got)
	}
	// Monotone non-decreasing growth.
	prev := 0
	for day := 0; day <= 540; day += 10 {
		n := ArkSize(day, false)
		if n < prev {
			t.Fatalf("Ark shrank at day %d: %d < %d", day, n, prev)
		}
		prev = n
	}
	// The January 2025 step increase (§7) is visible.
	if ArkSize(295, false) <= ArkSize(285, false) {
		t.Error("no visible VP step around day 290")
	}
}

func TestArkVPs(t *testing.T) {
	vps, err := Ark(testWorld, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(vps) != ArkSize(100, false) {
		t.Fatalf("Ark pool size %d, want %d", len(vps), ArkSize(100, false))
	}
	for _, vp := range vps {
		if vp.FiltersSpecifics {
			t.Error("IPv4 Ark VPs must not filter specifics")
		}
		if !vp.Loc.IsValid() {
			t.Errorf("VP %s has invalid location", vp.Name)
		}
	}
	v6, err := Ark(testWorld, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	filters := 0
	for _, vp := range v6 {
		if vp.FiltersSpecifics {
			filters++
		}
	}
	if filters != 2 {
		t.Fatalf("IPv6 Ark pool has %d filtering VPs, want exactly 2 (§6)", filters)
	}
}

func TestArkDeterministic(t *testing.T) {
	a, _ := Ark(testWorld, 200, false)
	b, _ := Ark(testWorld, 200, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Ark pool not deterministic")
		}
	}
}

func TestAtlasSpacing(t *testing.T) {
	vps, err := Atlas(testWorld, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(vps) < 150 {
		t.Fatalf("Atlas pool too small: %d", len(vps))
	}
	for i := 0; i < len(vps); i++ {
		for j := i + 1; j < len(vps); j++ {
			if vps[i].Loc.DistanceKm(vps[j].Loc) < 100 {
				t.Fatalf("VPs %s and %s within 100km", vps[i].Name, vps[j].Name)
			}
		}
	}
	// Thinning to 1000 km must shrink the pool substantially (Fig 11).
	thin, _ := Atlas(testWorld, 1000)
	if len(thin) >= len(vps)/2 {
		t.Fatalf("1000km thinning kept %d of %d VPs", len(thin), len(vps))
	}
}

func TestParticipation(t *testing.T) {
	vps, _ := Atlas(testWorld, 100)
	p1 := Participating(vps, 1, 0.9)
	p2 := Participating(vps, 2, 0.9)
	if len(p1) == 0 || len(p1) == len(vps) {
		t.Fatalf("participation filter degenerate: %d of %d", len(p1), len(vps))
	}
	// Different salts yield different subsets (variable participation).
	same := true
	if len(p1) != len(p2) {
		same = false
	} else {
		for i := range p1 {
			if p1[i].Name != p2[i].Name {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("participation identical across measurements")
	}
	if got := Participating(vps, 3, 1.0); len(got) != len(vps) {
		t.Error("rate 1.0 should keep everyone")
	}
}

func TestAtlasCredits(t *testing.T) {
	// App B: 23,821 targets × 481 VPs × 3 credits ≈ 34 M ≈ the paper's
	// 37 M credit campaign.
	got := AtlasCredits(23821, 481)
	if got < 30_000_000 || got > 40_000_000 {
		t.Fatalf("credit model = %d, want ~34M", got)
	}
}
