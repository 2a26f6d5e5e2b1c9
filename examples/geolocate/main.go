// Geolocate: use the iGreedy latency analysis on its own — the §2.1 /
// Fig 1 workflow. We measure a Cloudflare-like CDN prefix from the Ark
// vantage points, then detect, enumerate and geolocate its sites, and
// compare against the simulator's ground truth (the §6 validation, in
// miniature).
package main

import (
	"fmt"
	"log"
	"sort"

	laces "github.com/laces-project/laces"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

func main() {
	world, err := laces.NewWorld(laces.TestConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Pick the widest anycast deployment in the world: a Cloudflare-like
	// CDN prefix.
	cf := world.OperatorByName("Cloudflare")
	var target *netsim.Target
	wk := world.Walker(false)
	for id := range world.NumTargets(false) {
		if tg := wk.At(id); tg.Operator == cf && tg.Responsive[packet.ICMP] {
			found := *tg // the walker reuses its target
			target = &found
			break
		}
	}
	if target == nil {
		log.Fatal("no CDN prefix found")
	}
	fmt.Printf("target: %s (AS%d), ground truth: %d sites\n\n",
		target.Prefix, target.Origin, len(target.Sites))

	// Latency measurement from Ark (day 300: ~200 VPs), then iGreedy.
	vps, err := platform.Ark(world, 300, false)
	if err != nil {
		log.Fatal(err)
	}
	rep := gcdmeas.Run(world, []int{target.ID}, false, gcdmeas.Campaign{
		VPs:   vps,
		Proto: packet.ICMP,
		At:    netsim.DayTime(300),
	})
	out := rep.Outcomes[target.ID]
	res := out.Result

	fmt.Printf("measured from %d VPs → anycast=%v, %d sites enumerated (lower bound)\n\n",
		out.VPs, res.Anycast, res.NumSites())
	fmt.Println("enumerated sites (disc radius → geolocated city):")
	sort.Slice(res.Sites, func(i, j int) bool { return res.Sites[i].Disc.RadiusKm < res.Sites[j].Disc.RadiusKm })
	for _, s := range res.Sites {
		fmt.Printf("  %7.0f km around %-22s → %s\n", s.Disc.RadiusKm, s.VP, s.City)
	}

	// Validation against ground truth: how many geolocated cities are
	// real sites?
	truth := make(map[string]bool, len(target.Sites))
	for _, s := range target.Sites {
		truth[s.City.Name] = true
	}
	hit := 0
	for _, s := range res.Sites {
		if truth[s.City.Name] {
			hit++
		}
	}
	fmt.Printf("\nvalidation: %d of %d geolocations are true site cities (of %d actual sites)\n",
		hit, res.NumSites(), len(target.Sites))
	fmt.Println("enumeration is a lower bound: nearby sites merge into one disc (§2.1).")
}
