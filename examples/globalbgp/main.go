// Globalbgp: the §5.1.3 investigation as a runnable program. Most of the
// census's ℳ set (anycast candidates that GCD calls unicast) comes from
// globally announced prefixes that route internally to a single server —
// the paper confirmed this with traceroute ("we confirm probes ingressing
// at distinct PoPs") and named publishing global BGP in the census as
// future work. This example traceroutes one such prefix from dispersed
// vantage points, prints the classic hop listing, and shows the combined
// evidence that earns the census GlobalBGP flag.
package main

import (
	"fmt"
	"log"
	"sort"

	laces "github.com/laces-project/laces"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/traceroute"
)

func main() {
	world, err := laces.NewWorld(laces.TestConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Pick a Microsoft-style target: globally announced, internally
	// unicast (netsim.GlobalUnicast is the generator's ground truth; the
	// measurement side below never consults it).
	var target *netsim.Target
	wk := world.Walker(false)
	for id := range world.NumTargets(false) {
		if tg := wk.At(id); tg.Kind == netsim.GlobalUnicast && tg.Responsive[packet.ICMP] {
			found := *tg // the walker reuses its target
			target = &found
			break
		}
	}
	if target == nil {
		log.Fatal("no global-unicast prefix in the world")
	}
	fmt.Printf("target: %s (AS%d)\n\n", target.Prefix, target.Origin)

	at := netsim.DayTime(120)
	sources := []string{"Amsterdam", "Tokyo", "Los Angeles", "Sao Paulo", "Sydney", "Johannesburg"}
	var vps []netsim.VP
	for i, city := range sources {
		vp, err := world.NewVP(fmt.Sprintf("vp-%02d", i), city)
		if err != nil {
			log.Fatal(err)
		}
		vps = append(vps, vp)
	}

	// Step 1: the raw evidence — two traceroutes entering the operator's
	// network at different PoPs yet ending at the same server.
	for _, vp := range vps[:2] {
		p, err := traceroute.Run(world, vp, target, traceroute.Options{At: at})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("traceroute to %s from %s:\n", target.Addr, vp.Name)
		for _, h := range p.Hops {
			switch {
			case h.Router == "":
				fmt.Printf("  %2d  *\n", h.TTL)
			case h.PoP:
				fmt.Printf("  %2d  %-42s %7.2f ms   ← ingress PoP (%s)\n",
					h.TTL, h.Router, float64(h.RTT.Microseconds())/1000, world.CityAt(h.CityIdx).Name)
			default:
				fmt.Printf("  %2d  %-42s %7.2f ms\n",
					h.TTL, h.Router, float64(h.RTT.Microseconds())/1000)
			}
		}
		fmt.Println()
	}

	// Step 2: the aggregate fan-out across all vantage points.
	fan, err := traceroute.Measure(world, vps, target, traceroute.Options{At: at})
	if err != nil {
		log.Fatal(err)
	}
	var ingress []string
	for city := range fan.IngressCities {
		ingress = append(ingress, world.CityAt(city).Name)
	}
	sort.Strings(ingress)
	fmt.Printf("ingress PoPs observed: %v\n", ingress)
	var responders []string
	for city := range fan.ServerCities {
		responders = append(responders, world.CityAt(city).Name)
	}
	sort.Strings(responders)
	for _, name := range responders {
		fmt.Printf("final responder:       %s (one server for every vantage point)\n", name)
	}

	// Step 3: the latency view — GCD agrees the service is in one place.
	rep := gcdmeas.Run(world, []int{target.ID}, false, gcdmeas.Campaign{
		VPs: vps, Proto: packet.ICMP, At: at,
	})
	gcd := rep.Outcomes[target.ID]
	fmt.Printf("GCD verdict:           anycast=%v from %d VPs\n\n", gcd.Result.Anycast, gcd.VPs)

	// The census flag combines both: candidate at multiple measurement
	// VPs, unicast for GCD, multi-PoP ingress in traceroute.
	if fan.GlobalBGP() && !gcd.Result.Anycast {
		fmt.Println("verdict: global-BGP unicast — published with the census GlobalBGP flag")
		fmt.Println("(globally announced for fast ingress; internal routing to one server)")
	} else {
		fmt.Println("verdict: no global-BGP signature")
	}

	// Contrast: a plain unicast prefix never shows the signature.
	for id := range world.NumTargets(false) {
		tg := wk.At(id)
		if tg.Kind == netsim.Unicast && tg.Responsive[packet.ICMP] && len(tg.TempWindows) == 0 {
			f, err := traceroute.Measure(world, vps, tg, traceroute.Options{At: at})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\ncontrol (%s, plain unicast): ingress PoPs=%d → GlobalBGP=%v\n",
				tg.Prefix, len(f.IngressCities), f.GlobalBGP())
			break
		}
	}
}
