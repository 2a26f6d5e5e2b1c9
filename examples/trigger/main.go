// Trigger: the §9 future-work extension — watch a BGP route-collector
// feed and launch targeted GCD measurements the moment a prefix's routing
// changes, instead of waiting for the next daily census. This is what
// catches the paper's single-day events (§7 found 191 prefixes anycast for
// exactly one day: suspected misconfigurations or hijacks that a daily
// census at coarser granularity would miss entirely).
package main

import (
	"fmt"
	"log"
	"sort"

	laces "github.com/laces-project/laces"
	"github.com/laces-project/laces/internal/bgpmon"
	"github.com/laces-project/laces/internal/platform"
)

func main() {
	world, err := laces.NewWorld(laces.TestConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Find the census days on which hijack-style one-day events occur.
	eventDays := map[int]bool{}
	world.IterTargets(false, 0, func(batch []laces.Target) bool {
		for i := range batch {
			if tg := &batch[i]; tg.Operator < 0 && len(tg.TempWindows) == 1 && tg.TempWindows[0].From == tg.TempWindows[0].To {
				eventDays[tg.TempWindows[0].From] = true
			}
		}
		return true
	})
	fmt.Printf("ground truth: one-day anycast events on %d distinct days\n\n", len(eventDays))

	// Walk the event days in calendar order so the report reads
	// chronologically and is identical run to run.
	days := make([]int, 0, len(eventDays))
	for day := range eventDays {
		days = append(days, day)
	}
	sort.Ints(days)

	suspected := 0
	for _, day := range days {
		feed := bgpmon.Feed(world, false, day)
		vps, err := platform.Ark(world, day, false)
		if err != nil {
			log.Fatal(err)
		}
		mon := &bgpmon.Monitor{
			World:               world,
			VPs:                 vps,
			KnownAnycastOrigins: bgpmon.KnownOperators(world),
		}
		for _, f := range mon.React(false, feed) {
			if !f.SuspectedHijack {
				continue
			}
			suspected++
			fmt.Printf("day %3d: %-18s AS%-6d turn-up confirmed at %d sites — SUSPECTED HIJACK\n",
				day, f.Event.Prefix, f.Event.Origin, f.Sites)
		}
	}
	fmt.Printf("\n%d suspected hijacks flagged by trigger-based detection\n", suspected)
	fmt.Println("(legitimate on-demand anycast from known DDoS-mitigation operators")
	fmt.Println(" triggers measurements too, but is not flagged)")

	// Contrast: a weekly-stride census would have missed these entirely.
	hist, err := laces.RunLongitudinal(world, 534, 7)
	if err != nil {
		log.Fatal(err)
	}
	caught := 0
	for id, n := range hist.DaysDetected(false) {
		tg := world.TargetAt(false, id)
		if tg.Operator < 0 && len(tg.TempWindows) == 1 &&
			tg.TempWindows[0].From == tg.TempWindows[0].To && n > 0 {
			caught++
		}
	}
	fmt.Printf("\nfor comparison, a 7-day-stride census caught %d of these events\n", caught)
}
