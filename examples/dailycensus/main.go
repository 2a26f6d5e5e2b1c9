// Dailycensus: a compressed longitudinal census (§7) — 534 simulated days
// sampled every 14 days, with the paper's operational events injected (the
// Sep–Dec 2024 DNS tooling bug, pre-fix worker disconnections, periodic
// GCD_LS feedback reruns). Every finished day streams into the
// delta-encoded census archive (the §4.4 public repository) and reports
// to the telemetry registry the world is instrumented with; the program
// prints the Fig 9-style series and the Fig 10 persistence summary, and
// exits non-zero unless the registry holds a census span for every run.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	laces "github.com/laces-project/laces"
)

func main() {
	world, err := laces.NewWorld(laces.TestConfig())
	if err != nil {
		log.Fatal(err)
	}
	reg := laces.NewObsRegistry()
	world.Instrument(reg)

	dir, err := os.MkdirTemp("", "laces-census-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sink, err := laces.CreateArchive(dir, laces.CensusArchiveOptions{})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	history, err := laces.RunLongitudinalInto(world, 534, 14, sink)
	if err != nil {
		log.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	runs := len(history.Summaries(false))
	fmt.Printf("longitudinal census: %d runs across 534 days in %.1fs\n",
		runs, time.Since(start).Seconds())
	censuses := 0
	for _, sp := range reg.TraceSpans() {
		if sp.Name == "census" {
			censuses++
		}
	}
	// A span log that hit its cap may have dropped late census spans.
	if censuses == 0 || censuses != 2*runs && reg.TraceDropped() == 0 {
		log.Fatalf("telemetry holds %d census spans for %d runs of both families", censuses, runs)
	}
	fmt.Printf("telemetry: %d census spans\n", censuses)
	if a, err := laces.OpenArchive(dir); err == nil {
		for _, st := range a.Stats() {
			fmt.Printf("archived %s: %d days, %.0f%% of full-JSON size\n",
				st.Family, st.Days, 100*st.Ratio())
		}
	}
	fmt.Println()

	fmt.Println("day  hitlist  AC(ICMP)  AC(TCP)  AC(DNS)  G    M    workers  alerts")
	for _, s := range history.Summaries(false) {
		fmt.Printf("%3d  %7d  %8d  %7d  %7d  %3d  %3d  %7d  %6d\n",
			s.Day, s.Hitlist, s.AC[laces.ICMP], s.AC[laces.TCP], s.AC[laces.DNS],
			s.GTotal, s.MTotal, s.Workers, s.Alerts)
	}

	union, everyDay := history.UnionAnycast(false)
	gUnion, gEvery := history.UnionG(false)
	fmt.Printf("\npersistence (IPv4):\n")
	fmt.Printf("  prefixes ever carried as anycast: %d, on every run: %d (%.0f%%)\n",
		union, everyDay, 100*float64(everyDay)/float64(union))
	fmt.Printf("  GCD-confirmed union: %d, on every run: %d (%.0f%%)\n",
		gUnion, gEvery, 100*float64(gEvery)/float64(gUnion))
	fmt.Println("\nthe GCD set is far more stable than the anycast-based set — the")
	fmt.Println("reason LACeS publishes both with independent confidence (§5.1.6).")

	cdf := history.PersistenceCDF(false)
	fmt.Println("\ncumulative prefixes anycast for at most X runs (Fig 10):")
	for _, x := range []int{1, 2, 5, 10, 20, 30, len(history.Summaries(false))} {
		if x > len(history.Summaries(false)) {
			break
		}
		fmt.Printf("  <= %2d runs: %4.0f prefixes\n", x, cdf.P(x)*float64(cdf.Len()))
	}
}
