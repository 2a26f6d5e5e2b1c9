// Chaos: fault-injection drills over the census pipeline. Runs one clean
// daily census as the baseline, then re-runs the same day under each
// built-in chaos scenario (site outage, regional blackout, lossy transit,
// latency storm, flapping upstream, clock skew, reply throttling) and
// prints how census accuracy (precision/recall of 𝒢 and ℳ against the
// simulator's anycast oracle) degrades. Every run is deterministic: the
// same world seed and scenario always produce a byte-identical census.
package main

import (
	"fmt"
	"log"
	"os"

	laces "github.com/laces-project/laces"
)

const day = 180 // every built-in scenario's window covers this day

func main() {
	world, err := laces.NewWorld(laces.TestConfig())
	if err != nil {
		log.Fatal(err)
	}
	truth := responsiveTruth(world)

	baseline, err := runCensus(world, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("clean baseline on day %d: |G|=%d |M|=%d\n\n",
		day, baseline.CountG(), baseline.CountM())

	report := &laces.ChaosReport{Baseline: score("baseline", "no faults injected", baseline, truth)}
	for _, name := range laces.ChaosScenarios() {
		sc, _ := laces.ChaosScenarioByName(name)
		if !sc.ActiveOn(day) {
			continue
		}
		census, err := runCensus(world, &sc)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		report.Scenarios = append(report.Scenarios, score(sc.Name, sc.Description, census, truth))
	}
	if err := report.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nhigh-churn scenarios inflate M (anycast-based false positives) while")
	fmt.Println("G's GCD confirmation holds precision 1.0 — the reason LACeS publishes")
	fmt.Println("both sets with independent confidence.")
}

// runCensus executes one daily census, optionally under a chaos scenario.
func runCensus(world *laces.World, sc *laces.ChaosScenario) (*laces.DailyCensus, error) {
	dep, err := laces.Tangled(world)
	if err != nil {
		return nil, err
	}
	pipe, err := laces.NewPipeline(world, laces.PipelineConfig{
		Deployment: dep,
		GCDVPs:     laces.ArkVPs(world),
	})
	if err != nil {
		return nil, err
	}
	return pipe.RunDaily(day, false, laces.DayOptions{Chaos: sc})
}

// responsiveTruth is the anycast oracle restricted to probe-able targets.
func responsiveTruth(world *laces.World) map[int]bool {
	truth := world.GroundTruthAnycast(false, day)
	out := make(map[int]bool, len(truth))
	for id := range truth {
		tg := world.TargetAt(false, id)
		if tg.Responsive[laces.ICMP] || tg.Responsive[laces.TCP] || tg.Responsive[laces.DNS] {
			out[id] = true
		}
	}
	return out
}

// score folds a census into one report row.
func score(name, desc string, c *laces.DailyCensus, truth map[int]bool) laces.ChaosOutcome {
	g := toSet(c.G())
	m := toSet(c.M())
	return laces.ChaosOutcome{
		Scenario:    name,
		Description: desc,
		Day:         c.DayIndex,
		Workers:     c.Workers,
		GCount:      len(g),
		MCount:      len(m),
		G:           laces.ChaosScore(g, truth),
		M:           laces.ChaosScore(m, truth),
	}
}

func toSet(ids []int) map[int]bool {
	out := make(map[int]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}
