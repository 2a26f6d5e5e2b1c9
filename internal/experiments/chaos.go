package experiments

import (
	"fmt"
	"io"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/stats"
)

// dayChaosResilience is the census day the resilience experiment runs on;
// every built-in scenario's window covers it.
const dayChaosResilience = 180

// ChaosResilience runs the full registered chaos scenario suite: one daily
// census per scenario (same seed, same feedback seeding) scored against
// the simulator's anycast oracle, next to the clean baseline. This is the
// resilience table behind the census's "survived 17 months of incidents"
// claim: it quantifies how much accuracy each failure class costs.
func (e *Env) ChaosResilience(v6 bool) (*chaos.Report, error) {
	return e.ChaosResilienceScenarios(v6, chaos.Scenarios())
}

// ChaosResilienceScenarios scores a specific scenario list (tests use a
// subset to bound wall-clock).
func (e *Env) ChaosResilienceScenarios(v6 bool, scenarios []chaos.Scenario) (*chaos.Report, error) {
	baseline, err := e.DailyCensus(dayChaosResilience, v6)
	if err != nil {
		return nil, err
	}
	truth := e.responsiveTruth(dayChaosResilience, v6)
	rep := &chaos.Report{
		V6:       v6,
		Baseline: scoreCensus("baseline", "no faults injected", baseline, truth),
	}
	for _, sc := range scenarios {
		day := dayChaosResilience
		if !sc.ActiveOn(day) {
			if day = sc.FirstActiveDay(534); day < 0 {
				continue // never fires on the census timeline
			}
		}
		c, err := e.chaosCensus(day, v6, sc)
		if err != nil {
			return nil, fmt.Errorf("chaos scenario %s: %w", sc.Name, err)
		}
		t := truth
		if day != dayChaosResilience {
			t = e.responsiveTruth(day, v6)
		}
		rep.Scenarios = append(rep.Scenarios, scoreCensus(sc.Name, sc.Description, c, t))
	}
	return rep, nil
}

// chaosCensus runs one daily census under a scenario, with the same
// pipeline construction and feedback seeding as the cached clean census.
func (e *Env) chaosCensus(day int, v6 bool, sc chaos.Scenario) (*core.DailyCensus, error) {
	ls, err := e.GCDLS(day, v6)
	if err != nil {
		return nil, err
	}
	pipe, err := e.pipeline(false)
	if err != nil {
		return nil, err
	}
	pipe.SeedFeedback(v6, ls.IDs())
	return pipe.RunDaily(day, v6, core.DayOptions{Chaos: &sc})
}

// responsiveTruth is the anycast oracle restricted to targets at least one
// probing protocol can see — prefixes no probe can elicit a reply from are
// not recall failures of the pipeline.
func (e *Env) responsiveTruth(day int, v6 bool) map[int]bool {
	truth := e.World.GroundTruthAnycast(v6, day)
	out := make(map[int]bool, len(truth))
	for id := range truth {
		tg := e.World.TargetAt(v6, id)
		if tg.Responsive[packet.ICMP] || tg.Responsive[packet.TCP] || tg.Responsive[packet.DNS] {
			out[id] = true
		}
	}
	return out
}

// scoreCensus folds one census into a report row.
func scoreCensus(name, desc string, c *core.DailyCensus, truth map[int]bool) chaos.Outcome {
	g := stats.NewSet(c.G())
	m := stats.NewSet(c.M())
	return chaos.Outcome{
		Scenario:    name,
		Description: desc,
		Day:         c.DayIndex,
		Workers:     c.Workers,
		GCount:      len(g),
		MCount:      len(m),
		G:           chaos.Score(g, truth),
		M:           chaos.Score(m, truth),
	}
}

// RenderChaosResilience prints the resilience table.
func RenderChaosResilience(w io.Writer, r *chaos.Report) error { return r.Render(w) }
