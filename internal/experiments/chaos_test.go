package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
)

// TestChaosResilienceSuite exercises every registered scenario through a
// full daily census and asserts the resilience table's qualitative shape:
// GCD confirmation keeps its precision under every failure class, churn
// scenarios inflate ℳ, and outages reduce participation.
func TestChaosResilienceSuite(t *testing.T) {
	e := env(t)
	rep, err := e.ChaosResilience(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) < 6 {
		t.Fatalf("suite ran %d scenarios, want >= 6", len(rep.Scenarios))
	}
	base := rep.Baseline
	if base.GCount == 0 || base.MCount == 0 {
		t.Fatalf("degenerate baseline: |G|=%d |M|=%d", base.GCount, base.MCount)
	}
	if base.G.Precision() < 0.99 {
		t.Fatalf("baseline G precision %.3f", base.G.Precision())
	}
	byName := make(map[string]chaos.Outcome, len(rep.Scenarios))
	for _, o := range rep.Scenarios {
		byName[o.Scenario] = o
		// The GCD stage's precision is the census's headline robustness:
		// no failure class may make 𝒢 start lying.
		if o.G.Precision() < 0.99 {
			t.Errorf("%s: G precision dropped to %.3f", o.Scenario, o.G.Precision())
		}
	}
	if o := byName[chaos.ScenarioSiteOutage]; o.Workers >= base.Workers {
		t.Errorf("site outage kept %d workers (baseline %d)", o.Workers, base.Workers)
	}
	for _, churn := range []string{chaos.ScenarioFlappingUpstream, chaos.ScenarioClockSkew} {
		if o := byName[churn]; o.MCount <= base.MCount {
			t.Errorf("%s: M did not inflate (%d <= baseline %d)", churn, o.MCount, base.MCount)
		}
	}
	if o := byName[chaos.ScenarioLatencyStorm]; o.G.Recall() >= base.G.Recall() {
		t.Errorf("latency storm did not reduce G recall (%.3f >= %.3f)",
			o.G.Recall(), base.G.Recall())
	}

	var buf bytes.Buffer
	if err := RenderChaosResilience(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "baseline") || !strings.Contains(out, chaos.ScenarioSiteOutage) {
		t.Fatal("rendered table missing rows")
	}
}

// TestEnvObsSeesChaosCensus: Env.Obs receives the telemetry of every
// census pipeline the environment builds, the chaos scenarios' included.
// A fresh environment runs one chaos census; its registry must hold that
// run's census span and its stage series.
func TestEnvObsSeesChaosCensus(t *testing.T) {
	e, err := NewEnv(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Obs = obs.New()
	sc := chaos.Builtins()[0]
	if _, err := e.chaosCensus(dayChaosResilience, false, sc); err != nil {
		t.Fatal(err)
	}
	censuses := 0
	for _, sp := range e.Obs.ExportTrace().Spans {
		if sp.Name == "census" {
			censuses++
		}
	}
	if censuses != 1 {
		t.Fatalf("registry holds %d census spans after one %s census, want 1", censuses, sc.Name)
	}
	probes := 0.0
	for _, m := range e.Obs.Snapshot().Metrics {
		if m.Name == "laces_stage_probes_total" && slices.Contains(m.Labels, obs.L("stage", "anycast_icmp")) {
			probes = m.Value
		}
	}
	if probes == 0 {
		t.Fatalf("registry holds no anycast_icmp probes after the %s census", sc.Name)
	}
}
