package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/chaosdns"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/manycast"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// TestStagesShareOneEnvelope: all four measurement stages run on par.Run,
// so each must leave the same telemetry behind under its own label —
// live progress at 100 %, the four laces_stage_* series agreeing with the
// stage's own return values, and one stage span with a shardN child per
// shard — whatever the stage does with a target.
func TestStagesShareOneEnvelope(t *testing.T) {
	const day, workers = 40, 3
	dep, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	vps, err := platform.Ark(testWorld, day, false)
	if err != nil {
		t.Fatal(err)
	}
	hl := hitlist.ForDay(testWorld, false, day)
	hl.Entries = hl.Entries[:400]
	ids := hl.IDs()
	// Opting out the origin AS of the first entry and of the first
	// nameserver makes every stage deny something; the out-of-range ID is
	// the item no stage may charge, probe or leave out of the progress
	// total.
	optOut := budget.NewRegistry()
	optOut.AddAS(testWorld.TargetAt(false, ids[0]).Origin)
	optOut.AddAS(testWorld.TargetAt(false, hl.FilterProtocol(packet.DNS)[0].TargetID).Origin)
	ids = append(ids, -1)

	stages := []struct {
		label string
		run   func(*budget.Gate, *obs.Registry) (probes int64, usage budget.Usage)
	}{
		{manycast.StageLabel(packet.ICMP), func(g *budget.Gate, reg *obs.Registry) (int64, budget.Usage) {
			res, err := manycast.Run(testWorld, dep, hl, manycast.Options{
				Protocol: packet.ICMP, Start: netsim.DayTime(day), Parallelism: workers, Gate: g, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			return res.ProbesSent, res.Usage
		}},
		{gcdmeas.StageLabel(packet.ICMP), func(g *budget.Gate, reg *obs.Registry) (int64, budget.Usage) {
			rep := gcdmeas.Run(testWorld, ids, false, gcdmeas.Campaign{
				VPs: vps, Proto: packet.ICMP, At: netsim.DayTime(day), Parallelism: workers, Gate: g, Obs: reg})
			return rep.ProbesSent, rep.Usage
		}},
		{gcdmeas.SweepStage, func(g *budget.Gate, reg *obs.Registry) (int64, budget.Usage) {
			_, probes, usage := gcdmeas.SweepAddrs(testWorld, ids, false, []uint8{8, 13}, gcdmeas.Campaign{
				VPs: vps[:5], Proto: packet.ICMP, At: netsim.DayTime(day), Parallelism: workers, Gate: g, Obs: reg})
			return probes, usage
		}},
		{chaosdns.Stage, func(g *budget.Gate, reg *obs.Registry) (int64, budget.Usage) {
			census, usage := chaosdns.Census(testWorld, dep, hl, netsim.DayTime(day), g, workers, reg)
			return int64(len(census) * dep.NumSites()), usage
		}},
	}
	for _, st := range stages {
		t.Run(st.label, func(t *testing.T) {
			reg := obs.New()
			probes, usage := st.run(budget.NewLedger(budget.Budget{}, optOut).Gate(day), reg)
			denied := usage.OptOutTargets + usage.BudgetTargets
			if probes == 0 || denied == 0 || !usage.Reconciles() {
				t.Fatalf("degenerate run: %d probes, usage %+v", probes, usage)
			}

			if p := reg.Progress(); p.Stage != st.label || p.Total == 0 || p.Done != p.Total {
				t.Fatalf("progress %q %d/%d, want %q at 100 %%", p.Stage, p.Done, p.Total, st.label)
			}

			series := map[string]obs.SnapshotMetric{}
			for _, m := range reg.Snapshot().Metrics {
				for _, l := range m.Labels {
					if l == obs.L("stage", st.label) {
						series[m.Name] = m
					}
				}
			}
			if got := series["laces_stage_probes_total"].Value; got != float64(probes) {
				t.Errorf("laces_stage_probes_total = %v, stage returned %d", got, probes)
			}
			if got := series["laces_stage_replies_total"].Value; got <= 0 || got > float64(probes) {
				t.Errorf("laces_stage_replies_total = %v, want in (0, %d]", got, probes)
			}
			if got := series["laces_stage_denied_total"].Value; got != float64(denied) {
				t.Errorf("laces_stage_denied_total = %v, usage denied %d", got, denied)
			}
			if got := series["laces_stage_seconds"].Count; got != 1 {
				t.Errorf("laces_stage_seconds observed %d runs, want 1", got)
			}

			var stage obs.TraceSpan
			shards := map[string]bool{}
			spans := reg.TraceSpans()
			for _, sp := range spans {
				if sp.Name == st.label {
					stage = sp
				}
			}
			for _, sp := range spans {
				if sp.SpanID != stage.SpanID {
					if sp.Parent != stage.SpanID || sp.TraceID != stage.TraceID {
						t.Errorf("span %q is not a child of the %q span", sp.Name, st.label)
					}
					shards[sp.Name] = true
				}
			}
			want := map[string]bool{}
			for s := 0; s < workers; s++ {
				want[fmt.Sprintf("shard%d", s)] = true
			}
			if stage.SpanID == 0 || len(spans) != workers+1 || !reflect.DeepEqual(shards, want) {
				t.Errorf("spans = %+v, want one %q span with children %v", spans, st.label, want)
			}
		})
	}
}
