package orchestrator

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/client"
	"github.com/laces-project/laces/internal/wire"
)

// TestStreamingPathEnforcesLedger pins the orchestrator-side governance:
// targets inside an opted-out prefix are never streamed to workers, the
// global probe budget caps the streamed set, and everything withheld is
// reported in the Complete frame's Skipped count.
func TestStreamingPathEnforcesLedger(t *testing.T) {
	w := world(t)
	addrs, _, _ := pickTargets(w, 40)
	if len(addrs) < 60 {
		t.Fatalf("too few sample targets: %d", len(addrs))
	}
	addrs = addrs[:60]

	optedOut := addrs[0]
	reg := budget.NewRegistry()
	reg.AddPrefix(netip.PrefixFrom(optedOut, 24))

	const sites = 8
	const admitted = 40 // of the 59 non-opted targets
	o, _, cancel := startClusterCfg(t, sites, Config{
		Budget: budget.Budget{DailyProbes: sites * admitted},
		OptOut: reg,
	})
	defer cancel()

	cli := &client.Client{Addr: o.Addr()}
	def := wire.MeasurementDef{ID: 7, Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}
	ctx, cancelRun := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelRun()
	out, err := cli.Run(ctx, def, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}

	wantSkipped := int64(len(addrs) - admitted) // 1 opt-out + 19 over budget
	if out.Skipped != wantSkipped {
		t.Fatalf("Skipped = %d, want %d", out.Skipped, wantSkipped)
	}
	probed := make(map[netip.Addr]bool)
	for _, r := range out.Results {
		probed[r.Target] = true
	}
	if probed[optedOut] {
		t.Fatalf("opted-out target %s was probed", optedOut)
	}
	if len(probed) > admitted {
		t.Fatalf("results reference %d targets, budget admits %d", len(probed), admitted)
	}
	if len(out.Results) == 0 {
		t.Fatal("governed measurement returned no results at all")
	}

	// Admission is first come, first charged in request order: every
	// probed target must be among the first `admitted` non-opted targets.
	streamed := make(map[netip.Addr]bool, admitted)
	n := 0
	for _, a := range addrs {
		if a == optedOut {
			continue
		}
		if n++; n > admitted {
			break
		}
		streamed[a] = true
	}
	for tgt := range probed {
		if !streamed[tgt] {
			t.Fatalf("target %s probed but outside the deterministic admitted set", tgt)
		}
	}
}
