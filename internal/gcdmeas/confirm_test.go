package gcdmeas

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/packet"
)

// TestConfirmIsTheTwoCampaigns is Confirm's contract: over any ID
// multiset — duplicates, out-of-range IDs, DNS-only and unresponsive
// targets included — it reports exactly what Run over the ICMP-responsive
// IDs followed by Run over the TCP-only IDs reports, each in list order,
// outcome for outcome and probe for probe. Under a budget too small for
// the list that includes which targets the ledger admits: ICMP before
// TCP, first come first charged.
func TestConfirmIsTheTwoCampaigns(t *testing.T) {
	const day = 40
	camp := arkCampaign(t, day, false)
	camp.VPs = camp.VPs[:12]
	n := testWorld.NumTargets(false)
	var dnsOnlyIDs []int // rare in the world; drawn on purpose
	for id := 0; id < n; id++ {
		if testWorld.TargetAt(false, id).Responsive == [3]bool{packet.DNS: true} {
			dnsOnlyIDs = append(dnsOnlyIDs, id)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 6; round++ {
		ids := make([]int, 0, 300)
		var icmp, tcp []int
		dnsOnly := 0
		for len(ids) < cap(ids) {
			id := rng.Intn(n)
			switch rng.Intn(16) {
			case 0:
				id = dnsOnlyIDs[rng.Intn(len(dnsOnlyIDs))]
			case 1:
				id = []int{-1, -n, n, n + 7}[rng.Intn(4)] // out of range, either side
			case 2, 3:
				if len(ids) > 0 {
					id = ids[rng.Intn(len(ids))] // a duplicate
				}
			}
			ids = append(ids, id)
			if id < 0 || id >= n {
				continue
			}
			switch tg := testWorld.TargetAt(false, id); {
			case tg.Responsive[packet.ICMP]:
				icmp = append(icmp, id)
			case tg.Responsive[packet.TCP]:
				tcp = append(tcp, id)
			case tg.Responsive[packet.DNS]:
				dnsOnly++
			}
		}
		if len(icmp) == 0 || len(tcp) == 0 || dnsOnly == 0 {
			t.Fatalf("round %d: degenerate draw (%d ICMP, %d TCP-only, %d DNS-only)", round, len(icmp), len(tcp), dnsOnly)
		}
		// A third of the list's demand: binding inside the ICMP campaign,
		// so the TCP campaign finds the day's budget gone.
		capped := budget.Budget{DailyProbes: int64(len(icmp)+len(tcp)) * int64(len(camp.VPs)) / 3}
		for _, b := range []budget.Budget{{}, capped} {
			for _, workers := range []int{1, 4} {
				c := camp
				c.Parallelism = workers
				c.Proto = packet.DNS // Confirm must not look at it

				c.Gate = gateFor(b, day)
				got := Confirm(testWorld, ids, false, c)

				c.Gate = gateFor(b, day)
				c.Proto = packet.ICMP
				first := Run(testWorld, icmp, false, c)
				c.Proto = packet.TCP
				second := Run(testWorld, tcp, false, c)

				want := &Report{Outcomes: first.Outcomes, ProbesSent: first.ProbesSent + second.ProbesSent, Usage: first.Usage}
				want.Usage.Add(second.Usage)
				for id, o := range second.Outcomes {
					if _, dup := want.Outcomes[id]; dup {
						t.Fatalf("target %d measured by both campaigns", id)
					}
					want.Outcomes[id] = o
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, budget %v, parallelism %d: Confirm reports %d outcomes, %d probes, usage %+v; the two campaigns %d, %d, %+v",
						round, b, workers, len(got.Outcomes), got.ProbesSent, got.Usage, len(want.Outcomes), want.ProbesSent, want.Usage)
				}
				if !b.IsZero() && (got.Usage.BudgetTargets == 0 || got.ProbesSent == 0) {
					t.Fatalf("round %d: budget %v did not bind (usage %+v)", round, b, got.Usage)
				}
			}
		}
	}
}

// gateFor returns the day gate of a fresh ledger, or nil for a zero
// budget (the ungoverned path).
func gateFor(b budget.Budget, day int) *budget.Gate {
	if b.IsZero() {
		return nil
	}
	return budget.NewLedger(b, nil).Gate(day)
}
