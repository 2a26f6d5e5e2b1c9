package core

import (
	"bytes"
	"net/netip"
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
)

// govWorld builds a fresh world for a seed (governance runs mutate the
// pipeline's feedback state, so every run gets its own pipeline; worlds
// are read-only but cheap enough to build per seed).
func govWorld(t testing.TB, seed uint64) *netsim.World {
	t.Helper()
	cfg := netsim.TestConfig()
	cfg.Seed = seed
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// govPipeline builds a pipeline over w with the given governance knobs.
func govPipeline(t testing.TB, w *netsim.World, b budget.Budget, reg *budget.Registry, parallelism bool) *Pipeline {
	t.Helper()
	d, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	par := 1
	if parallelism {
		par = 4
	}
	p, err := NewPipeline(w, Config{
		Deployment: d,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			return platform.Ark(w, day, v6)
		},
		Parallelism: par,
		Budget:      b,
		OptOut:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func docBytes(t testing.TB, c *DailyCensus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBudgetEighthRateReconcilesAndDeterministic is the acceptance
// contract of the governance layer: with a budget configured at 1/8th of
// a day's probe demand the census still completes, the published
// responsibility block reconciles exactly (spent + skipped == demanded),
// and sequential vs Parallelism>1 runs are byte-identical — across 3
// seeds × 2 chaos scenarios.
func TestBudgetEighthRateReconcilesAndDeterministic(t *testing.T) {
	scenarios := []string{chaos.ScenarioLossyTransit, chaos.ScenarioSiteOutage}
	const day = 160 // inside the windowed scenarios' active ranges
	for _, seed := range []uint64{1, 2, 3} {
		for _, scName := range scenarios {
			sc, ok := chaos.Lookup(scName)
			if !ok {
				t.Fatalf("unknown scenario %s", scName)
			}
			opts := DayOptions{Chaos: &sc}

			// Pass 1: measure the day's full demand with an effectively
			// unlimited budget (the ledger must be active to account it).
			w := govWorld(t, seed)
			probe := govPipeline(t, w, budget.Budget{DailyProbes: 1 << 50}, nil, false)
			c0, err := probe.RunDaily(day, false, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c0.Responsibility == nil {
				t.Fatal("unlimited-but-active ledger published no responsibility block")
			}
			demand := c0.Responsibility.ProbesDemanded
			if demand == 0 || c0.Responsibility.ProbesSkipped != 0 {
				t.Fatalf("probe pass degenerate: %+v", c0.Responsibility)
			}

			// Pass 2: 1/8th of that demand, sequential vs parallel.
			b := budget.Budget{DailyProbes: demand / 8}
			seqC, err := govPipeline(t, govWorld(t, seed), b, nil, false).RunDaily(day, false, opts)
			if err != nil {
				t.Fatalf("seed %d %s sequential: %v", seed, scName, err)
			}
			parC, err := govPipeline(t, govWorld(t, seed), b, nil, true).RunDaily(day, false, opts)
			if err != nil {
				t.Fatalf("seed %d %s parallel: %v", seed, scName, err)
			}
			seqJSON, parJSON := docBytes(t, seqC), docBytes(t, parC)
			if !bytes.Equal(seqJSON, parJSON) {
				t.Fatalf("seed %d %s: sequential vs parallel documents differ under budget", seed, scName)
			}

			r := seqC.Responsibility
			if r == nil {
				t.Fatal("budgeted run published no responsibility block")
			}
			if r.ProbesSpent+r.ProbesSkipped != r.ProbesDemanded {
				t.Fatalf("seed %d %s: spent %d + skipped %d != demanded %d",
					seed, scName, r.ProbesSpent, r.ProbesSkipped, r.ProbesDemanded)
			}
			for name, u := range map[string]budget.Usage{
				"anycast": r.Anycast, "gcd": r.GCD, "chaos": r.Chaos,
			} {
				if !u.Reconciles() {
					t.Fatalf("seed %d %s: %s stage does not reconcile: %+v", seed, scName, name, u)
				}
			}
			if r.ProbesSpent > b.DailyProbes {
				t.Fatalf("seed %d %s: spent %d exceeds cap %d", seed, scName, r.ProbesSpent, b.DailyProbes)
			}
			if r.ProbesSkipped == 0 || r.BudgetTargets == 0 {
				t.Fatalf("seed %d %s: a 1/8th budget skipped nothing: %+v", seed, scName, r)
			}
			if r.BudgetRemaining < 0 || r.BudgetRemaining != b.DailyProbes-r.ProbesSpent {
				t.Fatalf("seed %d %s: remaining %d inconsistent with cap %d - spent %d",
					seed, scName, r.BudgetRemaining, b.DailyProbes, r.ProbesSpent)
			}
			// The census must still complete with findings (§5.5.2: the
			// methodology tolerates reduced probing).
			if len(seqC.Entries) == 0 {
				t.Fatalf("seed %d %s: budgeted census found nothing", seed, scName)
			}
		}
	}
}

// TestZeroValueBudgetByteIdentical pins the governance layer's
// do-no-harm contract: a pipeline configured with the zero-value Budget
// (and no opt-outs) publishes byte-identical documents to a pipeline
// with no governance knobs at all, and neither carries a responsibility
// block.
func TestZeroValueBudgetByteIdentical(t *testing.T) {
	sc, _ := chaos.Lookup(chaos.ScenarioLossyTransit)
	for _, opts := range []DayOptions{{}, {Chaos: &sc}} {
		plain, err := govPipeline(t, govWorld(t, 1), budget.Budget{}, nil, false).RunDaily(30, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Responsibility != nil {
			t.Fatal("zero-value budget published a responsibility block")
		}
		parallel, err := govPipeline(t, govWorld(t, 1), budget.Budget{}, nil, true).RunDaily(30, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(docBytes(t, plain), docBytes(t, parallel)) {
			t.Fatal("zero-value budget: sequential vs parallel differ")
		}
	}
}

// TestOptOutRegistrySuppressesAndAudits runs a census with one prefix
// and one origin AS opted out and checks the paper-facing contract: the
// opted-out prefix never appears in the published document, the skips
// are accounted (never silently dropped), and the registry's audit
// trail names the entries that suppressed probing.
func TestOptOutRegistrySuppressesAndAudits(t *testing.T) {
	w := govWorld(t, 1)

	// Find a prefix that an ungoverned census publishes, so suppression
	// is observable.
	base, err := govPipeline(t, w, budget.Budget{DailyProbes: 1 << 50}, nil, false).RunDaily(40, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := base.Document()
	if len(doc.Entries) == 0 {
		t.Fatal("baseline census empty")
	}
	victim := doc.Entries[0].Prefix
	victimAS := netsim.ASN(doc.Entries[len(doc.Entries)/2].OriginASN)

	reg := budget.NewRegistry()
	reg.AddPrefix(netip.MustParsePrefix(victim))
	reg.AddAS(victimAS)

	c, err := govPipeline(t, govWorld(t, 1), budget.Budget{}, reg, false).RunDaily(40, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	govDoc := c.Document()
	for i := range govDoc.Entries {
		if govDoc.Entries[i].Prefix == victim {
			t.Fatalf("opted-out prefix %s still published", victim)
		}
		if govDoc.Entries[i].OriginASN == uint32(victimAS) && !govDoc.Entries[i].FromFeedback {
			t.Fatalf("prefix %s of opted-out AS%d still probed", govDoc.Entries[i].Prefix, victimAS)
		}
	}
	r := c.Responsibility
	if r == nil || r.OptOutTargets == 0 || r.OptOutProbes == 0 {
		t.Fatalf("opt-out skips unaccounted: %+v", r)
	}
	if r.ProbesSpent+r.ProbesSkipped != r.ProbesDemanded {
		t.Fatalf("opt-out run does not reconcile: %+v", r)
	}
	touched := reg.Touched()
	if len(touched) == 0 {
		t.Fatal("audit trail empty")
	}
	var sawPrefix bool
	for _, tc := range touched {
		if tc.Entry == victim {
			sawPrefix = true
			if tc.Targets == 0 || tc.Probes == 0 {
				t.Fatalf("audit row degenerate: %+v", tc)
			}
		}
	}
	if !sawPrefix {
		t.Fatalf("audit trail missing %s: %+v", victim, touched)
	}
}

// TestAbuseComplaintStepsRate pins the adaptive rate feedback: an
// AbuseComplaint impairment active on the census day halves the
// effective rate (published in the responsibility block) without
// impairing any probe, and the 3-complaint floor is 1/8th.
func TestAbuseComplaintStepsRate(t *testing.T) {
	complain := func(n int) *chaos.Scenario {
		sc := &chaos.Scenario{Name: "complaints"}
		for i := 0; i < n; i++ {
			sc.Impairments = append(sc.Impairments, chaos.Impairment{Kind: chaos.AbuseComplaint})
		}
		return sc
	}
	for _, tc := range []struct {
		complaints, wantSteps int
		wantRate              float64
	}{
		{1, 1, 5000}, {3, 3, 1250}, {5, 3, 1250},
	} {
		c, err := govPipeline(t, govWorld(t, 1), budget.Budget{}, nil, false).
			RunDaily(20, false, DayOptions{Chaos: complain(tc.complaints)})
		if err != nil {
			t.Fatal(err)
		}
		r := c.Responsibility
		if r == nil {
			t.Fatal("rate-stepped run published no responsibility block")
		}
		if r.RateSteps != tc.wantSteps || r.RateEffective != tc.wantRate {
			t.Fatalf("%d complaints: steps %d rate %v, want %d/%v",
				tc.complaints, r.RateSteps, r.RateEffective, tc.wantSteps, tc.wantRate)
		}
		if len(c.Entries) == 0 {
			t.Fatal("stepped-rate census found nothing")
		}
	}

	// A pure complaint (no budget) must not drop probes: the census at
	// full rate and the complaint run probe the same target set.
	full, err := govPipeline(t, govWorld(t, 1), budget.Budget{}, nil, false).RunDaily(20, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stepped, err := govPipeline(t, govWorld(t, 1), budget.Budget{}, nil, false).
		RunDaily(20, false, DayOptions{Chaos: complain(1)})
	if err != nil {
		t.Fatal(err)
	}
	if full.ProbesAnycastStage != stepped.ProbesAnycastStage {
		t.Fatalf("complaint changed probe count: %d vs %d", full.ProbesAnycastStage, stepped.ProbesAnycastStage)
	}
}

// TestResponsibilityDocumentRoundTrip pins the responsibility block
// through the full document codec chain: WriteJSON → ParseDocument, the
// streaming reader/writer, the day-over-day delta, and DeepCopy.
func TestResponsibilityDocumentRoundTrip(t *testing.T) {
	p := govPipeline(t, govWorld(t, 1), budget.Budget{DailyProbes: 1 << 50}, nil, false)
	c, err := p.RunDaily(10, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := c.Document()
	if doc.Responsibility == nil {
		t.Fatal("no responsibility block")
	}

	// Canonical bytes → ParseDocument.
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	canonical := append([]byte(nil), buf.Bytes()...)
	parsed, err := ParseDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Responsibility == nil || *parsed.Responsibility != *doc.Responsibility {
		t.Fatalf("responsibility did not survive ParseDocument: %+v", parsed.Responsibility)
	}

	// The archive's scanner must carry the block in its header, and the
	// streaming writer must reproduce the canonical bytes.
	scanned, ok := ScanDocument(canonical)
	if !ok {
		t.Fatal("the scanner declined a governed document")
	}
	if scanned.Responsibility == nil || *scanned.Responsibility != *doc.Responsibility {
		t.Fatalf("responsibility lost by ScanDocument: %+v", scanned.Responsibility)
	}
	var streamed bytes.Buffer
	if err := StreamDocument(&streamed, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), canonical) {
		t.Fatal("streaming codec bytes differ from canonical document")
	}

	// Delta chain: a governed day applied on top of its predecessor must
	// reproduce the new day's block.
	c2, err := p.RunDaily(11, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc2 := c2.Document()
	delta := DiffDocuments(doc, doc2)
	rebuilt, err := delta.Apply(doc)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := doc2.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("delta apply lost the responsibility block")
	}

	// DeepCopy must not alias the block.
	cp := doc.DeepCopy()
	cp.Responsibility.ProbesSpent++
	if cp.Responsibility.ProbesSpent == doc.Responsibility.ProbesSpent {
		t.Fatal("DeepCopy aliases the responsibility block")
	}
}
