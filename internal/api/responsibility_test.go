package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
)

// TestResponsibilityEndpoint pins GET /v1/responsibility: 404 on an
// ungoverned server, the full block on a governed one, and the 400
// validation matrix shared with the other day/family endpoints.
func TestResponsibilityEndpoint(t *testing.T) {
	// The shared ungoverned server computes days without a ledger.
	if code, body := get(t, "/v1/responsibility?day=1"); code != http.StatusNotFound {
		t.Fatalf("ungoverned server: code %d, body %v", code, body)
	}

	// A governed server publishes the block.
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(testWorld, d,
		func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) },
		func() int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	reg := budget.NewRegistry()
	reg.AddAS(1) // harmless: suppression only needs the ledger active
	s.Govern(budget.Budget{DailyProbes: 1 << 50}, reg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/responsibility?day=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("governed server: code %d", resp.StatusCode)
	}
	var body struct {
		Day            int    `json:"day"`
		Family         string `json:"family"`
		Responsibility struct {
			ProbesDemanded  int64 `json:"probes_demanded"`
			ProbesSpent     int64 `json:"probes_spent"`
			ProbesSkipped   int64 `json:"probes_skipped"`
			BudgetRemaining int64 `json:"budget_remaining"`
		} `json:"responsibility"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Day != 1 || body.Family != "ipv4" {
		t.Fatalf("body = %+v", body)
	}
	r := body.Responsibility
	if r.ProbesDemanded == 0 || r.ProbesSpent+r.ProbesSkipped != r.ProbesDemanded {
		t.Fatalf("responsibility does not reconcile: %+v", r)
	}
	if r.BudgetRemaining != (1<<50)-r.ProbesSpent {
		t.Fatalf("remaining %d inconsistent with spent %d", r.BudgetRemaining, r.ProbesSpent)
	}

	// Idempotency under a binding cap: recomputing a day (here after
	// evicting it from a 1-entry LRU with an interleaved request) must
	// serve the identical document — a persistent ledger would return a
	// starved, near-empty census the second time.
	capped, err := NewServer(testWorld, d,
		func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) },
		func() int { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	capped.CacheSize = 1
	capped.Govern(budget.Budget{DailyProbes: 100_000}, nil)
	cappedSrv := httptest.NewServer(capped.Handler())
	defer cappedSrv.Close()
	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(cappedSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d", path, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	first := fetch("/v1/census?day=1")
	fetch("/v1/census?day=2") // evicts day 1 from the LRU
	if again := fetch("/v1/census?day=1"); again != first {
		t.Fatal("recomputed governed day differs from its first serving")
	}
	if !strings.Contains(first, `"budget_targets"`) {
		t.Fatalf("capped day shows no budget suppression:\n%.300s", first)
	}

	// Validation matrix (shared parseDayFamily).
	for _, path := range []string{
		"/v1/responsibility?day=-1",
		"/v1/responsibility?day=x",
		"/v1/responsibility?family=ipv9",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", path, resp.StatusCode)
		}
	}
}
