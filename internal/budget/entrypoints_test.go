package budget_test

import (
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/bgpmon"
	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// probeCounter is an impairer that impairs nothing and counts the
// anycast-based and GCD probes sent to each watched prefix.
type probeCounter map[netip.Prefix]*atomic.Int64

func (c probeCounter) count(tg *netsim.Target) netsim.ProbeImpairment {
	if n := c[tg.Prefix]; n != nil {
		n.Add(1)
	}
	return netsim.ProbeImpairment{}
}

func (c probeCounter) ImpairAnycast(_ *netsim.Deployment, _ int, tg *netsim.Target, _ netsim.ProbeCtx) netsim.ProbeImpairment {
	return c.count(tg)
}

func (c probeCounter) ImpairUnicast(_ netsim.VP, tg *netsim.Target, _ packet.Protocol, _ time.Time) netsim.ProbeImpairment {
	return c.count(tg)
}

// TestNoProbeOutsideTheLedger drives every in-process entry point that
// probes — POST /v1/measure on a governed server, the BGP trigger and a
// census day with the global-BGP screen — against an opt-out registry
// that covers one target by prefix and another by origin AS, both turning
// up anycast on the day. No anycast-based or GCD probe reaches either
// target, each denial is named (403, no verdict, the registry's audit
// trail), and a census under a daily cap that detect and confirm exhaust
// sends the screen no traceroute probe while its usage reconciles.
// (`laces trace -optout` is the fourth entry point, checked in cmd/laces.)
func TestNoProbeOutsideTheLedger(t *testing.T) {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	gcdVPs := func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) }

	// A day on which two ICMP-answering targets of distinct origins turn
	// up anycast: one opted out by prefix, the other by AS.
	var day int
	var events []bgpmon.Event
	var byPrefix, byAS *netsim.Target
	for d := 1; d < 600 && byAS == nil; d++ {
		day, events, byPrefix = d, bgpmon.Feed(w, false, d), nil
		for _, ev := range events {
			tg := w.TargetAt(false, ev.TargetID)
			if ev.Kind != bgpmon.AnycastTurnUp || !tg.Responsive[packet.ICMP] {
				continue
			}
			if byPrefix == nil {
				byPrefix = tg
			} else if tg.Origin != byPrefix.Origin {
				byAS = tg
				break
			}
		}
	}
	if byAS == nil {
		t.Fatal("no day turns up two ICMP-answering targets of distinct origins")
	}
	reg := budget.NewRegistry()
	reg.AddPrefix(byPrefix.Prefix)
	reg.AddAS(byAS.Origin)
	counter := probeCounter{byPrefix.Prefix: new(atomic.Int64), byAS.Prefix: new(atomic.Int64)}
	w.SetImpairer(counter)
	defer w.SetImpairer(nil)

	// POST /v1/measure after Govern: 403 naming the decision, no verdict.
	srv, err := api.NewServer(w, dep, gcdVPs, func() int { return day })
	if err != nil {
		t.Fatal(err)
	}
	srv.Govern(budget.Budget{}, reg)
	h := srv.Handler()
	for _, tg := range []*netsim.Target{byPrefix, byAS} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/measure", strings.NewReader(`{"prefix":"`+tg.Prefix.String()+`"}`)))
		if body := rec.Body.String(); rec.Code != http.StatusForbidden || !strings.Contains(body, budget.DeniedOptOut.String()) ||
			strings.Contains(body, "gcd_anycast") {
			t.Errorf("measure %s: %d %s, want 403 naming %s and no verdict", tg.Prefix, rec.Code, body, budget.DeniedOptOut)
		}
	}

	// The trigger on the day's turn-ups, through a gate on the registry.
	vps, err := gcdVPs(day, false)
	if err != nil {
		t.Fatal(err)
	}
	mon := &bgpmon.Monitor{World: w, VPs: vps, Gate: budget.NewLedger(budget.Budget{}, reg).Gate(day)}
	for _, f := range mon.React(false, events) {
		if id := f.Event.TargetID; (id == byPrefix.ID || id == byAS.ID) && (f.Anycast || f.Sites != 0) {
			t.Errorf("trigger: a verdict for opted-out target %d: %+v", id, f)
		}
	}

	// A census day with the screen, under the registry and a daily cap
	// that detect and half of confirm's demand exhaust.
	census := func(b budget.Budget) *core.DailyCensus {
		t.Helper()
		p, err := core.NewPipeline(w, core.Config{
			Deployment: dep, GCDVPs: gcdVPs, ConfirmGlobalBGP: true, Budget: b, OptOut: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.RunDaily(day, false, core.DayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	open := census(budget.Budget{}).Responsibility
	capped := census(budget.Budget{DailyProbes: open.Anycast.Spent + open.GCD.Spent/2})
	r := capped.Responsibility
	switch {
	case capped.ProbesTracerouteStage != 0:
		t.Errorf("the screen sent %d traceroute probes past an exhausted daily cap", capped.ProbesTracerouteStage)
	case r.Screen == nil || r.Screen.Demanded == 0 || r.Screen.Spent != 0:
		t.Errorf("screen_stage %+v, want demand, all of it skipped", r.Screen)
	}
	for name, u := range map[string]budget.Usage{"anycast": r.Anycast, "gcd": r.GCD, "total": r.Total()} {
		if !u.Reconciles() {
			t.Errorf("%s usage %+v: spent + skipped != demanded", name, u)
		}
	}
	if r.Screen != nil && !r.Screen.Reconciles() {
		t.Errorf("screen usage %+v: spent + skipped != demanded", *r.Screen)
	}
	if total := r.Total(); total.Demanded != r.ProbesDemanded || total.Skipped != r.ProbesSkipped {
		t.Errorf("published totals %d/%d, stage sum %d/%d", r.ProbesDemanded, r.ProbesSkipped, total.Demanded, total.Skipped)
	}

	for pfx, n := range counter {
		if got := n.Load(); got != 0 {
			t.Errorf("%s is opted out, yet %d anycast-based or GCD probes reached it", pfx, got)
		}
	}
	touched := map[string]bool{}
	for _, tc := range reg.Touched() {
		touched[tc.Entry] = tc.Targets > 0
	}
	for _, entry := range reg.Entries() {
		if !touched[entry] {
			t.Errorf("opt-out entry %s suppressed nothing: audit trail %+v", entry, reg.Touched())
		}
	}
}
