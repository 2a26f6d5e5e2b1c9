package chaos

import (
	"reflect"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

var testWorld = mustWorld()

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func testDeployment(t *testing.T) *netsim.Deployment {
	t.Helper()
	d, err := testWorld.NewDeployment("chaos-test", []string{
		"Amsterdam", "New York", "Tokyo", "Sydney", "Frankfurt", "Singapore",
	}, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func icmpTarget(t *testing.T) *netsim.Target {
	t.Helper()
	for i := range testWorld.NumTargets(false) {
		if testWorld.TargetAt(false, i).Responsive[packet.ICMP] {
			return testWorld.TargetAt(false, i)
		}
	}
	t.Fatal("no ICMP-responsive target")
	return nil
}

func probeCtx(day int, proto packet.Protocol, tg *netsim.Target) netsim.ProbeCtx {
	return netsim.ProbeCtx{
		At:   netsim.DayTime(day).Add(time.Hour),
		Flow: netsim.FlowKey{Proto: proto, StaticFlow: 1},
		Gap:  time.Second,
		Seq:  uint64(tg.ID),
	}
}

func TestRegistryBuiltins(t *testing.T) {
	want := []string{
		ScenarioAbuseComplaints, ScenarioClockSkew, ScenarioFlappingUpstream,
		ScenarioLatencyStorm, ScenarioLossyTransit, ScenarioRegionalBlackout,
		ScenarioReplyThrottle, ScenarioSiteOutage,
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want the 8 built-ins sorted: %v", got, want)
	}
	if n := len(Builtins()); n != len(want) {
		t.Fatalf("Builtins() has %d scenarios, want %d", n, len(want))
	}
	scenarios := Scenarios()
	if len(scenarios) != len(want) {
		t.Fatalf("Scenarios() returned %d, want %d", len(scenarios), len(want))
	}
	for i, name := range want {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("built-in %q not found", name)
		}
		if sc.Name != name || scenarios[i].Name != name {
			t.Fatalf("built-in %q: Lookup gave %q, Scenarios()[%d] gave %q", name, sc.Name, i, scenarios[i].Name)
		}
		if sc.Description == "" || len(sc.Impairments) == 0 {
			t.Fatalf("built-in %q is empty", name)
		}
		if !sc.ActiveOn(180) {
			t.Fatalf("built-in %q not active on the resilience day 180", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup found a scenario that is not built in")
	}
}

func TestScopeDays(t *testing.T) {
	all := Scope{}
	if !all.ActiveOn(0) || !all.ActiveOn(533) {
		t.Fatal("zero-day scope should cover the whole timeline")
	}
	windowed := Scope{Days: Days(10, 20)}
	if windowed.ActiveOn(9) || !windowed.ActiveOn(10) || !windowed.ActiveOn(20) || windowed.ActiveOn(21) {
		t.Fatal("day window not inclusive [10, 20]")
	}
	// A day-0-only window must not collide with the zero value's
	// whole-timeline meaning.
	day0 := Scope{Days: Days(0, 0)}
	if !day0.ActiveOn(0) || day0.ActiveOn(1) || day0.ActiveOn(533) {
		t.Fatal("Days(0, 0) did not scope to day 0 only")
	}
	sc := Scenario{Impairments: []Impairment{{Kind: Blackhole, Scope: windowed}}}
	if sc.ActiveOn(9) || !sc.ActiveOn(15) {
		t.Fatal("scenario activity does not follow impairment windows")
	}
	if d := sc.FirstActiveDay(534); d != 10 {
		t.Fatalf("FirstActiveDay = %d, want 10", d)
	}
	if d := sc.FirstActiveDay(5); d != -1 {
		t.Fatalf("FirstActiveDay before the window = %d, want -1", d)
	}
}

func TestEngineBlackholeAndScopes(t *testing.T) {
	d := testDeployment(t)
	tg := icmpTarget(t)

	eng := NewEngine(testWorld, Scenario{Name: "bh", Impairments: []Impairment{
		{Kind: Blackhole, Scope: Scope{Days: Days(5, 6), Protocols: []packet.Protocol{packet.ICMP}}},
	}})
	if !eng.ImpairAnycast(d, 0, tg, probeCtx(5, packet.ICMP, tg)).Drop {
		t.Fatal("in-window ICMP probe not dropped")
	}
	if eng.ImpairAnycast(d, 0, tg, probeCtx(7, packet.ICMP, tg)).Drop {
		t.Fatal("out-of-window probe dropped")
	}
	if eng.ImpairAnycast(d, 0, tg, probeCtx(5, packet.TCP, tg)).Drop {
		t.Fatal("out-of-protocol probe dropped")
	}

	// Worker scope.
	eng = NewEngine(testWorld, Scenario{Name: "bh-w", Impairments: []Impairment{
		{Kind: Blackhole, Scope: Scope{Workers: []int{2}}},
	}})
	if !eng.ImpairAnycast(d, 2, tg, probeCtx(5, packet.ICMP, tg)).Drop {
		t.Fatal("scoped worker not dropped")
	}
	if eng.ImpairAnycast(d, 1, tg, probeCtx(5, packet.ICMP, tg)).Drop {
		t.Fatal("unscoped worker dropped")
	}
	// Worker-index scopes never apply to unicast probes.
	vp, err := testWorld.NewVP("chaos-vp", "Amsterdam", 0)
	if err != nil {
		t.Fatal(err)
	}
	if eng.ImpairUnicast(vp, tg, packet.ICMP, netsim.DayTime(5)).Drop {
		t.Fatal("worker-scoped impairment hit a unicast VP")
	}

}

func TestEnginePartitionByContinent(t *testing.T) {
	d := testDeployment(t)
	tg := icmpTarget(t)
	eng := NewEngine(testWorld, Scenario{Name: "part", Impairments: []Impairment{
		{Kind: Partition, Scope: Scope{WorkerContinents: []cities.Continent{cities.Europe}}},
	}})
	// Site 0 is Amsterdam (EU), site 2 is Tokyo (AS).
	if !eng.ImpairAnycast(d, 0, tg, probeCtx(5, packet.ICMP, tg)).Drop {
		t.Fatal("European site not partitioned")
	}
	if eng.ImpairAnycast(d, 2, tg, probeCtx(5, packet.ICMP, tg)).Drop {
		t.Fatal("Asian site partitioned")
	}
	// Unicast VPs partition by their own continent.
	ams, err := testWorld.NewVP("part-ams", "Amsterdam", 0)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := testWorld.NewVP("part-tok", "Tokyo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.ImpairUnicast(ams, tg, packet.ICMP, netsim.DayTime(5)).Drop {
		t.Fatal("European VP not partitioned")
	}
	if eng.ImpairUnicast(tok, tg, packet.ICMP, netsim.DayTime(5)).Drop {
		t.Fatal("Asian VP partitioned")
	}
}

func TestEngineLossFractionAndDeterminism(t *testing.T) {
	d := testDeployment(t)
	eng := NewEngine(testWorld, Scenario{Name: "loss", Impairments: []Impairment{
		{Kind: Loss, Frac: 0.4},
	}})
	drops := 0
	n := 0
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		n++
		ctx := probeCtx(5, packet.ICMP, tg)
		first := eng.ImpairAnycast(d, 1, tg, ctx)
		if eng.ImpairAnycast(d, 1, tg, ctx) != first {
			t.Fatal("loss verdict not deterministic")
		}
		if first.Drop {
			drops++
		}
		if n >= 2000 {
			break
		}
	}
	frac := float64(drops) / float64(n)
	if frac < 0.35 || frac > 0.45 {
		t.Fatalf("loss fraction %.3f, want ~0.4", frac)
	}
}

func TestEngineDelayJitterAndSkew(t *testing.T) {
	d := testDeployment(t)
	tg := icmpTarget(t)
	eng := NewEngine(testWorld, Scenario{Name: "dl", Impairments: []Impairment{
		{Kind: Delay, Delay: 30 * time.Millisecond, Jitter: 20 * time.Millisecond},
		{Kind: ClockSkew, Skew: 2 * time.Hour, Scope: Scope{Workers: []int{1}}},
	}})
	pi := eng.ImpairAnycast(d, 0, tg, probeCtx(5, packet.ICMP, tg))
	if pi.ExtraRTT < 30*time.Millisecond || pi.ExtraRTT >= 50*time.Millisecond {
		t.Fatalf("delay %v outside [30ms, 50ms)", pi.ExtraRTT)
	}
	if pi.TimeShift != 0 {
		t.Fatal("unskewed worker got a time shift")
	}
	pi = eng.ImpairAnycast(d, 1, tg, probeCtx(5, packet.ICMP, tg))
	if pi.TimeShift != 2*time.Hour {
		t.Fatalf("skewed worker shift %v, want 2h", pi.TimeShift)
	}
}

func TestEngineThrottleStableWithinDay(t *testing.T) {
	d := testDeployment(t)
	eng := NewEngine(testWorld, Scenario{Name: "thr", Impairments: []Impairment{
		{Kind: Throttle, Frac: 0.5},
	}})
	tg := icmpTarget(t)
	ctxA := probeCtx(5, packet.ICMP, tg)
	ctxB := probeCtx(5, packet.ICMP, tg)
	ctxB.At = ctxB.At.Add(3 * time.Hour) // later the same day
	if eng.ImpairAnycast(d, 0, tg, ctxA).Drop != eng.ImpairAnycast(d, 0, tg, ctxB).Drop {
		t.Fatal("throttle verdict flapped within one day")
	}
}

func TestEngineMissingWorkers(t *testing.T) {
	d := testDeployment(t)
	eng := NewEngine(testWorld, Scenario{Name: "so", Impairments: []Impairment{
		{Kind: SiteOutage, Scope: Scope{Days: Days(10, 12), Workers: []int{1, 4}}},
	}})
	if got := eng.MissingWorkers(d, 9); got != 0 {
		t.Fatalf("outage before window: %b", got)
	}
	if got := eng.MissingWorkers(d, 11); got != 1<<1|1<<4 {
		t.Fatalf("outage workers = %b, want {1, 4}", got)
	}
	// Continent-scoped outage resolves via site locations.
	eng = NewEngine(testWorld, Scenario{Name: "so-eu", Impairments: []Impairment{
		{Kind: SiteOutage, Scope: Scope{WorkerContinents: []cities.Continent{cities.Europe}}},
	}})
	if got := eng.MissingWorkers(d, 0); got != 1<<0|1<<4 { // Amsterdam, Frankfurt
		t.Fatalf("EU outage workers = %b, want {0, 4}", got)
	}
}

func TestScoreAndStats(t *testing.T) {
	truth := map[int]bool{1: true, 2: true, 3: true}
	claimed := map[int]bool{2: true, 3: true, 9: true}
	s := Score(claimed, truth)
	if s.TP != 2 || s.FP != 1 || s.FN != 1 {
		t.Fatalf("score = %+v", s)
	}
	if p := s.Precision(); p < 0.66 || p > 0.67 {
		t.Fatalf("precision = %f", p)
	}
	if r := s.Recall(); r < 0.66 || r > 0.67 {
		t.Fatalf("recall = %f", r)
	}
	empty := Score(nil, nil)
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Fatal("vacuous precision/recall should be 1")
	}
}
