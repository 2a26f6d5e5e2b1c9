package bgpmon

import (
	"testing"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

var testWorld = mustWorld()

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

// firstHijackDay finds a one-day anycast event (hijack model) in the test
// world.
func firstHijackDay(t *testing.T) (int, int) {
	t.Helper()
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Operator >= 0 || len(tg.TempWindows) != 1 {
			continue
		}
		win := tg.TempWindows[0]
		if win.From == win.To && win.From > 0 {
			return win.From, tg.ID
		}
	}
	t.Fatal("no single-day hijack events in test world")
	return 0, 0
}

func TestFeedEmitsTransitions(t *testing.T) {
	day, id := firstHijackDay(t)
	up := Feed(testWorld, false, day)
	foundUp := false
	for _, ev := range up {
		if ev.TargetID == id {
			if ev.Kind != AnycastTurnUp {
				t.Fatalf("event kind = %v, want turn-up", ev.Kind)
			}
			foundUp = true
		}
	}
	if !foundUp {
		t.Fatal("hijack turn-up not in feed")
	}
	// The day after, the event reverts.
	down := Feed(testWorld, false, day+1)
	foundDown := false
	for _, ev := range down {
		if ev.TargetID == id && ev.Kind == AnycastTurnDown {
			foundDown = true
		}
	}
	if !foundDown {
		t.Fatal("hijack turn-down not in feed")
	}
}

func TestFeedQuietOnStableDays(t *testing.T) {
	// Pick a day and verify only targets whose kind actually changed are
	// reported.
	events := Feed(testWorld, false, 200)
	for _, ev := range events {
		tg := testWorld.TargetAt(false, ev.TargetID)
		if tg.IsAnycastAt(199) == tg.IsAnycastAt(200) {
			t.Fatalf("event for unchanged target %d", ev.TargetID)
		}
	}
}

func TestTriggerCatchesSingleDayEvent(t *testing.T) {
	day, id := firstHijackDay(t)
	vps, err := platform.Ark(testWorld, day, false)
	if err != nil {
		t.Fatal(err)
	}
	m := &Monitor{
		World:               testWorld,
		VPs:                 vps,
		KnownAnycastOrigins: KnownOperators(testWorld),
	}
	findings := m.React(false, Feed(testWorld, false, day))
	if m.ProbesSent == 0 {
		t.Fatal("trigger sent no probes")
	}
	var hit *Finding
	for i := range findings {
		if findings[i].Event.TargetID == id {
			hit = &findings[i]
		}
	}
	if hit == nil {
		t.Fatal("hijacked prefix not measured")
	}
	tg := testWorld.TargetAt(false, id)
	if !tg.Responsive[packet.ICMP] {
		t.Skip("hijacked prefix not ICMP-responsive; GCD cannot confirm")
	}
	if !hit.Anycast {
		t.Fatal("trigger measurement did not confirm the one-day anycast event")
	}
	if !hit.SuspectedHijack {
		t.Fatalf("two-site anomaly from an unknown origin should be flagged: %+v", hit)
	}
}

func TestKnownOperatorsNotFlagged(t *testing.T) {
	// Imperva-style turn-ups are legitimate on-demand anycast, not
	// hijacks.
	ii := testWorld.OperatorByName("Incapsula")
	asn := testWorld.Operators[ii].ASN
	day := -1
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Origin == asn && len(tg.TempWindows) > 0 && tg.Responsive[packet.ICMP] {
			day = tg.TempWindows[0].From
			break
		}
	}
	if day <= 0 {
		t.Skip("no Incapsula window found")
	}
	vps, _ := platform.Ark(testWorld, day, false)
	m := &Monitor{World: testWorld, VPs: vps, KnownAnycastOrigins: KnownOperators(testWorld)}
	for _, f := range m.React(false, Feed(testWorld, false, day)) {
		if f.Event.Origin == asn && f.SuspectedHijack {
			t.Fatalf("known operator flagged as hijack: %+v", f)
		}
	}
}

func TestReactEmptyFeed(t *testing.T) {
	m := &Monitor{World: testWorld}
	if got := m.React(false, nil); got != nil {
		t.Fatal("empty feed should produce no findings")
	}
}

func TestEventKindString(t *testing.T) {
	if AnycastTurnUp.String() != "turn-up" || AnycastTurnDown.String() != "turn-down" {
		t.Fatal("kind names")
	}
	if EventKind(9).String() != "EventKind(9)" {
		t.Fatal("unknown kind")
	}
}
