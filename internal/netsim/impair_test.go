package netsim

import (
	"fmt"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/packet"
)

// fakeImpairer is a scriptable netsim.Impairer for hook tests.
type fakeImpairer struct {
	anycast func(d *Deployment, worker int, tg *Target, ctx ProbeCtx) ProbeImpairment
	unicast func(vp VP, tg *Target, proto packet.Protocol, at time.Time) ProbeImpairment
}

func (f *fakeImpairer) ImpairAnycast(d *Deployment, worker int, tg *Target, ctx ProbeCtx) ProbeImpairment {
	if f.anycast == nil {
		return ProbeImpairment{}
	}
	return f.anycast(d, worker, tg, ctx)
}

func (f *fakeImpairer) ImpairUnicast(vp VP, tg *Target, proto packet.Protocol, at time.Time) ProbeImpairment {
	if f.unicast == nil {
		return ProbeImpairment{}
	}
	return f.unicast(vp, tg, proto, at)
}

// responsiveTarget returns some ICMP-responsive target.
func responsiveTarget(t *testing.T, w *World) *Target {
	t.Helper()
	for i := range w.NumTargets(false) {
		if w.TargetAt(false, i).Responsive[packet.ICMP] {
			return w.TargetAt(false, i)
		}
	}
	t.Fatal("no ICMP-responsive target")
	return nil
}

func TestImpairerHook(t *testing.T) {
	w, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := tangled(t, w, PolicyUnmodified)
	tg := responsiveTarget(t, w)
	ctx := ProbeCtx{
		At:   DayTime(3),
		Flow: FlowKey{Proto: packet.ICMP, StaticFlow: 1},
		Gap:  time.Second,
		Seq:  uint64(tg.ID),
	}
	baseline, ok := w.ProbeAnycast(d, 0, tg, ctx)
	if !ok {
		t.Fatal("baseline probe unanswered")
	}

	// Drop loses the probe.
	w.SetImpairer(&fakeImpairer{anycast: func(*Deployment, int, *Target, ProbeCtx) ProbeImpairment {
		return ProbeImpairment{Drop: true}
	}})
	if _, ok := w.ProbeAnycast(d, 0, tg, ctx); ok {
		t.Fatal("dropped probe still delivered")
	}

	// ExtraRTT is added verbatim on top of the modelled latency.
	w.SetImpairer(&fakeImpairer{anycast: func(*Deployment, int, *Target, ProbeCtx) ProbeImpairment {
		return ProbeImpairment{ExtraRTT: 40 * time.Millisecond}
	}})
	if del, ok := w.ProbeAnycast(d, 0, tg, ctx); !ok || del.RTT != baseline.RTT+40*time.Millisecond {
		t.Fatalf("delay hook: got %v ok=%v, want %v", del.RTT, ok, baseline.RTT+40*time.Millisecond)
	}

	// TimeShift moves the probe across day boundaries (clock skew).
	var seenDay int
	w.SetImpairer(&fakeImpairer{anycast: func(_ *Deployment, _ int, _ *Target, c ProbeCtx) ProbeImpairment {
		seenDay = DayOf(c.At)
		return ProbeImpairment{TimeShift: 24 * time.Hour}
	}})
	w.ProbeAnycast(d, 0, tg, ctx)
	if seenDay != 3 {
		t.Fatalf("hook saw day %d, want the unshifted day 3", seenDay)
	}

	// Uninstalling restores baseline behaviour exactly.
	w.SetImpairer(nil)
	if del, ok := w.ProbeAnycast(d, 0, tg, ctx); !ok || del != baseline {
		t.Fatal("uninstalling the impairer did not restore baseline delivery")
	}
}

func TestImpairerHookUnicast(t *testing.T) {
	w, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	tg := responsiveTarget(t, w)
	vp, err := w.NewVP("impair-vp", "Amsterdam", 0)
	if err != nil {
		t.Fatal(err)
	}
	at := DayTime(3)
	baseRTT, baseSite, ok := w.ProbeUnicast(vp, tg, packet.ICMP, at, 1)
	if !ok {
		t.Skip("VP/target pair unlucky with GCD loss")
	}

	w.SetImpairer(&fakeImpairer{unicast: func(VP, *Target, packet.Protocol, time.Time) ProbeImpairment {
		return ProbeImpairment{Drop: true}
	}})
	if _, _, ok := w.ProbeUnicast(vp, tg, packet.ICMP, at, 1); ok {
		t.Fatal("dropped unicast probe still answered")
	}

	w.SetImpairer(&fakeImpairer{unicast: func(VP, *Target, packet.Protocol, time.Time) ProbeImpairment {
		return ProbeImpairment{ExtraRTT: 25 * time.Millisecond}
	}})
	rtt, site, ok := w.ProbeUnicast(vp, tg, packet.ICMP, at, 1)
	if !ok || site != baseSite || rtt != baseRTT+25*time.Millisecond {
		t.Fatalf("unicast delay hook: rtt=%v site=%d ok=%v", rtt, site, ok)
	}

	// The /32 sweep's direct paths consult the hook too.
	w.SetImpairer(&fakeImpairer{unicast: func(VP, *Target, packet.Protocol, time.Time) ProbeImpairment {
		return ProbeImpairment{Drop: true}
	}})
	for off := 0; off < 256; off++ {
		if _, _, ok := w.ProbeUnicastAddr(vp, tg, uint8(off), packet.ICMP, at, 1); ok {
			t.Fatalf("blackholed sweep probe at offset %d still answered", off)
		}
	}
	w.SetImpairer(nil)
}

// TestProbeHotPathNoAllocs guards the nil-impairer fast path: once the
// routing caches are warm, an anycast probe must not allocate — chaos
// support may not tax the clean census.
func TestProbeHotPathNoAllocs(t *testing.T) {
	w, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := tangled(t, w, PolicyUnmodified)
	tg := responsiveTarget(t, w)
	ctx := ProbeCtx{
		At:   DayTime(3),
		Flow: FlowKey{Proto: packet.ICMP, StaticFlow: 1},
		Gap:  time.Second,
		Seq:  uint64(tg.ID),
	}
	w.ProbeAnycast(d, 0, tg, ctx) // warm the routing caches
	allocs := testing.AllocsPerRun(200, func() {
		w.ProbeAnycast(d, 0, tg, ctx)
	})
	if allocs != 0 {
		t.Fatalf("warm anycast probe allocates %.1f objects per run, want 0", allocs)
	}
	assertTrainsNoAllocs(t, w, d, ctx, "clean")
	assertFansNoAllocs(t, w, "clean")
}

// assertFansNoAllocs extends a probe hot-path guard to UnicastFan: a warm
// fan, to a target answered from a per-VP site and to a unicast one,
// allocates nothing.
func assertFansNoAllocs(t *testing.T, w *World, label string) {
	t.Helper()
	var vps []VP
	for i, city := range cities.VultrMetros()[:8] {
		vp, err := w.NewVP(fmt.Sprintf("fan-%d", i), city, 0)
		if err != nil {
			t.Fatal(err)
		}
		vps = append(vps, vp, vp) // two monitors per metro share a row entry
	}
	tab := NewVPTable(vps)
	best := make([]time.Duration, tab.Len())
	targets := map[TargetKind]*Target{Anycast: nil, Unicast: nil}
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if k := tg.KindAt(3); tg.Responsive[packet.ICMP] && targets[k] == nil {
			if _, want := targets[k]; want {
				targets[k] = tg
			}
		}
	}
	for kind, tg := range targets {
		if tg == nil {
			t.Fatalf("world lacks an ICMP-responsive %v target", kind)
		}
		w.UnicastFan(tab, tg, packet.ICMP, DayTime(3), 2, best) // warm the row
		if allocs := testing.AllocsPerRun(200, func() { w.UnicastFan(tab, tg, packet.ICMP, DayTime(3), 2, best) }); allocs != 0 {
			t.Fatalf("%s warm fan to a %v target allocates %.1f objects per run, want 0", label, kind, allocs)
		}
	}
}

// assertTrainsNoAllocs extends a probe hot-path guard to AnycastTrain,
// both ways a train is answered: a steady plan's O(1) answer and a
// per-site walk (the first ICMP target of each sort). ctx supplies the
// day, flow and gap.
func assertTrainsNoAllocs(t *testing.T, w *World, d *Deployment, ctx ProbeCtx, label string) {
	t.Helper()
	tr := Train{First: ctx.At, Offset: ctx.Gap, Gap: ctx.Gap, Flow: ctx.Flow}
	var steady, stepped *Target
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		var p anycastPlan
		w.planAnycast(&p, d, tg, packet.ICMP, tr.Gap, DayOf(tr.First))
		if p.steady() && steady == nil {
			steady = tg
		} else if !p.steady() && stepped == nil {
			stepped = tg
		}
	}
	if steady == nil || stepped == nil {
		t.Fatal("world lacks a steady or a stepped ICMP train")
	}
	for name, tg := range map[string]*Target{"steady": steady, "stepped": stepped} {
		w.AnycastTrain(d, tg, tr) // warm the routing caches
		if allocs := testing.AllocsPerRun(200, func() { w.AnycastTrain(d, tg, tr) }); allocs != 0 {
			t.Fatalf("%s warm %s train allocates %.1f objects per run, want 0", label, name, allocs)
		}
	}
}
