package netsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
)

// TestTelemetryCounts pins the probe accounting Instrument installs:
// issued and delivered counts move, cache lookups split into hits and
// misses, and counting does not change what a probe returns.
func TestTelemetryCounts(t *testing.T) {
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
	base, baseOK := w.ProbeAnycast(d, 0, tg, ctx)

	reg := obs.New()
	w.Instrument(reg)
	if w.Registry() != reg {
		t.Fatal("Instrument did not attach its registry")
	}
	tel := w.tel
	del, ok := w.ProbeAnycast(d, 0, tg, ctx)
	if ok != baseOK || del != base {
		t.Fatal("telemetry changed the probe result")
	}
	if tel.ProbesAnycast() != 1 {
		t.Fatalf("anycast probes = %d, want 1", tel.ProbesAnycast())
	}
	if baseOK && tel.RepliesAnycast() != 1 {
		t.Fatalf("anycast replies = %d, want 1", tel.RepliesAnycast())
	}
	// The warm repeat hits the routing caches.
	hits := tel.CacheHitsReply() + tel.CacheHitsSite()
	if hits == 0 {
		t.Fatal("warm probe recorded no cache hits")
	}

	// A probe train counts the probes it stands for, with the totals of
	// the per-probe run, but resolves its plan — and with it a
	// single-location target's reply catchment — once.
	replyLookups := func() int64 { return tel.CacheHitsReply() + tel.CacheMissesReply() }
	tr := Train{First: ctx.At, Offset: time.Second, Gap: ctx.Gap, Flow: ctx.Flow}
	for tg.KindAt(3) != Unicast || !tg.Responsive[packet.ICMP] {
		tg = w.TargetAt(false, tg.ID+1)
	}
	probes0, replies0, lookups0 := tel.ProbesAnycast(), tel.RepliesAnycast(), replyLookups()
	for wk := 0; wk < d.NumSites(); wk++ {
		c := ctx
		c.At = tr.First.Add(time.Duration(wk) * tr.Offset)
		w.ProbeAnycast(d, wk, tg, c)
	}
	perProbe := [3]int64{tel.ProbesAnycast() - probes0, tel.RepliesAnycast() - replies0, replyLookups() - lookups0}
	probes0, replies0, lookups0 = tel.ProbesAnycast(), tel.RepliesAnycast(), replyLookups()
	_, probes, replies := w.AnycastTrain(d, tg, tr)
	train := [3]int64{tel.ProbesAnycast() - probes0, tel.RepliesAnycast() - replies0, replyLookups() - lookups0}
	if perProbe[2] != perProbe[0] {
		t.Fatalf("%d probes of a unicast target made %d reply-cache lookups, want one plan each", perProbe[0], perProbe[2])
	}
	if train != [3]int64{perProbe[0], perProbe[1], 1} || int64(probes) != train[0] || int64(replies) != train[1] {
		t.Fatalf("train counted (probes, replies, reply-cache lookups) = %v and returned (%d, %d), want %v",
			train, probes, replies, [3]int64{perProbe[0], perProbe[1], 1})
	}

	vp, err := w.NewVP("tel-vp", "Amsterdam")
	if err != nil {
		t.Fatal(err)
	}
	w.ProbeUnicast(vp, tg, packet.ICMP, DayTime(3), 1)
	if tel.ProbesUnicast() != 1 {
		t.Fatalf("unicast probes = %d, want 1", tel.ProbesUnicast())
	}
	// The /32 sweep's representative-offset delegation must count once.
	before := tel.ProbesUnicast()
	w.probeAddrCounted(&vp, hashString(vp.Name), tg, repOffset(tg), packet.ICMP, DayTime(3), 1)
	if got := tel.ProbesUnicast() - before; got != 1 {
		t.Fatalf("sweep probe counted %d times, want 1", got)
	}

	// A GCD fan counts what the fold of its per-VP probes counts, in one
	// add, and resolves a target catchment once per answering VP — on a
	// cold row computing it once per distinct city — where the fold
	// resolves one per answered probe.
	var vps []VP
	for i, city := range cities.VultrMetros()[:6] {
		vp, err := w.NewVP(fmt.Sprintf("tel-fan-%d", i), city)
		if err != nil {
			t.Fatal(err)
		}
		vps = append(vps, vp, vp) // two monitors per metro: one row entry
	}
	var multi *Target // the last such target: the probes above did not warm its row
	for i := w.NumTargets(false) - 1; multi == nil; i-- {
		if tg := w.TargetAt(false, i); tg.KindAt(3) == Anycast && len(tg.Sites) > 1 && tg.Responsive[packet.ICMP] {
			multi = tg
		}
	}
	siteLookups := func() [2]int64 {
		return [2]int64{tel.CacheHitsSite() + tel.CacheMissesSite(), tel.CacheMissesSite()}
	}
	unicast := func() [2]int64 { return [2]int64{tel.ProbesUnicast(), tel.RepliesUnicast()} }
	u0, l0 := unicast(), siteLookups()
	best := make([]time.Duration, len(vps))
	fanProbes, fanReplies := w.UnicastFan(NewVPTable(vps), multi, packet.ICMP, DayTime(3), best)
	u1, l1 := unicast(), siteLookups()
	answered := int64(0)
	for _, rtt := range best {
		if rtt != 0 {
			answered++
		}
	}
	if answered == 0 || u1[0]-u0[0] != int64(fanProbes) || u1[1]-u0[1] != int64(fanReplies) {
		t.Fatalf("fan returned (%d, %d) with %d VPs answering, telemetry counted %v", fanProbes, fanReplies, answered, [2]int64{u1[0] - u0[0], u1[1] - u0[1]})
	}
	if got, want := [2]int64{l1[0] - l0[0], l1[1] - l0[1]}, [2]int64{answered, answered / 2}; got != want {
		t.Fatalf("cold fan made (site lookups, misses) = %v, want %v", got, want)
	}
	for _, vp := range vps {
		w.ProbeUnicast(vp, multi, packet.ICMP, DayTime(3), 0)
	}
	u2, l2 := unicast(), siteLookups()
	if u2[0]-u1[0] != u1[0]-u0[0] || u2[1]-u1[1] != u1[1]-u0[1] {
		t.Fatalf("fold counted (probes, replies) %v, the fan %v", [2]int64{u2[0] - u1[0], u2[1] - u1[1]}, [2]int64{u1[0] - u0[0], u1[1] - u0[1]})
	}
	if got, want := [2]int64{l2[0] - l1[0], l2[1] - l1[1]}, [2]int64{answered, 0}; got != want {
		t.Fatalf("warm fold made (site lookups, misses) = %v, want %v", got, want)
	}

	// Instrument exposes the eight netsim series on its registry.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`laces_netsim_probes_total{kind="anycast"}`,
		`laces_netsim_probes_total{kind="unicast"}`,
		`laces_netsim_replies_total{kind="anycast"}`,
		`laces_netsim_cache_hits_total{cache="reply"}`,
		`laces_netsim_cache_misses_total{cache="site"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %s:\n%s", want, buf.String())
		}
	}

	// Detaching stops the counting and forgets the registry.
	w.Instrument(nil)
	if w.Registry() != nil {
		t.Fatal("Instrument(nil) left the registry attached")
	}
	probes0 = tel.ProbesAnycast()
	w.ProbeAnycast(d, 0, tg, ctx)
	w.AnycastTrain(d, tg, tr)
	if tel.ProbesAnycast() != probes0 {
		t.Fatal("uninstalled telemetry still counting")
	}
}

// TestProbeHotPathNoAllocsInstrumented extends the Impairer guard to
// telemetry: on an instrumented world, the warm anycast and unicast
// probe paths must stay allocation-free — instrumentation may not tax
// the census hot loop.
func TestProbeHotPathNoAllocsInstrumented(t *testing.T) {
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
	w.Instrument(obs.New())
	defer w.Instrument(nil)
	w.ProbeAnycast(d, 0, tg, ctx) // warm the routing caches
	if allocs := testing.AllocsPerRun(200, func() {
		w.ProbeAnycast(d, 0, tg, ctx)
	}); allocs != 0 {
		t.Fatalf("instrumented warm anycast probe allocates %.1f objects per run, want 0", allocs)
	}
	assertTrainsNoAllocs(t, w, d, ctx, "instrumented")

	vp, err := w.NewVP("alloc-vp", "Amsterdam")
	if err != nil {
		t.Fatal(err)
	}
	at := DayTime(3)
	w.ProbeUnicast(vp, tg, packet.ICMP, at, 1)
	if allocs := testing.AllocsPerRun(200, func() {
		w.ProbeUnicast(vp, tg, packet.ICMP, at, 1)
	}); allocs != 0 {
		t.Fatalf("instrumented warm unicast probe allocates %.1f objects per run, want 0", allocs)
	}
	assertFansNoAllocs(t, w, "instrumented")
}

// TestProbeHotPathNoAllocsDisabled pins the disabled-registry side of
// the same guard: handles resolved from a nil obs.Registry cost one
// branch and zero allocations around the probe call.
func TestProbeHotPathNoAllocsDisabled(t *testing.T) {
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
	var reg *obs.Registry // disabled telemetry
	probes := reg.Counter("laces_stage_probes_total", "")
	done := reg.ProgressDone()
	w.ProbeAnycast(d, 0, tg, ctx) // warm the routing caches
	if allocs := testing.AllocsPerRun(200, func() {
		w.ProbeAnycast(d, 0, tg, ctx)
		probes.Inc()
		done.Inc()
	}); allocs != 0 {
		t.Fatalf("disabled-registry probe path allocates %.1f objects per run, want 0", allocs)
	}
	assertTrainsNoAllocs(t, w, d, ctx, "disabled-registry")
}
