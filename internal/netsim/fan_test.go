package netsim_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// fanEnv is one world the fan property runs against: the train property's
// world, days and special targets, with a GCD campaign's Ark pool on top.
type fanEnv struct {
	*trainEnv
	pool []netsim.VP
	vps  *netsim.VPTable
}

// fanEnvs holds, per family, a world with the configured GCD loss and one
// without it, indexed by fanEnvIdx.
var fanEnvs = sync.OnceValue(func() [4]*fanEnv {
	var out [4]*fanEnv
	for i := range out {
		lazyV6, lossless := i&2 != 0, i&1 != 0
		cfg := netsim.TestConfig()
		cfg.LazyTargets = lazyV6
		if lossless {
			cfg.GCDLossFrac = 0
		}
		for j := range cfg.Operators {
			// The test scale leaves Fastly one IPv6 prefix, not drawn as
			// backing anycast; eight put the rule in reach.
			if op := &cfg.Operators[j]; op.Name == "Fastly" {
				op.V6Prefixes = 8
			}
		}
		e := &fanEnv{trainEnv: newTrainEnv(cfg, lazyV6)}
		e.engines = append(e.engines, dayShifter{})
		pool, err := platform.Ark(e.w, 200, lazyV6)
		if err != nil {
			panic(err)
		}
		e.pool, e.vps = pool, netsim.NewVPTable(pool)
		out[i] = e
	}
	return out
})

func fanEnvIdx(lazyV6, lossless bool) int {
	i := 0
	if lazyV6 {
		i |= 2
	}
	if lossless {
		i |= 1
	}
	return i
}

// dayShifter moves a third of the (VP, target) pairs' probes a day ahead
// and a third a day back, with a little extra delay: the clock-skew shape
// that makes the fan re-plan per VP, which no built-in scenario applies to
// unicast probes.
type dayShifter struct{}

func (dayShifter) ImpairAnycast(*netsim.Deployment, int, *netsim.Target, netsim.ProbeCtx) netsim.ProbeImpairment {
	return netsim.ProbeImpairment{}
}

func (dayShifter) ImpairUnicast(vp netsim.VP, tg *netsim.Target, _ packet.Protocol, _ time.Time) netsim.ProbeImpairment {
	h := vp.CityIdx + 7*tg.ID + len(vp.Name)
	return netsim.ProbeImpairment{
		TimeShift: time.Duration(h%3-1) * 24 * time.Hour,
		ExtraRTT:  time.Duration(h%5) * time.Millisecond,
		Drop:      h%11 == 0,
	}
}

// fanCase is one point of the property's input space. The fuzz target
// takes the same fields, so a crasher replays as a fanCase.
type fanCase struct {
	lazyV6   bool
	lossless bool
	engine   uint8 // index into the env's engines, modulo its length
	id       uint32
	proto    uint8
	day      uint16
	startSec uint32 // seconds into the day
	cold     bool   // drop every cached catchment before the fan runs
	tel      bool   // count with telemetry installed
}

// fanSeen is what one case reached, for the grid's coverage check.
type fanSeen struct {
	kind       netsim.TargetKind
	responsive bool
	filtered   bool // a FiltersSpecifics VP answered a backing-anycast target
}

// foldProbes is the GCD stage's fan applied probe by probe: one
// ProbeUnicast per VP, keeping its reply's RTT.
func foldProbes(w *netsim.World, pool []netsim.VP, tg *netsim.Target, proto packet.Protocol, at time.Time) (best []time.Duration, probes, replies int) {
	best = make([]time.Duration, len(pool))
	for i, vp := range pool {
		probes++
		if rtt, _, ok := w.ProbeUnicast(vp, tg, proto, at, 0); ok {
			best[i] = rtt
			replies++
		}
	}
	return best, probes, replies
}

// checkFan asserts the contract for one case: UnicastFan's RTTs, probes
// and replies are the fold of per-VP ProbeUnicast, cold rows
// or warm, and telemetry counts each the same.
func checkFan(t *testing.T, c fanCase) fanSeen {
	t.Helper()
	e := fanEnvs()[fanEnvIdx(c.lazyV6, c.lossless)]
	e.w.SetImpairer(e.engines[int(c.engine)%len(e.engines)])
	defer e.w.SetImpairer(nil)
	if c.tel {
		e.w.Instrument(obs.New())
		defer e.w.Instrument(nil)
	}
	tg := e.w.TargetAt(e.v6, int(c.id)%e.w.NumTargets(e.v6))
	at := netsim.DayTime(int(c.day) % 534).Add(time.Duration(c.startSec%86400) * time.Second)
	proto := packet.Protocol(c.proto % 3)
	counted := func(f func() (int, int)) (n, got [2]int64) {
		p0, r0 := netsim.UnicastCounts(e.w)
		probes, replies := f()
		p1, r1 := netsim.UnicastCounts(e.w)
		return [2]int64{int64(probes), int64(replies)}, [2]int64{p1 - p0, r1 - r0}
	}

	var want, got []time.Duration
	fold := func() (int, int) {
		var probes, replies int
		want, probes, replies = foldProbes(e.w, e.pool, tg, proto, at)
		return probes, replies
	}
	fan := func() (int, int) {
		got = make([]time.Duration, len(e.pool))
		return e.w.UnicastFan(e.vps, tg, proto, at, got)
	}
	var foldN, foldTel, fanN, fanTel [2]int64
	if c.cold {
		netsim.ResetRoutingCaches(e.w)
		fanN, fanTel = counted(fan)
		foldN, foldTel = counted(fold)
	} else {
		foldN, foldTel = counted(fold)
		fanN, fanTel = counted(fan)
	}
	if fanN != foldN || !slices.Equal(got, want) {
		t.Fatalf("%+v (target %d, kind %v on the day):\nfan  = %d probes, %d replies, best %v\nfold = %d probes, %d replies, best %v",
			c, tg.ID, tg.KindAt(netsim.DayOf(at)), fanN[0], fanN[1], got, foldN[0], foldN[1], want)
	}
	if c.tel && (fanTel != fanN || foldTel != foldN) {
		t.Fatalf("%+v: telemetry counted (probes, replies) %v for the fan and %v for the fold, want %v", c, fanTel, foldTel, fanN)
	}
	seen := fanSeen{kind: tg.KindAt(netsim.DayOf(at)), responsive: tg.Responsive[proto]}
	for i, vp := range e.pool {
		seen.filtered = seen.filtered || (vp.FiltersSpecifics && seen.kind == netsim.BackingAnycast && got[i] != 0)
	}
	return seen
}

// fanCases draws n cases: both families, GCD loss on and off, every
// protocol, the train grid's days (ordinary, chaos, temporary-anycast and
// event days) at midday or 10 s before midnight, every built-in chaos scenario plus a day-shifting impairer, cold and warm
// rows, telemetry on and off.
func fanCases(n int) []fanCase {
	rng := rand.New(rand.NewSource(26))
	envs := fanEnvs()
	out := make([]fanCase, n)
	for i := range out {
		c := &out[i]
		c.lazyV6, c.lossless = rng.Intn(2) == 1, rng.Intn(3) == 0
		e := envs[fanEnvIdx(c.lazyV6, c.lossless)]
		if rng.Intn(3) == 0 { // a third of the cases run impaired
			c.engine = uint8(1 + rng.Intn(len(e.engines)-1))
		}
		c.id = uint32(rng.Intn(e.w.NumTargets(e.v6)))
		if rng.Intn(2) == 0 {
			c.id = uint32(e.special[rng.Intn(len(e.special))])
		}
		c.proto = uint8(rng.Intn(3))
		c.day = uint16(e.days[rng.Intn(len(e.days))])
		c.startSec = [...]uint32{12 * 3600, 86400 - 10}[rng.Intn(2)]
		c.cold = rng.Intn(4) == 0
		c.tel = rng.Intn(2) == 0
	}
	return out
}

// TestUnicastFanMatchesProbes is the equivalence the GCD stage's speed
// rests on, as a property over the whole grid, with a check that the grid
// reached every kind, an unresponsive target and a filtering VP's answer
// from a backing-anycast target.
func TestUnicastFanMatchesProbes(t *testing.T) {
	n := 6_000
	if testing.Short() {
		n = 1_000
	}
	kinds := map[netsim.TargetKind]bool{}
	unresponsive, filtered := false, false
	for _, c := range fanCases(n) {
		s := checkFan(t, c)
		kinds[s.kind] = true
		unresponsive = unresponsive || !s.responsive
		filtered = filtered || s.filtered
	}
	for _, k := range []netsim.TargetKind{netsim.Unicast, netsim.Anycast, netsim.GlobalUnicast, netsim.PartialAnycast, netsim.BackingAnycast} {
		if !kinds[k] {
			t.Errorf("no case probed a %v target", k)
		}
	}
	if !unresponsive || !filtered {
		t.Errorf("grid missed a case: unresponsive target %v, filtering VP answered by backing anycast %v", unresponsive, filtered)
	}
}

// FuzzUnicastFan runs the same check over arbitrary field values, seeded
// from the property test's grid.
func FuzzUnicastFan(f *testing.F) {
	for _, c := range fanCases(64) {
		f.Add(c.lazyV6, c.lossless, c.engine, c.id, c.proto, c.day, c.startSec, c.cold, c.tel)
	}
	f.Fuzz(func(t *testing.T, lazyV6, lossless bool, engine uint8, id uint32, proto uint8, day uint16, startSec uint32, cold, tel bool) {
		checkFan(t, fanCase{lazyV6, lossless, engine, id, proto, day, startSec, cold, tel})
	})
}
