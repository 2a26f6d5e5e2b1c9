package netsim_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// trainEnv is one world the train property runs against, with the
// targets and days that reach the routing rules a uniform draw would
// mostly miss.
type trainEnv struct {
	w    *netsim.World
	d    *netsim.Deployment
	v6   bool
	days []int // an ordinary day, the chaos suite's day, and days inside temporary-anycast and WobblyWindows ranges
	// special holds the IDs of targets that are not plain unicast behind a
	// quiet AS: other kinds, temporary anycast, tie-split, wobbly, drifty
	// and event ASes.
	special []int
	engines []netsim.Impairer // nil, then one engine per built-in chaos scenario
}

var trainEnvs = sync.OnceValue(func() [2]*trainEnv {
	// TestConfig puts five of 10,000 targets behind a checksum load
	// balancer and the draw is not visible from outside; 2 % puts the rule
	// in reach of a uniform draw without touching generation.
	eager := netsim.TestConfig()
	eager.ChecksumLBFrac = 0.02
	lazy := eager
	lazy.LazyTargets = true
	return [2]*trainEnv{newTrainEnv(eager, false), newTrainEnv(lazy, true)}
})

func newTrainEnv(cfg netsim.Config, v6 bool) *trainEnv {
	w, err := netsim.New(cfg)
	if err != nil {
		panic(err)
	}
	d, err := w.NewDeployment("TANGLED", cities.VultrMetros(), netsim.PolicyTransitsOnly)
	if err != nil {
		panic(err)
	}
	e := &trainEnv{w: w, d: d, v6: v6, days: []int{3, 180}, engines: []netsim.Impairer{nil}}
	for _, sc := range chaos.Builtins() {
		e.engines = append(e.engines, chaos.NewEngine(w, sc))
	}
	event := make(map[netsim.ASN]bool)
	for i := range w.ASes {
		a := &w.ASes[i]
		if len(a.WobblyWindows) > 0 && len(e.days) == 2 {
			e.days = append(e.days, a.WobblyWindows[0].From)
		}
		if a.TieSplit || a.Wobbly || a.Drifty || len(a.WobblyWindows) > 0 {
			event[a.Number] = true
		}
	}
	temp := false
	w.IterTargets(v6, 0, func(batch []netsim.Target) bool {
		for i := range batch {
			tg := &batch[i]
			if len(tg.TempWindows) > 0 && !temp {
				temp = true
				e.days = append(e.days, tg.TempWindows[0].From)
			}
			if tg.Kind != netsim.Unicast || len(tg.TempWindows) > 0 || event[tg.Origin] {
				e.special = append(e.special, tg.ID)
			}
		}
		return true
	})
	if !temp || len(e.days) != 4 || len(e.special) == 0 {
		panic("train test world lacks a temporary-anycast target, an event AS or special targets")
	}
	return e
}

// trainCase is one point of the property's input space. The fuzz target
// takes the same fields, so a crasher replays as a trainCase.
type trainCase struct {
	lazyV6   bool
	engine   uint8 // index into trainEnv.engines, modulo its length
	id       uint32
	proto    uint8
	day      uint16
	startSec uint32 // seconds into the day
	offsetMS uint32
	gapMS    uint32
	static   bool
	missing  uint64
	// deadReceivers additionally disconnects every site the unmasked train
	// delivers to, so the lost-reply rule is exercised on live receivers.
	deadReceivers bool
}

// checkTrain asserts the tentpole contract for one case: AnycastTrain's
// (receivers, probes, replies) is the fold of one ProbeAnycast per
// connected site, as manycast.Run computed it before the train existed.
func checkTrain(t *testing.T, c trainCase) {
	t.Helper()
	e := trainEnvs()[0]
	if c.lazyV6 {
		e = trainEnvs()[1]
	}
	e.w.SetImpairer(e.engines[int(c.engine)%len(e.engines)])
	defer e.w.SetImpairer(nil)
	tg := e.w.TargetAt(e.v6, int(c.id)%e.w.NumTargets(e.v6))
	tr := netsim.Train{
		First:   netsim.DayTime(int(c.day) % 534).Add(time.Duration(c.startSec%86400) * time.Second),
		Offset:  time.Duration(c.offsetMS) * time.Millisecond,
		Gap:     time.Duration(c.gapMS) * time.Millisecond,
		Flow:    netsim.FlowKey{Proto: packet.Protocol(c.proto % 3), StaticFlow: 7, VaryingPayload: 1},
		Missing: c.missing,
	}
	if c.static {
		tr.Flow.VaryingPayload = 0
	}
	if c.deadReceivers {
		recv, _, _ := e.w.AnycastTrain(e.d, tg, tr)
		tr.Missing |= recv
	}

	var wantRecv uint64
	wantProbes, wantReplies := 0, 0
	for wk := 0; wk < e.d.NumSites(); wk++ {
		if tr.Missing&(1<<uint(wk)) != 0 {
			continue
		}
		ctx := netsim.ProbeCtx{
			At:   tr.First.Add(time.Duration(wk) * tr.Offset),
			Flow: tr.Flow,
			Gap:  tr.Gap,
			Seq:  uint64(tg.ID),
		}
		if !c.static {
			ctx.Flow.VaryingPayload = uint64(wk + 1)
		}
		wantProbes++
		if del, ok := e.w.ProbeAnycast(e.d, wk, tg, ctx); ok {
			wantReplies++
			if tr.Missing&(1<<uint(del.WorkerIdx)) == 0 {
				wantRecv |= 1 << uint(del.WorkerIdx)
			}
		}
	}
	recv, probes, replies := e.w.AnycastTrain(e.d, tg, tr)
	if recv != wantRecv || probes != wantProbes || replies != wantReplies {
		t.Fatalf("%+v (target %d, kind %v on the day):\ntrain = receivers %#x, %d probes, %d replies\nfold  = receivers %#x, %d probes, %d replies",
			c, tg.ID, tg.KindAt(netsim.DayOf(tr.First)), recv, probes, replies, wantRecv, wantProbes, wantReplies)
	}
}

// trainCases draws n cases from a grid: both worlds,
// every protocol, ordinary/chaos/temporary-anycast/event days, a start at
// midday or 10 s before midnight, offsets of 0, 1 s and 13 min, gaps below
// and above RateLimitGapMS, static and varying probes, no/random/
// receiver-covering missing masks, and every built-in chaos scenario.
func trainCases(n int) []trainCase {
	rng := rand.New(rand.NewSource(22))
	envs := trainEnvs()
	out := make([]trainCase, n)
	for i := range out {
		c := &out[i]
		c.lazyV6 = rng.Intn(2) == 1
		e := envs[0]
		if c.lazyV6 {
			e = envs[1]
		}
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
		c.offsetMS = [...]uint32{0, 1000, 13 * 60 * 1000}[rng.Intn(3)]
		c.gapMS = [...]uint32{0, 1000}[rng.Intn(2)]
		c.static = rng.Intn(4) == 0
		switch rng.Intn(3) {
		case 1:
			c.missing = rng.Uint64() & rng.Uint64()
		case 2:
			c.deadReceivers = true
		}
	}
	return out
}

// TestAnycastTrainMatchesProbes is the equivalence the anycast stage's
// speed rests on, as a property over the whole grid rather than a spot
// check of one target.
func TestAnycastTrainMatchesProbes(t *testing.T) {
	n := 24_000
	if testing.Short() {
		n = 4_000
	}
	for _, c := range trainCases(n) {
		checkTrain(t, c)
	}
}

// FuzzAnycastTrain runs the same check over arbitrary field values,
// seeded from the property test's grid.
func FuzzAnycastTrain(f *testing.F) {
	for _, c := range trainCases(64) {
		f.Add(c.lazyV6, c.engine, c.id, c.proto, c.day, c.startSec, c.offsetMS, c.gapMS, c.static, c.missing, c.deadReceivers)
	}
	f.Fuzz(func(t *testing.T, lazyV6 bool, engine uint8, id uint32, proto uint8, day uint16, startSec, offsetMS, gapMS uint32, static bool, missing uint64, deadReceivers bool) {
		checkTrain(t, trainCase{lazyV6, engine, id, proto, day, startSec, offsetMS, gapMS, static, missing, deadReceivers})
	})
}
