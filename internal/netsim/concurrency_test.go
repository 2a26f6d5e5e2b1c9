package netsim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/packet"
)

// TestConcurrentProbesMatchSequential hammers the sharded routing caches
// from many goroutines (run under -race) and checks every concurrent
// delivery equals the sequentially computed one — cached catchments are
// pure functions of their key, so racing duplicate computations must
// write identical values.
func TestConcurrentProbesMatchSequential(t *testing.T) {
	d := tangled(t, testWorld, PolicyUnmodified)
	at := DayTime(3)
	nTargets := testWorld.NumTargets(false)
	if nTargets > 2000 {
		nTargets = 2000
	}
	nWorkers := d.NumSites()

	ctxFor := func(id, wk int) ProbeCtx {
		return ProbeCtx{
			At:   at.Add(time.Duration(wk) * time.Second),
			Flow: FlowKey{Proto: packet.ICMP, StaticFlow: 1, VaryingPayload: uint64(wk + 1)},
			Gap:  time.Second,
			Seq:  uint64(id),
		}
	}

	// Sequential pass on a cold cache, probes then fans.
	testWorld.cache.reset()
	type probeRes struct {
		del Delivery
		ok  bool
	}
	seq := make([]probeRes, nTargets*nWorkers)
	for id := 0; id < nTargets; id++ {
		tg := testWorld.TargetAt(false, id)
		for wk := 0; wk < nWorkers; wk++ {
			del, ok := testWorld.ProbeAnycast(d, wk, tg, ctxFor(id, wk))
			seq[id*nWorkers+wk] = probeRes{del, ok}
		}
	}
	fans := fanVPs(t, testWorld)
	seqFans := runFans(testWorld, fans, nTargets, 0, at)

	// Concurrent pass on a cold cache: one goroutine per worker index, all
	// sweeping the same targets so cache keys collide across goroutines,
	// and two GCD fans racing them for the same target-catchment rows.
	testWorld.cache.reset()
	conc := make([]probeRes, nTargets*nWorkers)
	var concFans [2][][]time.Duration
	var wg sync.WaitGroup
	wg.Add(nWorkers + len(concFans))
	for wk := 0; wk < nWorkers; wk++ {
		go func(wk int) {
			defer wg.Done()
			for id := 0; id < nTargets; id++ {
				tg := testWorld.TargetAt(false, id)
				del, ok := testWorld.ProbeAnycast(d, wk, tg, ctxFor(id, wk))
				conc[id*nWorkers+wk] = probeRes{del, ok}
			}
		}(wk)
	}
	for g := range concFans {
		go func(g int) {
			defer wg.Done()
			concFans[g] = runFans(testWorld, fans, nTargets, g*nTargets/2, at)
		}(g)
	}
	wg.Wait()
	for g := range concFans {
		if !reflect.DeepEqual(concFans[g], seqFans) {
			t.Fatalf("fan goroutine %d: RTTs differ from the sequential fans", g)
		}
	}

	for i := range seq {
		if seq[i] != conc[i] {
			t.Fatalf("probe %d: sequential %+v vs concurrent %+v", i, seq[i], conc[i])
		}
	}
}

// TestConcurrentUnicastProbes covers the GCD probe path (target-catchment
// rows) under concurrency, single probes and whole fans.
func TestConcurrentUnicastProbes(t *testing.T) {
	vp, err := testWorld.NewVP("probe-vp", "Amsterdam")
	if err != nil {
		t.Fatal(err)
	}
	at := DayTime(5)
	nTargets := testWorld.NumTargets(false)
	if nTargets > 2000 {
		nTargets = 2000
	}

	testWorld.cache.reset()
	type sample struct {
		rtt  time.Duration
		site int
		ok   bool
	}
	seq := make([]sample, nTargets)
	for id := 0; id < nTargets; id++ {
		rtt, site, ok := testWorld.ProbeUnicast(vp, testWorld.TargetAt(false, id), packet.ICMP, at, 0)
		seq[id] = sample{rtt, site, ok}
	}

	testWorld.cache.reset()
	conc := make([]sample, nTargets)
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for id := g; id < nTargets; id += goroutines {
				rtt, site, ok := testWorld.ProbeUnicast(vp, testWorld.TargetAt(false, id), packet.ICMP, at, 0)
				conc[id] = sample{rtt, site, ok}
			}
		}(g)
	}
	wg.Wait()

	for id := range seq {
		if seq[id] != conc[id] {
			t.Fatalf("target %d: sequential %+v vs concurrent %+v", id, seq[id], conc[id])
		}
	}

	// Racing fans on cold rows: every goroutine fans over every target from
	// its own starting point, so row creation and entry fills collide.
	fans := fanVPs(t, testWorld)
	testWorld.cache.reset()
	want := runFans(testWorld, fans, nTargets, 0, at)
	testWorld.cache.reset()
	var got [goroutines][][]time.Duration
	wg.Add(goroutines)
	for g := range got {
		go func(g int) {
			defer wg.Done()
			got[g] = runFans(testWorld, fans, nTargets, g*nTargets/goroutines, at)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("fan goroutine %d: RTTs differ from the sequential fans", g)
		}
	}
}

// fanVPs is a GCD campaign's table for the concurrency tests: two monitors
// in each of eight metros.
func fanVPs(t *testing.T, w *World) *VPTable {
	t.Helper()
	var vps []VP
	for i, city := range cities.VultrMetros()[:8] {
		vp, err := w.NewVP(fmt.Sprintf("race-%d", i), city)
		if err != nil {
			t.Fatal(err)
		}
		vps = append(vps, vp, vp)
	}
	return NewVPTable(vps)
}

// runFans fans ICMP over the first n IPv4 targets, starting at target
// `from` and wrapping around, and returns each target's RTTs by ID.
func runFans(w *World, vps *VPTable, n, from int, at time.Time) [][]time.Duration {
	out := make([][]time.Duration, n)
	for k := 0; k < n; k++ {
		id := (from + k) % n
		out[id] = make([]time.Duration, len(vps.vps))
		w.UnicastFan(vps, w.TargetAt(false, id), packet.ICMP, at, out[id])
	}
	return out
}
