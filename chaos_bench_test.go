package laces_test

import (
	"sync"
	"testing"

	laces "github.com/laces-project/laces"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
)

// The chaos benchmarks run on a test-scale world so a single iteration is
// seconds, not minutes: the point is the *ratio* between the clean census
// and the impaired one, and the zero-cost claim of the nil-impairer fast
// path, not paper-scale numbers.
var (
	chaosBenchOnce sync.Once
	chaosBenchW    *netsim.World
	chaosBenchErr  error
)

func chaosBenchWorld(b *testing.B) *netsim.World {
	b.Helper()
	chaosBenchOnce.Do(func() {
		chaosBenchW, chaosBenchErr = netsim.New(netsim.TestConfig())
	})
	if chaosBenchErr != nil {
		b.Fatal(chaosBenchErr)
	}
	return chaosBenchW
}

// runDailyOnce executes one day-0 census on a fresh pipeline at the given
// stage parallelism (1 = sequential baseline, 0 = all cores), reporting
// to w's registry when w is instrumented.
func runDailyOnce(b testing.TB, w *netsim.World, sc *chaos.Scenario, parallelism int) {
	b.Helper()
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := core.NewPipeline(w, core.Config{
		Deployment: dep,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			return platform.Ark(w, day, v6)
		},
		Parallelism: parallelism,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := pipe.RunDaily(0, false, core.DayOptions{Chaos: sc})
	if err != nil {
		b.Fatal(err)
	}
	if len(c.Candidates()) == 0 {
		b.Fatal("degenerate census")
	}
}

// BenchmarkDailyCensus is the sequential clean-pipeline guard: the chaos
// layer's nil-impairment fast path must keep this within noise of the
// pre-chaos seed (the hot path pays one nil check and zero allocations —
// see netsim's TestProbeHotPathNoAllocs).
func BenchmarkDailyCensus(b *testing.B) {
	w := chaosBenchWorld(b)
	runDailyOnce(b, w, nil, 1) // warm routing caches outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runDailyOnce(b, w, nil, 1)
	}
}

// BenchmarkDailyCensusObs is the fully instrumented census: stage
// counters and spans via a live registry plus netsim probe telemetry.
// The acceptance bar is within 3% of BenchmarkDailyCensus — par.Shard's
// per-shard counters and handles resolved outside the hot loops keep
// the instrumented path allocation-free (see netsim's
// TestProbeHotPathNoAllocsInstrumented).
func BenchmarkDailyCensusObs(b *testing.B) {
	w := chaosBenchWorld(b)
	w.Instrument(obs.New())
	b.Cleanup(func() { w.Instrument(nil) }) // the shared bench world stays bare for the other benchmarks
	runDailyOnce(b, w, nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runDailyOnce(b, w, nil, 1)
	}
}

// BenchmarkDailyCensusParallel is the same census with every stage sharded
// across all cores — the engine's headline speedup over the sequential
// baseline (byte-identical output; see TestParallelCensusDeterminism).
func BenchmarkDailyCensusParallel(b *testing.B) {
	w := chaosBenchWorld(b)
	runDailyOnce(b, w, nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runDailyOnce(b, w, nil, 0)
	}
}

// BenchmarkDailyCensusChaos measures the same census under a
// representative chaos scenario (lossy-transit: an always-on impairment
// that hashes every probe — the engine's worst-case per-probe overhead
// among the built-ins).
func BenchmarkDailyCensusChaos(b *testing.B) {
	w := chaosBenchWorld(b)
	sc, ok := chaos.Lookup(chaos.ScenarioLossyTransit)
	if !ok {
		b.Fatal("lossy-transit scenario missing")
	}
	runDailyOnce(b, w, &sc, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runDailyOnce(b, w, &sc, 1)
	}
}

// paperBenchWorld builds the Internet-scale lazy world (~1M IPv4 /24s,
// 150k IPv6 /48s, 80k ASes) once, on first use, so the test-scale
// benchmarks never pay for it.
var (
	paperBenchOnce sync.Once
	paperBenchW    *netsim.World
	paperBenchErr  error
)

func paperBenchWorld(b *testing.B) *netsim.World {
	b.Helper()
	paperBenchOnce.Do(func() {
		paperBenchW, paperBenchErr = netsim.New(netsim.PaperScaleConfig())
	})
	if paperBenchErr != nil {
		b.Fatal(paperBenchErr)
	}
	return paperBenchW
}

// BenchmarkDailyCensusPaperScale re-baselines the census at Internet
// scale: one full daily pipeline (anycast-based, feedback, GCD) over the
// lazy ~1M-prefix world, every stage sharded across all cores. A single
// iteration is tens of seconds — CI runs it with -benchtime 1x as a
// wall-clock gauge alongside the test-scale ratio benchmarks; streaming
// derivation keeps the live heap bounded by the hitlist, not the
// universe (see netsim's stream benchmarks for the per-layer numbers).
func BenchmarkDailyCensusPaperScale(b *testing.B) {
	w := paperBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runDailyOnce(b, w, nil, 0)
	}
}

// BenchmarkLongitudinalWithIncidents times a compressed longitudinal run
// with the paper's incident calendar re-expressed as a chaos scenario
// bundle (the Fig 9 path).
func BenchmarkLongitudinalWithIncidents(b *testing.B) {
	w := chaosBenchWorld(b)
	for i := 0; i < b.N; i++ {
		h, err := laces.RunLongitudinal(w, 534, 60)
		if err != nil {
			b.Fatal(err)
		}
		if len(h.Summaries(false)) == 0 {
			b.Fatal("empty history")
		}
	}
}
