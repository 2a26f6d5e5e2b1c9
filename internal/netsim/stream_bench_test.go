package netsim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// paperWorld builds the Internet-scale lazy world once and shares it
// across benchmarks (generation is deterministic and the world is
// immutable).
var paperWorld = struct {
	once sync.Once
	w    *World
	err  error
}{}

func getPaperWorld(tb testing.TB) *World {
	paperWorld.once.Do(func() {
		paperWorld.w, paperWorld.err = New(PaperScaleConfig())
	})
	if paperWorld.err != nil {
		tb.Fatal(paperWorld.err)
	}
	return paperWorld.w
}

// heapMB returns the current live heap in MB after a GC.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkWorldBuildLazyPaper measures building the ~1M-prefix/80k-AS
// lazy world: the layout pass only, no target materialization. The
// reported heap is the world's resident size — memory proportional to
// ASes and operators, not targets.
func BenchmarkWorldBuildLazyPaper(b *testing.B) {
	cfg := PaperScaleConfig()
	base := heapMB()
	var w *World
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err = New(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(w.NumTargets(false)+w.NumTargets(true)), "targets")
	b.ReportMetric(heapMB()-base, "world_heap_MB")
	runtime.KeepAlive(w)
}

// BenchmarkWorldBuildEagerDefault is the materializing baseline at the
// default experiment scale (eager generation at paper scale is exactly
// what lazy mode exists to avoid).
func BenchmarkWorldBuildEagerDefault(b *testing.B) {
	cfg := DefaultConfig()
	var w *World
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err = New(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	runtime.KeepAlive(w)
}

// BenchmarkIterTargetsLazyPaper measures full-universe streaming
// derivation throughput over the 1M-prefix world.
func BenchmarkIterTargetsLazyPaper(b *testing.B) {
	w := getPaperWorld(b)
	b.ResetTimer()
	var derived int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		w.IterTargets(false, 0, func(batch []Target) bool {
			derived += len(batch)
			return true
		})
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(derived)/secs, "targets/s")
	}
	b.ReportMetric(heapMB(), "live_heap_MB")
}

// BenchmarkProbeAnycastLazyPaper measures probing throughput against the
// lazy paper-scale world: a 4-site deployment probing a slice of the
// universe through the streaming API, the hot loop of an at-scale
// census.
func BenchmarkProbeAnycastLazyPaper(b *testing.B) {
	w := getPaperWorld(b)
	d, err := w.NewDeployment("bench", []string{"Amsterdam", "New York", "Singapore", "Sao Paulo"}, PolicyUnmodified)
	if err != nil {
		b.Fatal(err)
	}
	const span = 50_000
	at := DayTime(10)
	b.ResetTimer()
	var probes int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		w.IterTargetsRange(false, 0, span, 0, func(batch []Target) bool {
			for j := range batch {
				tg := &batch[j]
				for wk := 0; wk < d.NumSites(); wk++ {
					ctx := ProbeCtx{
						At:   at.Add(time.Duration(wk) * time.Second),
						Flow: FlowKey{Proto: 0, StaticFlow: 1, VaryingPayload: uint64(wk + 1)},
						Gap:  time.Second,
						Seq:  uint64(tg.ID),
					}
					w.ProbeAnycast(d, wk, tg, ctx)
					probes++
				}
			}
			return true
		})
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(probes)/secs, "probes/s")
	}
	b.ReportMetric(heapMB(), "live_heap_MB")
}

// BenchmarkTargetAtWarm measures the warm arena-hit lookup — the lazy
// random-access hot path (0 allocs, pinned by TestTargetAtWarmNoAllocs).
func BenchmarkTargetAtWarm(b *testing.B) {
	w := getPaperWorld(b)
	id := w.NumTargets(false) / 2
	w.TargetAt(false, id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.TargetAt(false, id).ID != id {
			b.Fatal("wrong target")
		}
	}
}

// BenchmarkDeriveTarget measures per-class derivation cost on the lazy
// paper-scale IPv6 universe (the family with every class: operator,
// event, generic and unicast batches). random derives a class's targets
// by ID in scattered order, the arena's miss path; stream sweeps the
// class's contiguous ID range the way a census stage does. Both report
// ns per derived target on a warm world.
func BenchmarkDeriveTarget(b *testing.B) {
	w := getPaperWorld(b)
	L := w.layout(true)
	for _, c := range []struct {
		name  string
		class batchClass
	}{
		{"operator", classOperator},
		{"event", classEvent},
		{"generic", classGeneric},
		{"unicast", classUnicast},
	} {
		lo, hi := classRange(L, c.class)
		if lo >= hi {
			b.Fatalf("%s: no targets of the class", c.name)
		}
		b.Run(c.name+"/random", func(b *testing.B) {
			n := hi - lo
			var t Target
			for i := 0; i < b.N; i++ {
				// A prime stride visits the range in scattered order.
				w.deriveTargetID(L, lo+(i*7919)%n, &t)
			}
		})
		b.Run(c.name+"/stream", func(b *testing.B) {
			for left := b.N; left > 0; {
				n := min(left, hi-lo)
				w.IterTargetsRange(true, lo, lo+n, 0, func([]Target) bool { return true })
				left -= n
			}
		})
	}
}

// classRange returns the ID range [lo, hi) the layout's batches of class
// c cover; the layout emits each class as one contiguous run.
func classRange(L *famLayout, c batchClass) (lo, hi int) {
	lo = -1
	for i := range L.batches {
		bt := &L.batches[i]
		if bt.class != c {
			continue
		}
		if lo < 0 {
			lo = bt.startID
		}
		hi = bt.startID + bt.count
	}
	return max(lo, 0), hi
}
