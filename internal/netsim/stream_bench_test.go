package netsim

import (
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/packet"
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

// BenchmarkFindTargetLazyPaper measures one lookup by representative
// address on the lazy paper-scale IPv4 universe, for the first, middle
// and last target ID: a binary search over IDs, about log₂ n derivations
// and a constant allocation count whatever the world's size.
func BenchmarkFindTargetLazyPaper(b *testing.B) {
	w := getPaperWorld(b)
	n := w.NumTargets(false)
	for _, c := range []struct {
		name string
		id   int
	}{{"first", 0}, {"middle", n / 2}, {"last", n - 1}} {
		tg := w.TargetAt(false, c.id)
		addr := netip.PrefixFrom(tg.Addr, tg.Addr.BitLen())
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := w.FindTarget(addr); got == nil || got.ID != c.id {
					b.Fatalf("FindTarget(%s) missed target %d", addr, c.id)
				}
			}
		})
	}
}

// BenchmarkProbeAnycastLazyPaper measures probing throughput against the
// lazy paper-scale world: a 4-site deployment probing a slice of the
// universe through one Walker, the hot loop of an at-scale census shard.
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
		walker := w.Walker(false)
		for id := 0; id < span; id++ {
			tg := walker.At(id)
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
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(probes)/secs, "probes/s")
	}
	b.ReportMetric(heapMB(), "live_heap_MB")
}

// BenchmarkDeriveTarget measures per-class derivation cost on the lazy
// paper-scale IPv6 universe (the family with every class: operator,
// event, generic and unicast batches). random derives a class's targets
// by ID in scattered order, a lazy TargetAt's path; dense walks the
// class's contiguous ID range through one Walker; walk visits, in
// ascending order through one Walker, the class's targets a protocol's
// hitlist holds (those responsive to it), the way a par.Run shard does at
// that protocol's density. All report ns per derived target on a warm
// world.
func BenchmarkDeriveTarget(b *testing.B) {
	w := getPaperWorld(b)
	L := w.fam(true).L
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
		b.Run(c.name+"/dense", func(b *testing.B) {
			var wk *Walker
			for i := 0; i < b.N; i++ {
				k := i % (hi - lo)
				if k == 0 {
					wk = w.Walker(true) // each pass starts a fresh walk
				}
				wk.At(lo + k)
			}
		})
		for _, proto := range packet.Protocols() {
			var ids []int
			wk := w.Walker(true)
			for id := lo; id < hi; id++ {
				if wk.At(id).Responsive[proto] {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				continue
			}
			b.Run(c.name+"/walk/"+proto.String(), func(b *testing.B) {
				var wk *Walker
				for i := 0; i < b.N; i++ {
					k := i % len(ids)
					if k == 0 {
						wk = w.Walker(true) // each pass starts a fresh walk
					}
					wk.At(ids[k])
				}
			})
		}
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
