package netsim

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"runtime"
	"testing"
)

// lazyConfig returns TestConfig with lazy target generation.
func lazyConfig(seed uint64) Config {
	c := TestConfig()
	c.Seed = seed
	c.LazyTargets = true
	return c
}

// equivalenceSeeds are the seeds the eager-vs-lazy and announcement
// checks run at.
var equivalenceSeeds = []uint64{0x1ace5, 7, 42}

// streamFingerprint hashes the family's full target universe through the
// streaming accessors, which work on both eager and lazy worlds — equal
// fingerprints mean byte-identical universes.
func streamFingerprint(w *World, v6 bool) uint64 {
	h := fnv.New64a()
	w.IterTargets(v6, 0, func(batch []Target) bool {
		for i := range batch {
			t := &batch[i]
			fmt.Fprintf(h, "%d|%s|%s|%d|%d|%v|%d|%v|%v|%d|%d|%v|%v|%d|%d|%d|%d\n",
				t.ID, t.Prefix, t.Addr, t.Origin, t.Kind, t.Loc, t.CityIdx,
				t.Responsive, t.TempWindows, t.AnycastBornDay, t.AnycastUntilDay,
				t.PartialAddrs, t.Chaos, t.CoLocated, t.BGPPrefix, t.HitlistFromDay, t.Operator)
			for _, s := range t.Sites {
				fmt.Fprintf(h, "site %s %d\n", s.City.Name, s.CityIdx)
			}
		}
		return true
	})
	return h.Sum64()
}

// TestLazyEagerEquivalence pins the tentpole contract: a lazy world's
// streamed universe is byte-identical to the eager world's pre-derived
// one, across seeds, for both families. Announcements come from the
// layout in both modes; TestBGPPrefixesCoverTheirTargets checks them
// against their own targets.
func TestLazyEagerEquivalence(t *testing.T) {
	for _, seed := range equivalenceSeeds {
		cfg := TestConfig()
		cfg.Seed = seed
		eager, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := New(lazyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, v6 := range []bool{false, true} {
			if e, l := eager.NumTargets(v6), lazy.NumTargets(v6); e != l {
				t.Fatalf("seed %#x v6=%v: NumTargets eager=%d lazy=%d", seed, v6, e, l)
			}
			if e, l := streamFingerprint(eager, v6), streamFingerprint(lazy, v6); e != l {
				t.Errorf("seed %#x v6=%v: universe fingerprints differ: eager=%x lazy=%x", seed, v6, e, l)
			}
			// Random access agrees with streaming, and is stable across
			// repeated lookups (arena hit after miss).
			n := lazy.NumTargets(v6)
			for _, id := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
				a, b := lazy.TargetAt(v6, id), lazy.TargetAt(v6, id)
				if a.ID != id || b.ID != id {
					t.Fatalf("seed %#x v6=%v: TargetAt(%d) returned ID %d/%d", seed, v6, id, a.ID, b.ID)
				}
				e := eager.TargetAt(v6, id)
				if a.Prefix != e.Prefix || a.Addr != e.Addr || a.Origin != e.Origin ||
					a.Kind != e.Kind || a.BGPPrefix != e.BGPPrefix || a.Operator != e.Operator {
					t.Errorf("seed %#x v6=%v: TargetAt(%d) differs eager vs lazy", seed, v6, id)
				}
			}
		}
	}
}

// TestIterTargetsRangeShards pins the sharding contract: contiguous
// ranges concatenated in order reproduce the full iteration exactly, so
// internal/par shards see the same universe as a sequential sweep.
func TestIterTargetsRangeShards(t *testing.T) {
	w, err := New(lazyConfig(0x1ace5))
	if err != nil {
		t.Fatal(err)
	}
	n := w.NumTargets(false)
	var full []int
	w.IterTargets(false, 100, func(batch []Target) bool {
		for i := range batch {
			full = append(full, batch[i].ID)
		}
		return true
	})
	if len(full) != n {
		t.Fatalf("full iteration yielded %d of %d targets", len(full), n)
	}
	var sharded []int
	for _, shards := range []int{3, 7} {
		sharded = sharded[:0]
		for s := 0; s < shards; s++ {
			lo, hi := s*n/shards, (s+1)*n/shards
			w.IterTargetsRange(false, lo, hi, 64, func(batch []Target) bool {
				for i := range batch {
					sharded = append(sharded, batch[i].ID)
				}
				return true
			})
		}
		if len(sharded) != len(full) {
			t.Fatalf("%d shards yielded %d of %d targets", shards, len(sharded), len(full))
		}
		for i := range full {
			if sharded[i] != full[i] {
				t.Fatalf("%d shards: position %d has ID %d, want %d", shards, i, sharded[i], full[i])
			}
		}
	}
	// Early stop honours the callback's verdict.
	seen := 0
	w.IterTargets(false, 50, func(batch []Target) bool {
		seen += len(batch)
		return seen < 100
	})
	if seen >= n {
		t.Fatalf("early stop ignored: saw %d of %d", seen, n)
	}
}

// TestFindTarget covers v4/v6 × prefix/address/miss on an eager and a
// lazy world: the family searched is the argument's own.
func TestFindTarget(t *testing.T) {
	eager, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := New(lazyConfig(TestConfig().Seed))
	if err != nil {
		t.Fatal(err)
	}
	single := func(a netip.Addr) netip.Prefix { return netip.PrefixFrom(a, a.BitLen()) }
	for name, w := range map[string]*World{"eager": eager, "lazy": lazy} {
		for _, v6 := range []bool{false, true} {
			// A late target, so the search crosses batch boundaries.
			want := *w.TargetAt(v6, w.NumTargets(v6)-7)
			for _, c := range []struct {
				what string
				arg  netip.Prefix
				hit  bool
			}{
				{"prefix", want.Prefix, true},
				{"representative address", single(want.Addr), true},
				{"other covered address", single(want.Prefix.Addr()), true},
				{"wider prefix", netip.PrefixFrom(want.Prefix.Addr(), want.Prefix.Bits()-1), false},
				{"unrouted prefix", netip.MustParsePrefix(map[bool]string{false: "240.0.0.0/24", true: "fe80::/48"}[v6]), false},
				{"unrouted address", single(netip.MustParseAddr(map[bool]string{false: "240.0.0.1", true: "fe80::1"}[v6])), false},
			} {
				got := w.FindTarget(c.arg)
				switch {
				case !c.hit && got != nil:
					t.Errorf("%s v6=%v %s %s: found target %d, want none", name, v6, c.what, c.arg, got.ID)
				case c.hit && got == nil:
					t.Errorf("%s v6=%v %s %s: not found", name, v6, c.what, c.arg)
				case c.hit && (got.ID != want.ID || got.Prefix != want.Prefix || got.Addr != want.Addr):
					t.Errorf("%s v6=%v %s %s: found target %d (%s), want %d (%s)",
						name, v6, c.what, c.arg, got.ID, got.Prefix, want.ID, want.Prefix)
				}
			}
		}
	}
}

// TestTargetAtWarmNoAllocs pins the satellite hot-path guarantee: a warm
// arena-hit lookup performs zero allocations.
func TestTargetAtWarmNoAllocs(t *testing.T) {
	w, err := New(lazyConfig(0x1ace5))
	if err != nil {
		t.Fatal(err)
	}
	id := w.NumTargets(false) / 2
	w.TargetAt(false, id) // prime the arena
	if n := testing.AllocsPerRun(100, func() {
		if w.TargetAt(false, id).ID != id {
			t.Fatal("wrong target")
		}
	}); n != 0 {
		t.Fatalf("warm TargetAt allocates %.1f per run, want 0", n)
	}
	// The same holds with telemetry installed (one striped add).
	w.SetTelemetry(&Telemetry{})
	if n := testing.AllocsPerRun(100, func() {
		w.TargetAt(false, id)
	}); n != 0 {
		t.Fatalf("warm TargetAt with telemetry allocates %.1f per run, want 0", n)
	}
}

// TestArenaTelemetry pins the satellite observability contract: arena
// hits/misses and the live-target gauge count lazy lookups, nil-safely.
func TestArenaTelemetry(t *testing.T) {
	var nilTel *Telemetry
	if nilTel.ArenaHits() != 0 || nilTel.ArenaMisses() != 0 || nilTel.LiveTargets() != 0 {
		t.Fatal("nil telemetry must report zeros")
	}
	w, err := New(lazyConfig(0x1ace5))
	if err != nil {
		t.Fatal(err)
	}
	tel := &Telemetry{}
	w.SetTelemetry(tel)
	w.TargetAt(false, 10) // miss: derive + publish
	w.TargetAt(false, 10) // hit
	w.TargetAt(false, 10) // hit
	if m := tel.ArenaMisses(); m != 1 {
		t.Fatalf("ArenaMisses = %d, want 1", m)
	}
	if h := tel.ArenaHits(); h != 2 {
		t.Fatalf("ArenaHits = %d, want 2", h)
	}
	if l := tel.LiveTargets(); l != 1 {
		t.Fatalf("LiveTargets = %d, want 1", l)
	}
	if live := w.MaterializedTargets(); live != 1 {
		t.Fatalf("MaterializedTargets = %d, want 1", live)
	}
}

// TestLazyBoundedMemory pins the tentpole memory contract: peak live heap
// of a lazy world stays under a fixed ceiling regardless of the target
// count, and the arena occupancy never exceeds its configured bound.
func TestLazyBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large worlds: skipped in -short")
	}
	const ceilingMB = 32
	heapAfter := func(targets int) uint64 {
		cfg := TestConfig()
		cfg.LazyTargets = true
		cfg.V4Targets = targets
		cfg.V6Targets = targets / 8
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Sweep the whole universe and scatter random lookups: the world
		// must not accumulate targets beyond the arena.
		count := 0
		w.IterTargets(false, 0, func(batch []Target) bool { count += len(batch); return true })
		if count != targets {
			t.Fatalf("swept %d of %d targets", count, targets)
		}
		for id := 0; id < targets; id += targets / 1000 {
			w.TargetAt(false, id)
		}
		if live, bound := w.MaterializedTargets(), int64(2*arenaSlots); live > bound {
			t.Fatalf("%d targets: %d live exceeds arena bound %d", targets, live, bound)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(w)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}
	small := heapAfter(100_000)
	large := heapAfter(800_000)
	t.Logf("live heap: 100k targets = %.1f MB, 800k targets = %.1f MB",
		float64(small)/(1<<20), float64(large)/(1<<20))
	for _, h := range []uint64{small, large} {
		if h > ceilingMB<<20 {
			t.Fatalf("live heap %.1f MB exceeds the %d MB ceiling", float64(h)/(1<<20), ceilingMB)
		}
	}
}
