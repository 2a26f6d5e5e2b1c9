package netsim

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"reflect"
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
			// Random access agrees with streaming, and repeated lookups
			// derive the same target.
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

// TestWalkerShardsMatchIterTargets pins the sharding contract: one
// Walker per contiguous ID range, the shards internal/par plans, walks
// exactly the targets a sequential IterTargets sweep yields, in order.
func TestWalkerShardsMatchIterTargets(t *testing.T) {
	w, err := New(lazyConfig(0x1ace5))
	if err != nil {
		t.Fatal(err)
	}
	n := w.NumTargets(false)
	var full []Target
	w.IterTargets(false, 100, func(batch []Target) bool {
		full = append(full, batch...)
		return true
	})
	if len(full) != n {
		t.Fatalf("full iteration yielded %d of %d targets", len(full), n)
	}
	for _, shards := range []int{3, 7} {
		for s := 0; s < shards; s++ {
			wk := w.Walker(false)
			for id := s * n / shards; id < (s+1)*n/shards; id++ {
				if got := wk.At(id); !reflect.DeepEqual(got, &full[id]) {
					t.Fatalf("%d shards: shard %d walks target %d unlike the sweep", shards, s, id)
				}
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

// TestTargetIDOrderIsPrefixOrder pins the layout's address allocation,
// which FindTarget's binary search and the census's row order rely on:
// in every shipped config each family has one prefix length, and masked
// prefix addresses strictly ascend with target ID, so no two prefixes
// overlap. The paper-scale world is lazy.
func TestTargetIDOrderIsPrefixOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"test", TestConfig()}, {"default", DefaultConfig()}, {"paper", PaperScaleConfig()}} {
		w, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v6 := range []bool{false, true} {
			var prev netip.Prefix
			n := 0
			w.IterTargets(v6, 0, func(batch []Target) bool {
				for i := range batch {
					p := batch[i].Prefix
					switch {
					case batch[i].ID != n:
						t.Fatalf("%s v6=%v: target %d streamed at position %d", c.name, v6, batch[i].ID, n)
					case p != p.Masked() || p.Addr().Is6() != v6 || p.Addr().Is4In6():
						t.Fatalf("%s v6=%v: target %d has prefix %s, not a masked prefix of its family", c.name, v6, n, p)
					case n > 0 && p.Bits() != prev.Bits():
						t.Fatalf("%s v6=%v: target %d is a /%d, target %d a /%d", c.name, v6, n, p.Bits(), n-1, prev.Bits())
					case n > 0 && p.Addr().Compare(prev.Addr()) <= 0:
						t.Fatalf("%s v6=%v: target %d (%s) does not follow target %d (%s)", c.name, v6, n, p, n-1, prev)
					}
					prev = p
					n++
				}
				return true
			})
			if n != w.NumTargets(v6) || n == 0 {
				t.Fatalf("%s v6=%v: streamed %d of %d targets", c.name, v6, n, w.NumTargets(v6))
			}
		}
	}
}

// TestFindTarget covers v4/v6 × prefix/address/miss on an eager and a
// lazy world: the family searched is the argument's own. The edge rows
// steer the binary search to its ends: ID 0, an address below every
// target, one above the last target, and a 4-in-6-mapped IPv4 address,
// which matches neither family.
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
	pick := func(v4, v6 string, isV6 bool) string { return map[bool]string{false: v4, true: v6}[isV6] }
	for name, w := range map[string]*World{"eager": eager, "lazy": lazy} {
		mapped := single(netip.AddrFrom16(w.TargetAt(false, 0).Addr.As16()))
		for _, v6 := range []bool{false, true} {
			// A late target, so the search crosses batch boundaries.
			late := *w.TargetAt(v6, w.NumTargets(v6)-7)
			first := *w.TargetAt(v6, 0)
			for _, c := range []struct {
				what string
				arg  netip.Prefix
				want *Target // nil: no target
			}{
				{"prefix", late.Prefix, &late},
				{"representative address", single(late.Addr), &late},
				{"other covered address", single(late.Prefix.Addr()), &late},
				{"wider prefix", netip.PrefixFrom(late.Prefix.Addr(), late.Prefix.Bits()-1), nil},
				{"unrouted prefix", netip.MustParsePrefix(pick("240.0.0.0/24", "fe80::/48", v6)), nil},
				{"unrouted address", single(netip.MustParseAddr(pick("240.0.0.1", "fe80::1", v6))), nil},
				{"ID 0's prefix", first.Prefix, &first},
				{"ID 0's representative address", single(first.Addr), &first},
				{"address below every target", single(netip.MustParseAddr(pick("0.0.0.1", "::1", v6))), nil},
				{"address above the last target", single(netip.MustParseAddr(pick("255.255.255.255", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", v6))), nil},
				{"4-in-6-mapped address of ID 0", mapped, nil},
			} {
				got := w.FindTarget(c.arg)
				switch {
				case c.want == nil && got != nil:
					t.Errorf("%s v6=%v %s %s: found target %d, want none", name, v6, c.what, c.arg, got.ID)
				case c.want != nil && got == nil:
					t.Errorf("%s v6=%v %s %s: not found", name, v6, c.what, c.arg)
				case c.want != nil && (got.ID != c.want.ID || got.Prefix != c.want.Prefix || got.Addr != c.want.Addr):
					t.Errorf("%s v6=%v %s %s: found target %d (%s), want %d (%s)",
						name, v6, c.what, c.arg, got.ID, got.Prefix, c.want.ID, c.want.Prefix)
				}
			}
		}
	}
}

// TestTargetAtFreshCopy pins a lazy TargetAt: every call derives a
// fresh copy, DeepEqual to a walker's target and to the eager world's,
// that the caller may keep and change without touching the next call's.
func TestTargetAtFreshCopy(t *testing.T) {
	eager, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := New(lazyConfig(TestConfig().Seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, v6 := range []bool{false, true} {
		wk := lazy.Walker(v6)
		for id := range lazy.NumTargets(v6) {
			got := lazy.TargetAt(v6, id)
			if want := eager.TargetAt(v6, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("v6=%v: TargetAt(%d) differs from the eager world's", v6, id)
			}
			if walked := wk.At(id); !reflect.DeepEqual(got, walked) {
				t.Fatalf("v6=%v: TargetAt(%d) differs from the walker's", v6, id)
			}
			// The slices a derivation fills are the copy's own.
			for i := range got.TempWindows {
				got.TempWindows[i] = DayRange{}
			}
			for i := range got.PartialAddrs {
				got.PartialAddrs[i] = 0
			}
			*got = Target{}
			if next := lazy.TargetAt(v6, id); next == got || !reflect.DeepEqual(next, eager.TargetAt(v6, id)) {
				t.Fatalf("v6=%v: changing TargetAt(%d)'s result changed the next call's", v6, id)
			}
		}
	}
}

// TestLazyBoundedMemory pins the lazy memory contract: peak live heap
// of a lazy world stays under a fixed ceiling regardless of the target count.
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
		// must not accumulate the targets it derives.
		count := 0
		w.IterTargets(false, 0, func(batch []Target) bool { count += len(batch); return true })
		if count != targets {
			t.Fatalf("swept %d of %d targets", count, targets)
		}
		for id := 0; id < targets; id += targets / 1000 {
			w.TargetAt(false, id)
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
