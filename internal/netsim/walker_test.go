package netsim

import (
	"cmp"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/obs"
)

// walkWorld is the lazy TestConfig world the walker tests share
// (generation is deterministic and the world is immutable).
var walkWorld = sync.OnceValues(func() (*World, error) { return New(lazyConfig(0x1ace5)) })

func mustWalkWorld(tb testing.TB) *World {
	tb.Helper()
	w, err := walkWorld()
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// walkBoundaries returns the family's IDs where a walk changes seek
// regime: every batch start and every checkpoint, each with its two
// neighbours.
func walkBoundaries(L *famLayout) []int {
	var ids []int
	for i := range L.batches {
		b := &L.batches[i]
		ids = append(ids, b.startID-1, b.startID, b.startID+1)
		for _, ck := range b.ckpts {
			id := b.startID + ck.i
			ids = append(ids, id-1, id, id+1)
		}
	}
	return ids
}

// walkIDs decodes fuzz bytes into an ID sequence over a family of n
// targets. Each (op, arg) byte pair appends one move of a cursor that
// wraps within [0, n): an ascending dense run, a sparse forward jump, a
// backward jump, a jump to a batch or checkpoint boundary — or one ID
// outside the family.
func walkIDs(data []byte, n int, bounds []int) []int {
	var ids []int
	cur := 0
	wrap := func(id int) int { return (id%n + n) % n }
	for k := 0; k+1 < len(data); k += 2 {
		op, arg := int(data[k]), int(data[k+1])
		switch op % 5 {
		case 0: // dense run
			for j := 0; j <= arg%32; j++ {
				cur = wrap(cur + 1)
				ids = append(ids, cur)
			}
		case 1: // sparse forward jump
			cur = wrap(cur + 1 + arg*arg)
			ids = append(ids, cur)
		case 2: // backward jump
			cur = wrap(cur - 1 - arg*arg/2)
			ids = append(ids, cur)
		case 3: // a batch or checkpoint boundary
			cur = wrap(bounds[(op/5*256+arg)%len(bounds)])
			ids = append(ids, cur)
		case 4: // outside the family; the cursor stays
			if arg%2 == 0 {
				ids = append(ids, -1-arg/2)
			} else {
				ids = append(ids, n+arg/2)
			}
		}
	}
	return ids
}

// panicOf runs f and returns what it panicked with, nil if it did not.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// FuzzTargetWalk pins Walker to TargetAt: on a lazy world, for any ID
// sequence — dense and sparse ascending runs, backward jumps, batch and
// checkpoint crossings, IDs outside the family — every At is DeepEqual to
// TargetAt's fresh derivation, and an ID TargetAt rejects, At rejects with
// the same panic. Two successive IDs of the sequence keep prefix order.
func FuzzTargetWalk(f *testing.F) {
	f.Add(false, []byte{0, 31, 0, 31, 1, 3, 0, 5, 2, 4, 0, 2})
	f.Add(true, []byte{0, 31, 0, 31, 1, 3, 0, 5, 2, 4, 0, 2})
	f.Add(false, []byte{3, 0, 0, 9, 3, 7, 0, 9, 8, 2, 0, 3, 13, 5, 0, 1})
	f.Add(true, []byte{3, 1, 0, 9, 8, 9, 0, 9, 13, 4, 1, 40, 2, 40, 0, 31})
	f.Add(false, []byte{4, 0, 4, 1, 0, 3, 4, 7, 1, 200, 4, 2})
	f.Add(true, []byte{1, 255, 1, 255, 1, 255, 2, 255, 0, 7, 4, 9})
	w := mustWalkWorld(f)
	bounds := map[bool][]int{false: walkBoundaries(w.fam(false).L), true: walkBoundaries(w.fam(true).L)}
	f.Fuzz(func(t *testing.T, v6 bool, data []byte) {
		wk := w.Walker(v6)
		prevID, prev := -1, netip.Prefix{}
		for _, id := range walkIDs(data, w.NumTargets(v6), bounds[v6]) {
			var got, want *Target
			gotPanic := panicOf(func() { got = wk.At(id) })
			wantPanic := panicOf(func() { want = w.TargetAt(v6, id) })
			if gotPanic != nil || wantPanic != nil {
				if fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
					t.Fatalf("v6=%v id %d: At panicked with %v, TargetAt with %v", v6, id, gotPanic, wantPanic)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("v6=%v id %d: At differs from TargetAt\n got %+v\nwant %+v", v6, id, *got, *want)
			}
			// Target ID order is prefix order (TestTargetIDOrderIsPrefixOrder).
			if p := got.Prefix; prevID >= 0 && (p.Bits() != prev.Bits() || prev.Addr().Compare(p.Addr()) != cmp.Compare(prevID, id)) {
				t.Fatalf("v6=%v: target %d (%s) and target %d (%s) are out of prefix order", v6, prevID, prev, id, p)
			}
			prevID, prev = id, got.Prefix
		}
	})
}

// TestWalkBoundariesCoverCheckpoints keeps FuzzTargetWalk meaningful: the
// test world must have batches long enough to carry checkpoints (its
// IPv4 family does), or the walker's checkpoint rule goes unexercised.
func TestWalkBoundariesCoverCheckpoints(t *testing.T) {
	w := mustWalkWorld(t)
	ckpts := 0
	for _, v6 := range []bool{false, true} {
		for _, b := range w.fam(v6).L.batches {
			ckpts += len(b.ckpts)
		}
	}
	if ckpts == 0 {
		t.Error("no batch of the test world has a checkpoint")
	}
}

// TestWalkerNoAllocs pins the walker's zero-allocation contract: after
// the world is warm, a dense ascending sweep and a sparse one through a
// single Walker allocate nothing, whatever classes they cross — the
// sweeps must meet temporary windows, partial-anycast addresses and
// hijack sites, the fields that reuse the walker's buffers. One measured
// run each, so a single allocation shows.
func TestWalkerNoAllocs(t *testing.T) {
	w := mustWalkWorld(t)
	var windows, partial, hijacks int
	for _, v6 := range []bool{false, true} {
		n := w.NumTargets(v6)
		for _, sweep := range []struct {
			name   string
			stride int
		}{{"dense", 1}, {"sparse", 37}} {
			wk := w.Walker(v6)
			allocs := testing.AllocsPerRun(1, func() {
				for id := 0; id < n; id += sweep.stride {
					tg := wk.At(id)
					windows += len(tg.TempWindows)
					partial += len(tg.PartialAddrs)
					if tg.Kind == Unicast && tg.Sites != nil {
						hijacks++
					}
				}
			})
			if allocs != 0 {
				t.Errorf("v6=%v %s sweep: %v allocations per sweep, want 0", v6, sweep.name, allocs)
			}
		}
	}
	if windows == 0 || partial == 0 || hijacks == 0 {
		t.Errorf("the sweeps met %d temporary windows, %d partial-anycast addresses and %d hijacks; want some of each",
			windows, partial, hijacks)
	}
}

// TestWalkDerivationTelemetry: every lazy At is one counted derivation,
// a TargetAt is none, and the counter is nil-safe.
func TestWalkDerivationTelemetry(t *testing.T) {
	w, err := New(lazyConfig(0x1ace5))
	if err != nil {
		t.Fatal(err)
	}
	var none *telemetry
	if none.WalkDerivations() != 0 {
		t.Fatal("nil telemetry reports walk derivations")
	}
	w.Instrument(obs.New())
	tel := w.tel
	wk := w.Walker(true)
	for id := 0; id < 100; id += 3 {
		wk.At(id)
		w.TargetAt(true, id)
	}
	if got := tel.WalkDerivations(); got != 34 {
		t.Errorf("WalkDerivations = %d, want 34", got)
	}
}
