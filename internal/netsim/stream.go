package netsim

import (
	"net/netip"
	"sort"
)

// Streaming target access. These accessors are the only way to reach a
// world's targets and announcements; they work identically on eager
// worlds (backed by the family's pre-derived targets) and lazy worlds
// (backed by the layout, the derivation path and the bounded arena):
//
//   - NumTargets / TargetAt: random access by family-wide target ID; on a
//     lazy world the arena serves it (detect's fold, feedback, Confirm's
//     split, screen, the fabric).
//   - Walker: one goroutine's pass over an ascending ID sequence, dense
//     or sparse (each internal/par shard has one); the target At returns
//     is valid until the next At.
//   - IterTargets / IterTargetsRange: ID-ordered batched streaming; the
//     batch slice is reused between invocations, so callers must not
//     retain it (copy what outlives the callback).
//   - FindTarget: lookup by prefix or address.
//   - BGPPrefixAt: the announcement table, derived from the layout in
//     both modes.
//
// Determinism: iteration order is always ascending target ID, and every
// derived target is a pure function of (seed, ID), so eager and lazy
// worlds — and sequential and sharded consumers — see byte-identical
// universes.

// DefaultIterBatch is the streaming batch size when the caller passes 0.
const DefaultIterBatch = 1024

// family is one address family's universe: its generation layout (nil
// for an empty family) and either every target pre-derived (targets,
// eager worlds) or the bounded cache of hot ones (arena, lazy worlds).
// genTargets picks the mode; the accessors branch on whether targets
// exists.
type family struct {
	L       *famLayout
	targets []Target
	arena   *targetArena
}

// fam returns the address family's universe.
func (w *World) fam(v6 bool) *family {
	if v6 {
		return &w.fams[1]
	}
	return &w.fams[0]
}

// NumTargets returns the number of targets in the address family.
func (w *World) NumTargets(v6 bool) int {
	if L := w.fam(v6).L; L != nil {
		return L.total
	}
	return 0
}

// TargetAt returns the target with the given family-wide ID. On an eager
// world this is a slice index; on a lazy world a warm (arena-hit) lookup
// is one atomic load plus an ID compare, and a miss derives the target
// and caches it. The returned pointer stays valid after eviction, but
// distinct calls may return distinct (equal-valued) pointers — identity
// comparisons must use Target.ID.
//
//laces:hotpath warm arena hit is one atomic load plus an ID compare
func (w *World) TargetAt(v6 bool, id int) *Target {
	f := w.fam(v6)
	if f.targets != nil {
		return &f.targets[id]
	}
	if f.arena != nil {
		if t := f.arena.get(id); t != nil {
			if tel := w.tel; tel != nil {
				countLookup(&tel.arena, uint64(id), true)
			}
			return t
		}
	}
	return w.targetAtMiss(f, id)
}

// targetAtMiss is TargetAt's cold path: derive, publish to the arena,
// account the miss.
func (w *World) targetAtMiss(f *family, id int) *Target {
	if f.L == nil || id < 0 || id >= f.L.total {
		panic("netsim: TargetAt index out of range")
	}
	t := new(Target)
	w.deriveTargetID(f.L, id, t)
	f.arena.put(t)
	if tel := w.tel; tel != nil {
		countLookup(&tel.arena, uint64(id), false)
	}
	return t
}

// Walker derives one address family's targets for a single goroutine in
// the order an internal/par shard visits them: ascending IDs, dense or
// sparse. It owns one Target and derives every requested target into it
// — no arena lookup, no arena publish, no allocation — so the pointer At
// returns is valid only until the next At. While the next ID lies ahead
// in the current batch the walker steps its block cursor forward; it
// seeks (batch binary search plus checkpoint replay, as TargetAt's
// derivation does) only when the ID is behind it, in another batch, or
// past a checkpoint the seek would jump to. Any order is correct;
// ascending order is what is cheap. On an eager world At is TargetAt's
// slice index.
type Walker struct {
	all []Target // eager world: the family's pre-derived targets

	w    *World // lazy world; nil on an eager one
	L    *famLayout
	b    *targetBatch // the batch bw is on; nil before the first derivation
	ckpt int          // batch-local index of b's first checkpoint past bw's block
	bw   blockWalker
	t    Target
	bufs targetBufs
}

// Walker returns a new walker over the family's targets. A walker is not
// safe for concurrent use: make one per goroutine.
func (w *World) Walker(v6 bool) *Walker {
	f := w.fam(v6)
	if f.targets != nil {
		return &Walker{all: f.targets}
	}
	return &Walker{w: w, L: f.L}
}

// At returns the target with the given family-wide ID; it panics on an
// ID outside the family, as TargetAt does. On a lazy world the result
// is the walker's own Target, overwritten by the next At.
//
//laces:hotpath inlined slice index on an eager world
func (wk *Walker) At(id int) *Target {
	if wk.w == nil {
		return &wk.all[id]
	}
	return wk.walk(id)
}

// walk is At on a lazy world.
//
//laces:hotpath a forward step within a batch replays blocks, nothing else
func (wk *Walker) walk(id int) *Target {
	b, bl := wk.b, 0
	if b != nil {
		bl = id - b.startID
	}
	if b == nil || bl < wk.bw.i || bl >= wk.ckpt {
		b, bl = wk.seek(id)
	} else {
		for bl >= wk.bw.i+wk.bw.fill {
			wk.bw.next()
		}
	}
	wk.w.deriveInto(wk.L, b, &wk.bw, bl, &wk.t, &wk.bufs)
	if tel := wk.w.tel; tel != nil {
		tel.walk.Add(uint64(id), 1)
	}
	return &wk.t
}

// seek positions the walker on the block of target id from scratch and
// returns its batch and batch-local index.
func (wk *Walker) seek(id int) (*targetBatch, int) {
	b := wk.L.batchFor(id)
	if b == nil {
		panic("netsim: TargetAt index out of range")
	}
	bl := id - b.startID
	wk.b, wk.ckpt = b, wk.bw.seek(wk.w.seed, wk.L.v6, b, bl)
	return b, bl
}

// IterTargets streams the family's whole target universe in ID order,
// invoking fn with consecutive batches of up to batchSize targets
// (DefaultIterBatch when <= 0). fn returning false stops the iteration.
// The batch slice is only valid during the callback.
func (w *World) IterTargets(v6 bool, batchSize int, fn func(batch []Target) bool) {
	w.IterTargetsRange(v6, 0, w.NumTargets(v6), batchSize, fn)
}

// IterTargetsRange streams targets with IDs in [lo, hi), in ID order, in
// batches of up to batchSize. Contiguous ID ranges are exactly the
// shards internal/par plans (shard s covers [s·n/k, (s+1)·n/k)), so a
// sharded consumer streams its range without touching any other shard's
// targets. On a lazy world the batch buffer is reused and derivation
// walks each announcement block once, so a full sweep is O(n) with O(1)
// live targets; on an eager world batches are subslices of the
// pre-derived targets (no copying).
func (w *World) IterTargetsRange(v6 bool, lo, hi, batchSize int, fn func(batch []Target) bool) {
	n := w.NumTargets(v6)
	lo, hi = max(lo, 0), min(hi, n)
	if lo >= hi {
		return
	}
	if batchSize <= 0 {
		batchSize = DefaultIterBatch
	}
	f := w.fam(v6)
	if all := f.targets; all != nil {
		for start := lo; start < hi; start += batchSize {
			if !fn(all[start:min(start+batchSize, hi)]) {
				return
			}
		}
		return
	}
	L := f.L
	buf := make([]Target, 0, batchSize)
	bi := sort.Search(len(L.batches), func(k int) bool {
		return L.batches[k].startID > lo
	}) - 1
	var bw blockWalker
	for id := lo; id < hi; bi++ {
		b := &L.batches[bi]
		bl := id - b.startID
		bw.seek(w.seed, L.v6, b, bl)
		for ; bl < b.count && id < hi; bl, id = bl+1, id+1 {
			for bl >= bw.i+bw.fill {
				bw.next()
			}
			buf = append(buf, Target{})
			w.deriveInto(L, b, &bw, bl, &buf[len(buf)-1], nil)
			if len(buf) == batchSize {
				if !fn(buf) {
					return
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

// FindTarget returns the target whose prefix is p or, when p is a single
// address (/32, /128), whose prefix covers it; nil when there is none.
// The address family is p's own. The search streams the universe, so it
// works on a lazy world without materializing it, and the result is a
// copy the caller may keep.
func (w *World) FindTarget(p netip.Prefix) *Target {
	a, single := p.Addr(), p.IsSingleIP()
	var found *Target
	w.IterTargets(a.Is6() && !a.Is4In6(), 0, func(batch []Target) bool {
		for i := range batch {
			if tp := batch[i].Prefix; tp == p || single && tp.Contains(a) {
				tg := batch[i] // the batch buffer is reused
				found = &tg
				return false
			}
		}
		return true
	})
	return found
}

// BGPPrefixAt returns the BGP announcement with the given family-wide
// index. The announcement (including its contiguous target-ID run) is
// derived from the layout on demand in both modes; the returned value is
// fresh, not cached.
func (w *World) BGPPrefixAt(v6 bool, bi int) BGPPrefix {
	L := w.fam(v6).L
	b := L.batchForBGP(bi)
	if b == nil {
		panic("netsim: BGPPrefixAt index out of range")
	}
	var bw blockWalker
	bw.seekBGP(w.seed, L.v6, b, bi)
	ids := make([]int, bw.fill)
	for j := range ids {
		ids[j] = b.startID + bw.i + j
	}
	return BGPPrefix{
		Prefix:  blockPrefix(L.v6, bw.start, bw.log2),
		Origin:  b.asn,
		Targets: ids,
	}
}

// seekBGP positions the walker on the block with family-wide BGP index
// bi, using the batch checkpoints to bound the replay.
func (bw *blockWalker) seekBGP(seed uint64, v6 bool, b *targetBatch, bi int) {
	bw.seed, bw.v6, bw.b = seed, v6, b
	bw.i, bw.slot, bw.bgp = 0, b.startSlot, b.startBGP
	if n := len(b.ckpts); n > 0 {
		k := sort.Search(n, func(k int) bool { return b.ckpts[k].bgp > bi })
		if k > 0 {
			ck := b.ckpts[k-1]
			bw.i, bw.slot, bw.bgp = ck.i, ck.slot, ck.bgp
		}
	}
	bw.load()
	for bw.bgp < bi {
		bw.next()
	}
}

// MaterializedTargets returns the number of targets currently resident
// in memory: the full universe on an eager world, the arena occupancy on
// a lazy world. It backs the laces_netsim_targets_live gauge.
func (w *World) MaterializedTargets() int64 {
	var n int64
	for i := range w.fams {
		n += int64(len(w.fams[i].targets)) + w.fams[i].arena.Live()
	}
	return n
}
