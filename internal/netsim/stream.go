package netsim

import (
	"net/netip"
	"sort"
)

// Streaming target access. These accessors are the only way to reach a
// world's targets and announcements; they work identically on eager
// worlds (backed by the family's pre-derived targets) and lazy worlds
// (backed by the layout and the derivation path):
//
//   - NumTargets / TargetAt: random access by family-wide target ID; on a
//     lazy world each call derives a fresh copy (screen, the
//     experiments' spot lookups).
//   - Walker: one goroutine's pass over an ascending ID sequence, dense
//     or sparse (each internal/par shard has one, as do detect's fold,
//     feedback and Confirm's split); the target At returns is valid until
//     the next At.
//   - IterTargets: ID-ordered batched streaming over the whole family;
//     the batch slice is reused between invocations, so callers must not
//     retain it (copy what outlives the callback).
//   - FindTarget: lookup by prefix or address, a binary search over IDs
//     (target ID order is prefix address order).
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
// for an empty family) and, on an eager world, every target pre-derived
// (nil on a lazy world). genTargets picks the mode; the accessors branch
// on whether targets exists.
type family struct {
	L       *famLayout
	targets []Target
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
// world this is a slice index into the pre-derived targets; on a lazy
// world every call derives a fresh copy the caller may keep (batch binary
// search plus a bounded block replay), so distinct calls return distinct,
// equal-valued pointers and identity comparisons must use Target.ID. A
// pass over many IDs in ascending order walks instead (Walker).
//
//laces:hotpath an eager lookup is a slice index
func (w *World) TargetAt(v6 bool, id int) *Target {
	f := w.fam(v6)
	if f.targets != nil {
		return &f.targets[id]
	}
	return w.freshTarget(f.L, id)
}

// freshTarget is TargetAt on a lazy world.
func (w *World) freshTarget(L *famLayout, id int) *Target {
	t := new(Target)
	w.deriveTargetID(L, id, t)
	return t
}

// Walker derives one address family's targets for a single goroutine in
// the order an internal/par shard visits them: ascending IDs, dense or
// sparse. It owns one Target and derives every requested target into it
// without allocating, so the pointer At returns is valid only until the
// next At. While the next ID lies ahead in the current batch the walker
// steps its block cursor forward; it seeks (batch binary search plus
// checkpoint replay, as TargetAt's derivation does) only when the ID is
// behind it, in another batch, or past a checkpoint the seek would jump
// to. Any order is correct; ascending order is what is cheap. On an
// eager world At is TargetAt's slice index.
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
// The batch slice is only valid during the callback. On a lazy world the
// batch buffer is reused and derivation walks each announcement block
// once, so a full sweep is O(n) with O(1) live targets; on an eager world
// batches are subslices of the pre-derived targets (no copying).
func (w *World) IterTargets(v6 bool, batchSize int, fn func(batch []Target) bool) {
	if batchSize <= 0 {
		batchSize = DefaultIterBatch
	}
	f := w.fam(v6)
	if all := f.targets; all != nil {
		for start := 0; start < len(all); start += batchSize {
			if !fn(all[start:min(start+batchSize, len(all))]) {
				return
			}
		}
		return
	}
	L := f.L
	if L == nil {
		return
	}
	buf := make([]Target, 0, batchSize)
	var bw blockWalker
	for bi := range L.batches {
		b := &L.batches[bi]
		bw.seek(w.seed, L.v6, b, 0)
		for bl := 0; bl < b.count; bl++ {
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
// The address family is p's own. The layout allocates prefixes in
// ascending address order by target ID, without overlap, so the search
// is binary: it derives about log₂ n targets through one Walker and
// takes the last one whose prefix address is ≤ p's. The result is a
// copy the caller may keep.
func (w *World) FindTarget(p netip.Prefix) *Target {
	a, single := p.Addr(), p.IsSingleIP()
	v6 := a.Is6() && !a.Is4In6()
	wk := w.Walker(v6)
	i := sort.Search(w.NumTargets(v6), func(id int) bool {
		return wk.At(id).Prefix.Addr().Compare(a) > 0
	})
	if i == 0 {
		return nil // no target's prefix starts at or below a
	}
	if tg := *wk.At(i - 1); tg.Prefix == p || single && tg.Prefix.Contains(a) {
		return &tg
	}
	return nil
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
