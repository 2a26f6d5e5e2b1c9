package netsim

import "sync/atomic"

// targetArena is the bounded cache of materialized targets in a lazy
// world: a direct-mapped, lock-free table of size 2^k. A warm lookup is
// one atomic load plus an ID compare (zero allocations — pinned by
// TestTargetAtWarmNoAllocs); a miss derives the target and publishes it,
// evicting whichever target shared the slot. Evicted pointers already
// handed out stay valid (the GC keeps them alive), so concurrent readers
// never observe torn state — at worst two goroutines derive the same
// target and one copy wins the slot.
type targetArena struct {
	mask  uint64
	slots []atomic.Pointer[Target]
	live  atomic.Int64 // occupied slots = live materialized targets
}

// arenaSlots bounds the per-family cache of materialized targets on a
// lazy world: 32k hot targets, so peak live-target memory is independent
// of V4Targets/V6Targets.
const arenaSlots = 1 << 15

// newTargetArena builds an arena with n slots, rounded up to a power of
// two (minimum 1).
func newTargetArena(n int) *targetArena {
	size := 1
	for size < n {
		size <<= 1
	}
	return &targetArena{
		mask:  uint64(size - 1),
		slots: make([]atomic.Pointer[Target], size),
	}
}

// Live returns the number of currently materialized targets.
func (a *targetArena) Live() int64 {
	if a == nil {
		return 0
	}
	return a.live.Load()
}

// get returns the cached target with the given ID, or nil on a miss.
//
//laces:hotpath warm arena hit is one atomic load plus an ID compare
func (a *targetArena) get(id int) *Target {
	p := a.slots[uint64(id)&a.mask].Load()
	if p != nil && p.ID == id {
		return p
	}
	return nil
}

// put derives-and-publishes: stores t in its slot and returns whether the
// slot was previously empty (for the live gauge).
func (a *targetArena) put(t *Target) {
	if a.slots[uint64(t.ID)&a.mask].Swap(t) == nil {
		a.live.Add(1)
	}
}
