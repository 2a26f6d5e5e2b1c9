package netsim

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// The layout pass is the scale pivot of the simulator: it computes the
// complete *shape* of a family's target universe — which batch of
// same-origin targets lands at which ID range, address-slot range and
// BGP-announcement range — without constructing a single Target. Every
// per-target field is a pure function of (world seed, batch identity,
// in-batch index), so once the layout is known any target can be derived
// on demand (derive.go). Eager worlds materialize all targets through
// that same derivation path; lazy worlds keep only the layout and derive
// each target when it is asked for (stream.go). Both modes therefore
// produce byte-identical universes by construction — the equivalence
// tests pin it across seeds.
//
// Layout memory is proportional to the number of ASes and deployments
// (one batch record each, plus sparse block checkpoints), never to the
// number of targets: a ~1M-target / ~80k-AS world lays out in a few MB.

// batchClass identifies which generation rule a batch of targets follows.
type batchClass uint8

const (
	// classOperator is a modelled operator's prefix batch.
	classOperator batchClass = iota
	// classEvent is an IPv6 event-AS eyeball batch (China Unicom /
	// Astound / contell).
	classEvent
	// classGeneric is one generic anycast deployment (a single target).
	classGeneric
	// classUnicast is one AS's unicast-fill batch.
	classUnicast
)

// ckptEvery is the block-checkpoint interval: random access into a batch
// replays at most this many blocks from the nearest checkpoint.
const ckptEvery = 64

// blockCkpt records allocator state at the start of a block so random
// access does not replay the whole batch.
type blockCkpt struct {
	i    int    // batch-local target index of the block start
	slot uint32 // allocator cursor before the block's alignment
	bgp  int    // family-wide BGP index of the block
}

// targetBatch is the layout record for one emit batch: a run of
// same-origin targets with contiguous IDs, slots and announcements.
type targetBatch struct {
	class    batchClass
	asn      ASN
	operator bool // announcement size class (operator and event batches)

	startID   int
	count     int
	startBGP  int
	startSlot uint32
	ckpts     []blockCkpt // sparse checkpoints past block 0

	// Class parameter: operator index, event index, generic deployment
	// index, or w.ASes index, depending on class.
	param int
}

// famLayout is the complete lazy-generation state for one address family.
type famLayout struct {
	v6  bool
	fam uint64 // hash-salt family tag: 4 or 6

	batches []targetBatch
	total   int // targets in the family
	nBGP    int // BGP announcements in the family

	// Unicast-fill parameters shared by every classUnicast derivation.
	remaining         int // unicast fill size (hijack chance denominator)
	icmpF, tcpF, dnsF float64

	// hijacks holds the (ASN, in-batch index) winners of the global
	// hijack-event counter, precomputed by a hash-only pre-pass so
	// derivation needs no sequential state (IPv4 only).
	hijacks map[uint64]bool

	// events caches the scaled event-AS table and the resolved sites of
	// born-anycast events, shared by their targets (IPv6 only).
	events  []eventAS
	evSites [][]Site

	// Generic deployments: the medium and small counts (regional ones
	// follow) and each deployment's sites, placed on its first derivation
	// and shared by every later one (genericSites).
	nMedium, nSmall int
	generic         []atomic.Pointer[[]Site]
}

// hijackKey packs an (ASN, in-batch index) pair for the winner set.
func hijackKey(asn ASN, j int) uint64 { return uint64(asn)<<32 | uint64(uint32(j)) }

// batchFor returns the batch containing target id, or nil.
func (L *famLayout) batchFor(id int) *targetBatch {
	if L == nil || id < 0 || id >= L.total {
		return nil
	}
	k := sort.Search(len(L.batches), func(k int) bool {
		return L.batches[k].startID > id
	})
	return &L.batches[k-1]
}

// batchForBGP returns the batch containing BGP announcement index bi, or
// nil.
func (L *famLayout) batchForBGP(bi int) *targetBatch {
	if L == nil || bi < 0 || bi >= L.nBGP {
		return nil
	}
	k := sort.Search(len(L.batches), func(k int) bool {
		return L.batches[k].startBGP > bi
	})
	return &L.batches[k-1]
}

// layoutBatch appends one batch to the layout, replaying the block walk
// (announcement size classes and aligned slot allocation) to advance the
// family's ID, slot and BGP cursors and to record sparse checkpoints.
// The walk is hash-only: no Target is constructed.
func (w *World) layoutBatch(L *famLayout, alloc *prefixAllocator, b targetBatch) {
	b.startID = L.total
	b.startBGP = L.nBGP
	b.startSlot = alloc.slot
	i, blk := 0, 0
	for i < b.count {
		remaining := b.count - i
		h := mix(w.seed, uint64(b.asn), uint64(i), 0xb69)
		log2 := bgpSizeClass(h, b.operator, L.v6, remaining)
		if blk > 0 && blk%ckptEvery == 0 {
			b.ckpts = append(b.ckpts, blockCkpt{i: i, slot: alloc.slot, bgp: L.nBGP})
		}
		alloc.advance(log2)
		i += min(1<<log2, remaining)
		L.nBGP++
		blk++
	}
	L.total += b.count
	L.batches = append(L.batches, b)
}

// buildLayout computes the family's generation layout: batch boundaries,
// slot and announcement geometry, unicast quotas (including the one-time
// AS pathology-flag marking) and the hijack-event winner set. It is the
// only part of generation whose cost scales with the AS population; all
// per-target work is deferred to derivation.
func (w *World) buildLayout(v6 bool) (*famLayout, error) {
	total := w.Cfg.V4Targets
	if v6 {
		total = w.Cfg.V6Targets
	}
	if total == 0 {
		return nil, nil
	}
	L := &famLayout{v6: v6, fam: 4}
	if v6 {
		L.fam = 6
	}
	alloc := &prefixAllocator{v6: v6}

	// 1. Operator prefixes.
	used := 0
	for oi, spec := range w.Cfg.Operators {
		n := spec.V4Prefixes
		if v6 {
			n = spec.V6Prefixes
		}
		if spec.Name == "Microsoft" && !v6 {
			n = w.Cfg.GlobalUnicastV4
		}
		if n == 0 {
			continue
		}
		w.layoutBatch(L, alloc, targetBatch{
			class: classOperator, asn: spec.ASN, operator: true,
			count: n, param: oi,
		})
		used += n
	}

	// 2. Event ASes (IPv6 only).
	if v6 {
		L.events = defaultEventASes(w.Cfg.V6Targets)
		L.evSites = make([][]Site, len(L.events))
		for ei, ev := range L.events {
			if ev.bornAnycast > 0 {
				for _, cn := range ev.siteCities {
					ci, err := w.cityIndex(cn)
					if err != nil {
						return nil, err
					}
					L.evSites[ei] = append(L.evSites[ei], w.siteAt(ci))
				}
			}
			w.layoutBatch(L, alloc, targetBatch{
				class: classEvent, asn: ev.asn, operator: true,
				count: ev.targets, param: ei,
			})
			used += ev.targets
		}
	}

	// 3. Generic anycast deployments: one single-target batch each.
	nMedium, nSmall, nRegional := w.Cfg.MediumAnycast, w.Cfg.SmallAnycast, w.Cfg.RegionalAnycast
	if v6 {
		nMedium, nSmall, nRegional = nMedium/3, nSmall/3, nRegional/3
	}
	L.nMedium, L.nSmall = nMedium, nSmall
	L.generic = make([]atomic.Pointer[[]Site], nMedium+nSmall+nRegional)
	genericBase := ASN(300000)
	if v6 {
		genericBase = 400000
	}
	for i := range L.generic {
		w.layoutBatch(L, alloc, targetBatch{
			class: classGeneric, asn: genericBase + ASN(i),
			count: 1, param: i,
		})
		used++
	}

	// 4. Unicast fill across the generated AS population.
	L.remaining = total - used
	if L.remaining < 0 {
		return nil, fmt.Errorf("netsim: %d targets requested but %d already used by operators (family v6=%v)", total, used, v6)
	}
	quotas := w.unicastQuotas(L.remaining, v6)
	L.icmpF, L.tcpF, L.dnsF = w.Cfg.UnicastICMP, w.Cfg.UnicastTCP, w.Cfg.UnicastDNS
	if v6 {
		L.icmpF, L.tcpF, L.dnsF = w.Cfg.V6ICMP, w.Cfg.V6TCP, w.Cfg.V6DNS
	}
	firstUnicast := len(L.batches)
	for i := range w.ASes {
		if quotas[i] == 0 {
			continue
		}
		w.layoutBatch(L, alloc, targetBatch{
			class: classUnicast, asn: w.ASes[i].Number,
			count: quotas[i], param: i,
		})
	}

	// Hijack-event pre-pass (IPv4 only): replay the global countdown the
	// eager generator ran inline — the first hijackEventsV4 targets, in
	// batch order, whose hash clears the per-target probability win. The
	// winner set replaces the sequential counter so per-target derivation
	// stays order-free.
	if !v6 && L.remaining > 0 {
		L.hijacks = make(map[uint64]bool, hijackEventsV4)
		p := float64(hijackEventsV4) / float64(L.remaining)
		left := hijackEventsV4
		for bi := firstUnicast; bi < len(L.batches) && left > 0; bi++ {
			b := &L.batches[bi]
			for j := 0; j < b.count && left > 0; j++ {
				h := mix(w.seed, L.fam, 0xf111, uint64(b.asn), uint64(j))
				if chance(splitmix64(h^0x41ac), p) {
					L.hijacks[hijackKey(b.asn, j)] = true
					left--
				}
			}
		}
	}
	return L, nil
}
