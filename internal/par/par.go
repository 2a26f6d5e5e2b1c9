// Package par is the census pipeline's one stage loop. Every measurement
// stage (manycast targets × sites, gcdmeas targets × VPs, the /32 sweep,
// the CHAOS census) is the same envelope around a different per-target
// body — admit targets responsibly, probe the admitted ones from every
// site or VP, account the cost — and Run owns all of it:
//
//   - admission: with a gate, items are presented sequentially in slice
//     order (the order a sequential loop probes in) and each decision is
//     recorded into the stage's budget.Usage, so the admitted set — and
//     the census — is the same at every Parallelism; the run's decisions
//     are then added to laces_budget_admitted_total and
//     laces_budget_denied_total{reason} on the world's registry, which
//     every pipeline on the world adds to, the stage observed or not (a
//     live measurement is not);
//   - telemetry: the stage's laces_stage_* series, its span with one
//     shardN child per shard, a live-progress tick per admitted item;
//   - sharding: shard s of k covers items [s*n/k, (s+1)*n/k) — contiguous,
//     ordered, exhaustive, disjoint — and fills its own Shard; outputs
//     concatenate and counters sum in shard order, reproducing the
//     sequential run byte-for-byte;
//   - accounting: after the join the probe, reply and denial totals land
//     in the stage series.
//
// Run also resolves every item's target, so a stage body is only "what to
// do with one *netsim.Target". Resolution walks: the admission pre-pass
// and each shard derive their items in order through their own
// netsim.Walker, never through World.TargetAt, so the target a body (or
// demand) is handed is valid only for the duration of the call — copy
// what must outlive it. An item whose ID is outside the
// world is not demand: it passes admission uncharged, is never probed,
// and still ticks progress (the stage total counts it).
//
// A body must write only its own Shard, scratch it made for that shard,
// and data-race-free shared structures (netsim.World's routing caches are
// sharded for this), and every probe must be a pure function of (seed,
// target, schedule). Parallelism then changes wall-clock time, never
// results — the chaos engine's determinism guarantee under concurrency.
package par

import (
	"runtime"
	"strconv"
	"sync"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
)

// Workers resolves a parallelism knob to an effective worker count:
// values <= 0 select GOMAXPROCS (all available cores), 1 is sequential.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// NumShards returns the shard count Do will use for an input of length n
// at the given parallelism: min(Workers(workers), n), and 0 for an empty
// input.
func NumShards(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if k := Workers(workers); k < n {
		return k
	}
	return n
}

// Stage says where one stage run probes and who governs and observes it.
type Stage struct {
	Label       string // the laces_stage_* label and the stage span's name
	World       *netsim.World
	V6          bool
	Gate        *budget.Gate  // nil admits everything at zero cost
	Obs         *obs.Registry // nil disables the stage's telemetry, which never feeds back into results
	Parallelism int           // <= 0 means GOMAXPROCS, 1 runs on the calling goroutine
}

// Shard is what one shard of a Run accumulates: its ordered output and
// its probe and reply counts. Plain fields — only the shard's goroutine
// writes them — padded so neighbouring shards' hot-loop counters stay off
// each other's cache line.
type Shard[O any] struct {
	Out     []O
	Probes  int64
	Replies int64
	_       [24]byte
}

// Run executes one stage over items. id names an item's target; demand is
// the budget units probing that target costs at worst (consulted only
// under a gate, with every decision recorded into usage).
// body is called once per shard, on the shard's goroutine, and returns
// what to do with one admitted target — i is the item's index among the
// admitted items (what a pacer schedules by), scratch the returned
// closure captures is that shard's alone, and tg — like demand's
// argument — must not be kept past the call.
//
// Run returns the shards merged in shard order — outputs in item order,
// probes and replies summed — and the number of admitted items.
func Run[I, O any](st Stage, items []I, usage *budget.Usage, id func(I) int, demand func(*netsim.Target) int64,
	body func(sh *Shard[O]) func(i int, tg *netsim.Target)) (sum Shard[O], admitted int) {
	numTargets := st.World.NumTargets(st.V6)
	target := func(wk *netsim.Walker, it I) *netsim.Target {
		if id := id(it); id >= 0 && id < numTargets {
			return wk.At(id)
		}
		return nil
	}
	presented := len(items)
	if st.Gate != nil {
		wk := st.World.Walker(st.V6)
		kept := items[:0:0] // never aliases the caller's backing array
		var decided [budget.DeniedOptOut + 1]int64
		for _, it := range items {
			if tg := target(wk, it); tg != nil {
				units := demand(tg)
				dec := st.Gate.Admit(tg, units)
				usage.Record(dec, units)
				decided[dec]++
				if dec != budget.Admitted {
					continue
				}
			}
			kept = append(kept, it)
		}
		items = kept
		const denied = "Targets denied by the responsible-probing ledger, by reason."
		reg := st.World.Registry()
		reg.Counter("laces_budget_admitted_total",
			"Targets admitted by the responsible-probing ledger.").Add(decided[budget.Admitted])
		reg.Counter("laces_budget_denied_total", denied, obs.L("reason", "budget")).Add(decided[budget.DeniedBudget])
		reg.Counter("laces_budget_denied_total", denied, obs.L("reason", "optout")).Add(decided[budget.DeniedOptOut])
	}

	// Every handle is a no-op when Obs is nil, and the hot-loop counting
	// goes to the shard's plain fields, never to a shared atomic.
	si := st.Obs.Stage(st.Label, len(items))
	shards := make([]Shard[O], NumShards(len(items), st.Parallelism))
	Do(len(items), st.Parallelism, func(s, start, end int) {
		span := si.Span.Child("shard" + strconv.Itoa(s))
		each, wk := body(&shards[s]), st.World.Walker(st.V6)
		for i := start; i < end; i++ {
			if tg := target(wk, items[i]); tg != nil {
				each(i, tg)
			}
			si.Done.Inc()
		}
		span.End()
	})

	for i := range shards {
		sum.Out = append(sum.Out, shards[i].Out...)
		sum.Probes += shards[i].Probes
		sum.Replies += shards[i].Replies
	}
	si.Probes.Add(sum.Probes)
	si.Replies.Add(sum.Replies)
	si.Denied.Add(int64(presented - len(items)))
	si.End()
	return sum, len(items)
}

// Do partitions the index range [0, n) into NumShards(n, workers)
// contiguous shards and invokes fn(shard, start, end) once per shard,
// concurrently when more than one shard exists. It returns when every
// shard has finished. With one shard (or n <= 1) fn runs on the calling
// goroutine, so sequential configurations pay no synchronisation cost.
func Do(n, workers int, fn func(shard, start, end int)) {
	k := NumShards(n, workers)
	switch k {
	case 0:
		return
	case 1:
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for s := 0; s < k; s++ {
		go func(s int) {
			defer wg.Done()
			fn(s, s*n/k, (s+1)*n/k)
		}(s)
	}
	wg.Wait()
}
