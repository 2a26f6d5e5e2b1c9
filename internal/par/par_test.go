package par

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 7, 64} {
		if got := Workers(n); got != n {
			t.Fatalf("Workers(%d) = %d", n, got)
		}
	}
}

func TestNumShards(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{0, 4, 0},
		{-1, 4, 0},
		{1, 4, 1},
		{3, 4, 3},
		{10, 4, 4},
		{10, 1, 1},
	}
	for _, c := range cases {
		if got := NumShards(c.n, c.workers); got != c.want {
			t.Fatalf("NumShards(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestDoShardContract verifies shards are contiguous, ordered, disjoint and
// exhaustive for a spread of (n, workers) pairs.
func TestDoShardContract(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 16, 17, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 33} {
			k := NumShards(n, workers)
			bounds := make([][2]int, k)
			Do(n, workers, func(shard, start, end int) {
				bounds[shard] = [2]int{start, end}
			})
			covered := 0
			for s := 0; s < k; s++ {
				start, end := bounds[s][0], bounds[s][1]
				if start > end {
					t.Fatalf("n=%d workers=%d shard %d inverted: [%d,%d)", n, workers, s, start, end)
				}
				if start != covered {
					t.Fatalf("n=%d workers=%d shard %d starts at %d, want %d", n, workers, s, start, covered)
				}
				covered = end
			}
			if covered != n {
				t.Fatalf("n=%d workers=%d covered %d", n, workers, covered)
			}
		}
	}
}

// TestDoMergeOrder is the determinism contract in miniature: per-shard
// buffers concatenated in shard order equal the sequential output.
func TestDoMergeOrder(t *testing.T) {
	const n = 257
	for _, workers := range []int{1, 3, 8} {
		k := NumShards(n, workers)
		shards := make([][]int, k)
		Do(n, workers, func(shard, start, end int) {
			for i := start; i < end; i++ {
				shards[shard] = append(shards[shard], i*i)
			}
		})
		var merged []int
		for _, sh := range shards {
			merged = append(merged, sh...)
		}
		if len(merged) != n {
			t.Fatalf("workers=%d merged %d of %d", workers, len(merged), n)
		}
		for i, v := range merged {
			if v != i*i {
				t.Fatalf("workers=%d merged[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func testWorld(t *testing.T) *netsim.World {
	t.Helper()
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runOut is what the property test's body emits per probed target: the
// item's index among the admitted items and the target it resolved to.
type runOut struct{ I, ID int }

// testRun drives Run over a list of target IDs with a body whose output
// and counters are a pure function of (index, target), and that writes
// per-shard scratch to catch a closure shared between shards.
func testRun(w *netsim.World, ids []int, gate *budget.Gate, workers int) (Shard[runOut], int, budget.Usage) {
	var usage budget.Usage
	sum, admitted := Run(Stage{Label: "test", World: w, Gate: gate, Parallelism: workers}, ids, &usage,
		func(id int) int { return id },
		func(tg *netsim.Target) int64 { return int64(1 + tg.ID%7) },
		func(sh *Shard[runOut]) func(int, *netsim.Target) {
			scratch := make([]int, 0, 4)
			return func(i int, tg *netsim.Target) {
				scratch = append(scratch[:0], i, tg.ID)
				sh.Probes += int64(1 + tg.ID%7)
				if tg.ID%3 != 0 {
					sh.Replies++
				}
				if tg.ID%5 != 0 {
					sh.Out = append(sh.Out, runOut{scratch[0], scratch[1]})
				}
			}
		})
	return sum, admitted, usage
}

// TestRunMatchesSequential is the stage loop's determinism contract as a
// property: for random item lists (out-of-range IDs and repeats included)
// the merged output, probe and reply totals and admitted count equal the
// Parallelism-1 run at every worker count, ungoverned and under a gate
// whose caps and opt-outs deny part of the list — where the admitted set
// and the Usage must not depend on Parallelism either, and the usage
// reconciles.
func TestRunMatchesSequential(t *testing.T) {
	w := testWorld(t)
	n := w.NumTargets(false)
	optOut := budget.NewRegistry()
	optOut.AddAS(w.TargetAt(false, 0).Origin)
	newGate := func() *budget.Gate {
		return budget.NewLedger(budget.Budget{DailyProbes: 900, PerASProbes: 40}, optOut).Gate(0)
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 40; trial++ {
		ids := make([]int, rng.Intn(400))
		invalid := 0
		for i := range ids {
			switch rng.Intn(10) {
			case 0:
				ids[i], invalid = -1-rng.Intn(5), invalid+1
			case 1:
				ids[i], invalid = n+rng.Intn(5), invalid+1
			default:
				ids[i] = rng.Intn(n)
			}
		}
		for _, governed := range []bool{false, true} {
			var gate *budget.Gate
			if governed {
				gate = newGate()
			}
			want, wantAdmitted, wantUsage := testRun(w, ids, gate, 1)
			if !wantUsage.Reconciles() {
				t.Fatalf("trial %d: usage does not reconcile: %+v", trial, wantUsage)
			}
			denied := wantUsage.OptOutTargets + wantUsage.BudgetTargets
			if wantAdmitted != len(ids)-denied {
				t.Fatalf("trial %d governed=%v: admitted %d of %d with %d denied", trial, governed, wantAdmitted, len(ids), denied)
			}
			if governed && len(ids) > 200 && (denied == 0 || denied == len(ids)-invalid) {
				t.Fatalf("trial %d: gate denied %d of %d — the property needs a partial denial", trial, denied, len(ids)-invalid)
			}
			if !governed && wantUsage != (budget.Usage{}) {
				t.Fatalf("trial %d: ungoverned run recorded usage %+v", trial, wantUsage)
			}
			for _, workers := range []int{0, 2, 5, 50} {
				if governed {
					gate = newGate()
				}
				got, admitted, usage := testRun(w, ids, gate, workers)
				if !reflect.DeepEqual(got, want) || admitted != wantAdmitted || usage != wantUsage {
					t.Fatalf("trial %d governed=%v workers=%d: run diverges from sequential:\n got %d outputs, %d probes, %d replies, %d admitted, %+v\nwant %d outputs, %d probes, %d replies, %d admitted, %+v",
						trial, governed, workers, len(got.Out), got.Probes, got.Replies, admitted, usage,
						len(want.Out), want.Probes, want.Replies, wantAdmitted, wantUsage)
				}
			}
		}
	}
}

// TestRunEdges: an empty list and a list of nothing but out-of-range IDs
// probe nothing, charge nothing, and still count every item as admitted
// and done.
func TestRunEdges(t *testing.T) {
	w := testWorld(t)
	gate := budget.NewLedger(budget.Budget{DailyProbes: 1}, nil).Gate(0)
	for _, ids := range [][]int{nil, {-1, w.NumTargets(false), 1 << 40}} {
		for _, workers := range []int{1, 4} {
			reg := obs.New()
			var usage budget.Usage
			sum, admitted := Run(Stage{Label: "edge", World: w, Gate: gate, Obs: reg, Parallelism: workers}, ids, &usage,
				func(id int) int { return id },
				func(*netsim.Target) int64 { t.Error("demand asked for an out-of-range item"); return 1 },
				func(sh *Shard[int]) func(int, *netsim.Target) {
					return func(int, *netsim.Target) { t.Error("body ran for an out-of-range item") }
				})
			if sum.Out != nil || sum.Probes != 0 || sum.Replies != 0 || admitted != len(ids) || usage != (budget.Usage{}) {
				t.Fatalf("ids=%v workers=%d: Run = (%+v, %d), usage %+v", ids, workers, sum, admitted, usage)
			}
			if p := reg.Progress(); p.Done != int64(len(ids)) || p.Total != int64(len(ids)) {
				t.Fatalf("ids=%v workers=%d: progress %d/%d, want %d/%d", ids, workers, p.Done, p.Total, len(ids), len(ids))
			}
		}
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	const n = 10_000
	var hits [n]int32
	Do(n, 0, func(_, start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
}
