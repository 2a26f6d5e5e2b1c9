package gcdmeas

import (
	"math/bits"
	"sort"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/geo"
	"github.com/laces-project/laces/internal/igreedy"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// oracleVPs is the campaign size of the exact-oracle check: the largest
// disc set maxIndependent solves by branch and bound.
const oracleVPs = 24

// maxIndependent returns the size of a largest set of pairwise disjoint
// discs, adj[i] holding bit j when discs i and j overlap: branch on the
// lowest candidate, take it or drop it, and prune a branch that cannot
// beat the best set found even if every remaining candidate joined it.
func maxIndependent(adj []uint32) int {
	best := 0
	var grow func(cand uint32, size int)
	grow = func(cand uint32, size int) {
		if size+bits.OnesCount32(cand) <= best {
			return
		}
		if cand == 0 {
			best = size
			return
		}
		v := bits.TrailingZeros32(cand)
		grow(cand&^adj[v]&^(1<<v), size+1)
		grow(cand&^(1<<v), size)
	}
	grow(uint32(1)<<len(adj)-1, 0)
	return best
}

// TestGreedyWithinExactWithinTrueSites is the enumeration's scorecard on
// unimpaired days (no chaos impairer; the model's per-day GCD loss only
// thins the discs). For every ICMP-answering anycast target of three
// worlds, and every eighth other one, measured from 24 Ark VPs, the
// greedy site count is at most the largest set of pairwise disjoint
// discs. That is at most the number of distinct locations that answered
// the VPs: each disc holds the location that answered it, since a
// modelled RTT stretches the path by at least 1.15. The exact − greedy
// gaps are logged.
func TestGreedyWithinExactWithinTrueSites(t *testing.T) {
	gaps := map[int]int{}
	measured := 0
	for _, seed := range []uint64{1, 2, 3} {
		cfg := netsim.TestConfig()
		cfg.Seed = seed
		w, err := netsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const day = 40
		all, err := platform.Ark(w, day, false)
		if err != nil {
			t.Fatal(err)
		}
		vps := make([]netsim.VP, oracleVPs)
		for i := range vps {
			vps[i] = all[i*len(all)/oracleVPs]
		}
		c := Campaign{VPs: vps, Proto: packet.ICMP, At: netsim.DayTime(day).Add(6 * time.Hour), Attempts: 1}
		table, itable := netsim.NewVPTable(vps), c.igreedyTable()
		best := make([]time.Duration, len(vps))
		for id := range w.NumTargets(false) {
			tg := w.TargetAt(false, id)
			if !tg.Responsive[packet.ICMP] || (!tg.IsAnycastAt(day) && id%8 != 0) {
				continue
			}
			if _, replies := w.UnicastFan(table, tg, packet.ICMP, c.At, 1, best); replies == 0 {
				continue
			}
			greedy := itable.Analyze(best, igreedy.Options{}).NumSites()

			var caps []geo.Cap
			answered := map[int]bool{}
			for i, rtt := range best {
				if rtt == 0 {
					continue
				}
				caps = append(caps, geo.NewCap(geo.Disc{Center: vps[i].Loc, RadiusKm: geo.MaxDistanceKm(rtt)}, vps[i].Loc.Vec()))
				_, site, ok := w.ProbeUnicast(vps[i], tg, packet.ICMP, c.At, 0)
				if !ok {
					t.Fatalf("seed %d target %d: VP %s answered the fan but not the probe", seed, id, vps[i].Name)
				}
				answered[site] = true
			}
			adj := make([]uint32, len(caps))
			for i := range caps {
				for j := range caps {
					if i != j && caps[i].Overlaps(&caps[j]) {
						adj[i] |= 1 << j
					}
				}
			}
			exact := maxIndependent(adj)
			if greedy > exact || exact > len(answered) {
				t.Fatalf("seed %d target %d (%v, %d sites): greedy %d, exact %d, answering locations %d — want greedy ≤ exact ≤ answering",
					seed, id, tg.Kind, len(tg.Sites), greedy, exact, len(answered))
			}
			gaps[exact-greedy]++
			measured++
		}
	}
	if measured < 300 {
		t.Fatalf("only %d targets measured: the check covers too little", measured)
	}
	var keys []int
	for k := range gaps {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		t.Logf("exact − greedy = %d: %d of %d targets", k, gaps[k], measured)
	}
}
