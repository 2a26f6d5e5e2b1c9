package hitlist

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

var testWorld = mustWorld()

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func TestQuarterOf(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 89: 0, 90: 90, 179: 90, 180: 180, 533: 450, -5: 0}
	for day, want := range cases {
		if got := QuarterOf(day); got != want {
			t.Errorf("QuarterOf(%d) = %d, want %d", day, got, want)
		}
	}
}

// The oracle: §4.1's construction taken literally — a full-universe scan
// per source protocol, a hash-merge that ORs the protocol flags of
// duplicate prefixes, and a sort by target ID. ForDay's single pass must
// stay reflect.DeepEqual to it.

// scan lists every target responsive to proto that is already present in
// the day's quarterly snapshot.
func scan(w *netsim.World, proto packet.Protocol, v6 bool, day int) *Hitlist {
	snap := QuarterOf(day)
	h := &Hitlist{V6: v6, Day: snap}
	w.IterTargets(v6, 0, func(batch []netsim.Target) bool {
		for i := range batch {
			tg := &batch[i]
			if tg.HitlistFromDay > snap || !tg.Responsive[proto] {
				continue
			}
			var ps [3]bool
			ps[proto] = true
			h.Entries = append(h.Entries, Entry{
				TargetID:  tg.ID,
				Prefix:    tg.Prefix,
				Addr:      tg.Addr,
				Protocols: ps,
			})
		}
		return true
	})
	return h
}

// merge unions same-family hitlists, OR-ing protocol flags of duplicate
// prefixes; the result is sorted by target ID.
func merge(lists ...*Hitlist) *Hitlist {
	out := &Hitlist{V6: lists[0].V6, Day: lists[0].Day}
	byID := make(map[int]int)
	for _, l := range lists {
		if l.Day > out.Day {
			out.Day = l.Day
		}
		for _, e := range l.Entries {
			if j, ok := byID[e.TargetID]; ok {
				for p := range e.Protocols {
					out.Entries[j].Protocols[p] = out.Entries[j].Protocols[p] || e.Protocols[p]
				}
				continue
			}
			byID[e.TargetID] = len(out.Entries)
			out.Entries = append(out.Entries, e)
		}
	}
	sort.Slice(out.Entries, func(i, j int) bool {
		return out.Entries[i].TargetID < out.Entries[j].TargetID
	})
	return out
}

// scanMerge is the oracle's ForDay: ISI/TUM (ICMP) + Zmap (TCP) +
// OpenINTEL (DNS).
func scanMerge(w *netsim.World, v6 bool, day int) *Hitlist {
	return merge(
		scan(w, packet.ICMP, v6, day),
		scan(w, packet.TCP, v6, day),
		scan(w, packet.DNS, v6, day),
	)
}

// requireOracleEqual fails the test unless ForDay and the oracle build
// the same list.
func requireOracleEqual(t *testing.T, w *netsim.World, v6 bool, day int) {
	t.Helper()
	if got, want := ForDay(w, v6, day), scanMerge(w, v6, day); !reflect.DeepEqual(got, want) {
		t.Fatalf("v6=%v day %d: ForDay (%d entries, day %d) != scan+merge (%d entries, day %d)",
			v6, day, got.Len(), got.Day, want.Len(), want.Day)
	}
}

// TestScanMatchesResponsiveness grounds the oracle's scan in the world:
// a differential test is only as good as its reference.
func TestScanMatchesResponsiveness(t *testing.T) {
	h := scan(testWorld, packet.ICMP, false, 0)
	if h.Len() == 0 {
		t.Fatal("empty ICMP scan")
	}
	for _, e := range h.Entries {
		tg := testWorld.TargetAt(false, e.TargetID)
		if !tg.Responsive[packet.ICMP] {
			t.Fatalf("ICMP scan included ICMP-unresponsive target %d", e.TargetID)
		}
		if e.Protocols != [3]bool{packet.ICMP: true} {
			t.Fatalf("ICMP scan entry flagged %v", e.Protocols)
		}
		if e.Prefix != tg.Prefix || e.Addr != tg.Addr {
			t.Fatal("entry prefix/addr mismatch")
		}
	}
}

// TestMergeUnionsProtocols grounds the oracle's merge the same way.
func TestMergeUnionsProtocols(t *testing.T) {
	icmp := scan(testWorld, packet.ICMP, false, 0)
	tcp := scan(testWorld, packet.TCP, false, 0)
	merged := merge(icmp, tcp, scan(testWorld, packet.DNS, false, 0), icmp)
	if merged.Len() < icmp.Len() || merged.Len() < tcp.Len() {
		t.Fatal("merge lost entries")
	}
	// The union must equal the number of targets responsive to >= 1
	// scanned protocol (= all targets, by world construction).
	if merged.Len() != testWorld.NumTargets(false) {
		t.Fatalf("merged %d entries, world has %d responsive targets", merged.Len(), testWorld.NumTargets(false))
	}
	for i, e := range merged.Entries {
		if tg := testWorld.TargetAt(false, e.TargetID); e.Protocols != tg.Responsive {
			t.Fatalf("target %d: protocols %v, responsive %v", e.TargetID, e.Protocols, tg.Responsive)
		}
		if i > 0 && e.TargetID <= merged.Entries[i-1].TargetID {
			t.Fatal("merged entries not strictly sorted")
		}
	}
}

// matrixDays straddle the first two quarterly refreshes, plus one far day.
var matrixDays = []int{0, 89, 90, 179, 180, 400}

// TestForDayMatchesScanMerge pins the one-pass ForDay to the oracle over
// seeds 1–3 × {TestConfig, DefaultConfig eager, DefaultConfig lazy} ×
// {v4, v6} × matrixDays.
func TestForDayMatchesScanMerge(t *testing.T) {
	lazy := netsim.DefaultConfig()
	lazy.LazyTargets = true
	for name, cfg := range map[string]netsim.Config{
		"test":         netsim.TestConfig(),
		"default":      netsim.DefaultConfig(),
		"default-lazy": lazy,
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := cfg // the parallel subtest outlives this iteration
			cfg.Seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel() // a lazy DefaultConfig world takes seconds to derive 24 times over
				w, err := netsim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, v6 := range []bool{false, true} {
					for _, day := range matrixDays {
						requireOracleEqual(t, w, v6, day)
					}
				}
			})
		}
	}
}

// TestForDaySkipsUnresponsiveTargets covers the one case netsim.New never
// generates (setResponsive guarantees a protocol): a target answering
// nothing is on no source's list, so it is not on the union either.
func TestForDaySkipsUnresponsiveTargets(t *testing.T) {
	w := mustWorld()
	silenced := []int{0, 1, 1024, w.NumTargets(false) - 1}
	for _, id := range silenced {
		w.TargetAt(false, id).Responsive = [3]bool{}
	}
	requireOracleEqual(t, w, false, 0)
	if got := ForDay(w, false, 0).Len(); got != w.NumTargets(false)-len(silenced) {
		t.Fatalf("%d entries for %d targets with %d silenced", got, w.NumTargets(false), len(silenced))
	}
}

// TestForDayMatchesScanMergePaperScale is the same comparison on the lazy
// 150k-target IPv6 universe the census_v6_paper workload runs on.
func TestForDayMatchesScanMergePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world")
	}
	w, err := netsim.New(netsim.PaperScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range []int{0, 400} {
		requireOracleEqual(t, w, true, day)
	}
}

// TestForDayInvariants checks ForDay against the world alone, without
// the oracle, on an eager and a lazy world.
func TestForDayInvariants(t *testing.T) {
	lazyCfg := netsim.TestConfig()
	lazyCfg.LazyTargets = true
	lazyWorld, err := netsim.New(lazyCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*netsim.World{testWorld, lazyWorld} {
		for _, v6 := range []bool{false, true} {
			for _, day := range matrixDays {
				h := ForDay(w, v6, day)
				if h.V6 != v6 || h.Day != QuarterOf(day) {
					t.Fatalf("v6=%v day %d: header V6=%v Day=%d", v6, day, h.V6, h.Day)
				}
				for i, e := range h.Entries {
					if i > 0 && e.TargetID <= h.Entries[i-1].TargetID {
						t.Fatalf("v6=%v day %d: IDs not strictly ascending at entry %d", v6, day, i)
					}
					tg := w.TargetAt(v6, e.TargetID)
					if e.Prefix != tg.Prefix || e.Addr != tg.Addr || e.Protocols != tg.Responsive {
						t.Fatalf("v6=%v day %d: entry %+v does not match target %+v", v6, day, e, *tg)
					}
					if e.Protocols == ([3]bool{}) {
						t.Fatalf("v6=%v day %d: target %d listed with no responsive protocol", v6, day, e.TargetID)
					}
					if tg.HitlistFromDay > h.Day {
						t.Fatalf("v6=%v day %d: target %d joins the hitlist on day %d, after snapshot %d",
							v6, day, e.TargetID, tg.HitlistFromDay, h.Day)
					}
				}
			}
		}
	}
}

func TestForDayComposition(t *testing.T) {
	v4 := ForDay(testWorld, false, 0)
	st := v4.Stats()
	// Paper shape: ICMP coverage > TCP coverage >> DNS coverage for IPv4.
	if !(st.ByProto[packet.ICMP] > st.ByProto[packet.TCP] &&
		st.ByProto[packet.TCP] > st.ByProto[packet.DNS]) {
		t.Fatalf("v4 protocol composition off: %v", st.ByProto)
	}
	v6 := ForDay(testWorld, true, 0)
	st6 := v6.Stats()
	// IPv6 skews to TCP relative to IPv4 (§5.3.2): the TCP share of the
	// v6 hitlist must exceed the TCP share of the v4 hitlist.
	v4TCPShare := float64(st.ByProto[packet.TCP]) / float64(st.Total)
	v6TCPShare := float64(st6.ByProto[packet.TCP]) / float64(st6.Total)
	if v6TCPShare <= v4TCPShare {
		t.Fatalf("v6 TCP share %.2f should exceed v4 %.2f", v6TCPShare, v4TCPShare)
	}
}

func TestQuarterlyGrowth(t *testing.T) {
	early := ForDay(testWorld, true, 0)
	late := ForDay(testWorld, true, 500)
	if late.Len() <= early.Len() {
		t.Fatalf("v6 hitlist should grow: day0=%d day500=%d", early.Len(), late.Len())
	}
	// Growth only lands at quarter boundaries.
	d89 := ForDay(testWorld, true, 89)
	if d89.Len() != early.Len() {
		t.Fatal("hitlist changed before the quarterly refresh")
	}
	d90 := ForDay(testWorld, true, 90)
	if d90.Len() <= d89.Len() {
		t.Fatal("no growth at the day-90 refresh")
	}
}

func TestFilterProtocol(t *testing.T) {
	h := ForDay(testWorld, false, 0)
	for _, p := range packet.Protocols() {
		sub := h.FilterProtocol(p)
		for _, e := range sub {
			if !e.Protocols[p] {
				t.Fatalf("FilterProtocol(%v) returned non-%v entry", p, p)
			}
		}
		if len(sub) != h.Stats().ByProto[p] {
			t.Fatalf("FilterProtocol(%v) size %d, stats say %d", p, len(sub), h.Stats().ByProto[p])
		}
	}
}

func TestIDsOrder(t *testing.T) {
	h := ForDay(testWorld, false, 0)
	ids := h.IDs()
	if len(ids) != h.Len() {
		t.Fatal("IDs length mismatch")
	}
	f := func(i uint16) bool {
		k := int(i) % len(ids)
		return ids[k] == h.Entries[k].TargetID
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
