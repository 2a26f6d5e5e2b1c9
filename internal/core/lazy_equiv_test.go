package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// TestCensusLazyEagerEquivalence pins the tentpole end-to-end contract:
// the published census document is byte-identical between eager and lazy
// worlds — across seeds, with and without chaos impairments, sequential
// and sharded. The lazy streaming generator must be invisible to every
// stage of the pipeline.
func TestCensusLazyEagerEquivalence(t *testing.T) {
	lossy, ok := chaos.Lookup(chaos.ScenarioLossyTransit)
	if !ok {
		t.Fatal("lossy-transit scenario missing")
	}
	seeds := []uint64{0x1ace5, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := netsim.TestConfig()
		cfg.Seed = seed
		eager, err := netsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.LazyTargets = true
		lazy, err := netsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []struct {
			name     string
			scenario *chaos.Scenario
		}{
			{"clean", nil},
			{chaos.ScenarioLossyTransit, &lossy},
		} {
			var ref []byte
			var refFrom string
			for _, mode := range []struct {
				name string
				w    *netsim.World
			}{{"eager", eager}, {"lazy", lazy}} {
				for _, parallelism := range []int{1, 4} {
					label := fmt.Sprintf("seed=%#x chaos=%s world=%s par=%d", seed, sc.name, mode.name, parallelism)
					d, err := platform.Tangled(mode.w, netsim.PolicyUnmodified)
					if err != nil {
						t.Fatal(err)
					}
					p, err := NewPipeline(mode.w, Config{
						Deployment:  d,
						Parallelism: parallelism,
						GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
							return platform.Ark(mode.w, day, v6)
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					c, err := p.RunDaily(100, false, DayOptions{Chaos: sc.scenario})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					var buf bytes.Buffer
					if err := c.WriteJSON(&buf); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if ref == nil {
						ref, refFrom = buf.Bytes(), label
						continue
					}
					if !bytes.Equal(ref, buf.Bytes()) {
						t.Errorf("census documents differ: %s vs %s", refFrom, label)
					}
				}
			}
		}
	}
}

// TestLazyDayDerivationCounts pins shard-local derivation as exact
// counts on one ungoverned lazy day per family: every item presented to
// the day's par.Run calls (three anycast-stage runs over the protocol
// hitlists, the ICMP and TCP GCD campaigns over the rows) is derived
// exactly once, by a shard's walker, and the target arena is left to the
// random access around the stages — detect's fold and Confirm's split —
// so it misses at most once per published row. Stages that resolved
// through the arena missed it about once per hitlist entry. Telemetry
// must not move the census bytes.
func TestLazyDayDerivationCounts(t *testing.T) {
	const day = 100
	cfg := netsim.TestConfig()
	cfg.LazyTargets = true
	for _, v6 := range []bool{false, true} {
		runDay := func(tel *netsim.Telemetry) (*netsim.World, *DailyCensus, []byte) {
			w, err := netsim.New(cfg) // a cold arena for every run
			if err != nil {
				t.Fatal(err)
			}
			w.SetTelemetry(tel)
			d, err := platform.Tangled(w, netsim.PolicyUnmodified)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPipeline(w, Config{
				Deployment:  d,
				Parallelism: 2,
				GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
					return platform.Ark(w, day, v6)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := p.RunDaily(day, v6, DayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := c.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return w, c, buf.Bytes()
		}
		tel := &netsim.Telemetry{}
		w, c, got := runDay(tel)
		misses, walked := tel.ArenaMisses(), tel.WalkDerivations()
		if _, _, bare := runDay(nil); !bytes.Equal(got, bare) {
			t.Fatalf("v6=%v: census bytes differ with telemetry on", v6)
		}

		hl := hitlist.ForDay(w, v6, day)
		presented := 0
		for _, proto := range packet.Protocols() {
			presented += len(hl.FilterProtocol(proto))
		}
		for id := range c.Entries {
			if tg := w.TargetAt(v6, id); tg.Responsive[packet.ICMP] || tg.Responsive[packet.TCP] {
				presented++
			}
		}
		if rows := int64(len(c.Entries)); rows == 0 || misses > rows {
			t.Errorf("v6=%v: %d arena misses for %d published rows; want at most one per row", v6, misses, rows)
		}
		if walked != int64(presented) {
			t.Errorf("v6=%v: %d walker derivations, want %d (one per item presented to the day's stages)", v6, walked, presented)
		}
		t.Logf("v6=%v: hitlist %d, rows %d, arena misses %d, walker derivations %d", v6, hl.Len(), len(c.Entries), misses, walked)
	}
}
