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

// TestLazyDayDerivationCounts pins lazy target access as exact counts
// over two consecutive ungoverned lazy days per family on one pipeline,
// the second walking a non-empty feedback list. Every target a day
// reaches is one walker derivation: each item presented to its par.Run
// calls (three anycast-stage runs over the protocol hitlists, the ICMP
// and TCP GCD campaigns over the rows) and each ID walked around them
// (detect's fold of the candidate observations, the feedback list,
// Confirm's protocol split). Telemetry must not move the census bytes.
func TestLazyDayDerivationCounts(t *testing.T) {
	const day = 100
	cfg := netsim.TestConfig()
	cfg.LazyTargets = true
	for _, v6 := range []bool{false, true} {
		// runDays runs both days on a fresh world and returns their
		// census bytes, the walker derivations each made and the count
		// each should have made.
		runDays := func(tel *netsim.Telemetry) (docs [2][]byte, walked, want [2]int64) {
			w, err := netsim.New(cfg)
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
			for i := range docs {
				fed := int64(len(p.feedback[famIdx(v6)]))
				if i == 1 && fed == 0 {
					t.Fatalf("v6=%v: day %d walks an empty feedback list", v6, day+i)
				}
				before := tel.WalkDerivations()
				c, err := p.RunDaily(day+i, v6, DayOptions{})
				if err != nil {
					t.Fatal(err)
				}
				walked[i] = tel.WalkDerivations() - before
				var buf bytes.Buffer
				if err := c.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				docs[i] = buf.Bytes()

				var lists, folded, split, gcd int64
				hl := hitlist.ForDay(w, v6, day+i)
				for _, proto := range packet.Protocols() {
					lists += int64(len(hl.FilterProtocol(proto)))
				}
				for id, e := range c.Entries {
					for _, ac := range e.ACProtocols {
						if ac {
							folded++
						}
					}
					split++
					if tg := w.TargetAt(v6, id); tg.Responsive[packet.ICMP] || tg.Responsive[packet.TCP] {
						gcd++
					}
				}
				want[i] = lists + folded + fed + split + gcd
				if tel != nil {
					t.Logf("v6=%v day %d: lists %d, folded %d, feedback %d, split %d, GCD items %d; walker derivations %d",
						v6, day+i, lists, folded, fed, split, gcd, walked[i])
				}
			}
			return docs, walked, want
		}
		docs, walked, want := runDays(&netsim.Telemetry{})
		bare, _, _ := runDays(nil)
		for i := range docs {
			if !bytes.Equal(docs[i], bare[i]) {
				t.Fatalf("v6=%v day %d: census bytes differ with telemetry on", v6, day+i)
			}
			if walked[i] != want[i] {
				t.Errorf("v6=%v day %d: %d walker derivations, want %d", v6, day+i, walked[i], want[i])
			}
		}
	}
}
