package core

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
)

// TestFailedDayChangesNothing: a day that returns an error — here the GCD
// VP source failing, after the anycast-based stage and the feedback join
// already ran — has written no pipeline state. The feedback list, the
// monitoring baseline, the kept hitlist and the next day's document equal
// those of a pipeline that never attempted the failed day. The failed day
// opens a quarter, so it built a hitlist it must not keep.
func TestFailedDayChangesNothing(t *testing.T) {
	const failing = 90
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("ark is down")
	build := func(failOn int) *Pipeline {
		p, err := NewPipeline(testWorld, Config{
			Deployment: d,
			GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
				if day == failOn {
					return nil, boom
				}
				return platform.Ark(testWorld, day, v6)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	flaky, steady := build(failing), build(-1)
	for _, day := range []int{0, 1, failing, failing + 1} {
		var docs [2]bytes.Buffer
		for i, p := range []*Pipeline{flaky, steady} {
			if day == failing {
				if p == flaky {
					if _, err := p.RunDaily(day, false, DayOptions{}); !errors.Is(err, boom) {
						t.Fatalf("day %d: err = %v, want the VP source's", day, err)
					}
				}
				continue
			}
			c, err := p.RunDaily(day, false, DayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteJSON(&docs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
			t.Fatalf("day %d: the pipeline that failed day %d publishes a different document", day, failing)
		}
		if a, b := len(flaky.feedback[famIdx(false)]), len(steady.feedback[famIdx(false)]); a != b || a == 0 {
			t.Fatalf("after day %d: feedback list %d vs %d", day, a, b)
		}
		if !reflect.DeepEqual(flaky.baseline, steady.baseline) {
			t.Fatalf("after day %d: baseline %v vs %v", day, flaky.baseline, steady.baseline)
		}
		if !reflect.DeepEqual(flaky.lists, steady.lists) {
			t.Fatalf("after day %d: kept hitlist of quarter %d vs %d", day, flaky.lists[0].Day, steady.lists[0].Day)
		}
	}
}

// TestQuarterlyHitlistReuse: a pipeline builds each family's hitlist once
// per quarter. Days 268–271 cross the day-270 refresh, so each family
// builds twice, and the hitlist span says which days reused the kept
// lists. Every day publishes the bytes a pipeline that dropped its kept
// lists before the day publishes, and Measure neither reads nor writes
// them.
func TestQuarterlyHitlistReuse(t *testing.T) {
	const first, last = 268, 271
	for _, lazy := range []bool{false, true} {
		reg := obs.New()
		warm := obsPipeline(t, 2, lazy, reg, Config{})
		cold := obsPipeline(t, 2, lazy, nil, Config{})
		for _, v6 := range []bool{false, true} {
			fam := famIdx(v6)
			for day := first; day <= last; day++ {
				cold.lists[fam] = nil
				var docs [2]bytes.Buffer
				for i, p := range []*Pipeline{warm, cold} {
					c, err := p.RunDaily(day, v6, DayOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if err := c.WriteJSON(&docs[i]); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
					t.Fatalf("lazy=%v v6=%v day %d: the kept hitlist publishes other bytes than a fresh one", lazy, v6, day)
				}
				if got := warm.lists[fam]; got == nil || got.Day != hitlist.QuarterOf(day) {
					t.Fatalf("lazy=%v v6=%v day %d: kept hitlist is not quarter %d's", lazy, v6, day, hitlist.QuarterOf(day))
				}

				before := warm.lists
				want := *before[fam]
				for p := range want.IDs {
					want.IDs[p] = slices.Clone(want.IDs[p])
				}
				tg := warm.World.TargetAt(v6, want.IDs[0][0])
				for _, at := range []int{day, 5} {
					if _, _, _, err := warm.Measure(tg, at); err != nil {
						t.Fatal(err)
					}
					if warm.lists != before || !reflect.DeepEqual(*warm.lists[fam], want) {
						t.Fatalf("lazy=%v v6=%v day %d: Measure on day %d moved the kept hitlist", lazy, v6, day, at)
					}
				}
			}
			builds := reg.Counter("laces_hitlist_builds_total", "", obs.L("family", family(v6))).Value()
			if builds != 2 {
				t.Fatalf("lazy=%v v6=%v: %d hitlist builds over days %d–%d, want 2", lazy, v6, builds, first, last)
			}
		}
		var reused []string
		for _, sp := range reg.ExportTrace().Spans {
			if sp.Name == "hitlist" {
				for _, a := range sp.Attrs {
					if a.Name == "reused" {
						reused = append(reused, a.Value)
					}
				}
			}
		}
		want := []string{"false", "true", "false", "true", "false", "true", "false", "true"}
		if !reflect.DeepEqual(reused, want) {
			t.Fatalf("lazy=%v: hitlist spans say reused=%v, want %v", lazy, reused, want)
		}
	}
}

// BenchmarkRunDailyWarm runs consecutive days of one quarter on one
// pipeline, after a first day that built the quarter's hitlist: what each
// day of a running census costs.
func BenchmarkRunDailyWarm(b *testing.B) {
	for _, bc := range []struct {
		name     string
		lazy, v6 bool
	}{{"v4-eager", false, false}, {"v6-lazy", true, true}} {
		b.Run(bc.name, func(b *testing.B) {
			p := obsPipeline(b, 1, bc.lazy, nil, Config{})
			const first = 180 // a quarter's first day
			if _, err := p.RunDaily(first, bc.v6, DayOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.RunDaily(first+1+i%89, bc.v6, DayOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
