package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
)

// TestFailedDayChangesNothing: a day that returns an error — here the GCD
// VP source failing, after the anycast-based stage and the feedback join
// already ran — has written no pipeline state. The feedback list, the
// monitoring baseline and the next day's document equal those of a
// pipeline that never attempted the failed day.
func TestFailedDayChangesNothing(t *testing.T) {
	const failing = 2
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
	for _, day := range []int{0, 1, failing, 3} {
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
	}
}
