package gcdmeas_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/igreedy"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// recordedDay is one census day's GCD stage with the probing taken out:
// the campaign's VPs and, per measured target, the fan's best RTT per VP.
type recordedDay struct {
	vps  []netsim.VP
	fans [][]time.Duration
}

var (
	dayOnce sync.Once
	dayRec  recordedDay
	dayErr  error
)

// analyzeDayNum is the recorded day; the day before it warms the pipeline's
// feedback list the way a longitudinal run would.
const analyzeDayNum = 200

// recordDay runs one DefaultConfig IPv4 census day through core to learn
// its rows, then records every row's fan under gcdmeas.Confirm's protocol
// rule (ICMP when it answers ICMP, else TCP) at the stage's send time. The
// world takes seconds to build, so it is built once per test binary.
func recordDay(tb testing.TB) recordedDay {
	tb.Helper()
	dayOnce.Do(func() {
		w, err := netsim.New(netsim.DefaultConfig())
		if err != nil {
			dayErr = err
			return
		}
		dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
		if err != nil {
			dayErr = err
			return
		}
		pipe, err := core.NewPipeline(w, core.Config{
			Deployment:  dep,
			GCDVPs:      func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
			Parallelism: 1,
		})
		if err != nil {
			dayErr = err
			return
		}
		var census *core.DailyCensus
		for day := analyzeDayNum - 1; day <= analyzeDayNum && dayErr == nil; day++ {
			census, dayErr = pipe.RunDaily(day, false, core.DayOptions{})
		}
		if dayErr != nil {
			return
		}
		vps, err := platform.Ark(w, analyzeDayNum, false)
		if err != nil {
			dayErr = err
			return
		}
		ids := make([]int, 0, len(census.Entries))
		for id := range census.Entries {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		table := netsim.NewVPTable(vps)
		at := netsim.DayTime(analyzeDayNum).Add(6 * time.Hour)
		dayRec.vps = vps
		for _, proto := range []packet.Protocol{packet.ICMP, packet.TCP} {
			for _, id := range ids {
				tg := w.TargetAt(false, id)
				if !tg.Responsive[proto] || (proto == packet.TCP && tg.Responsive[packet.ICMP]) {
					continue
				}
				best := make([]time.Duration, len(vps))
				if _, replies := w.UnicastFan(table, tg, proto, at, 1, best); replies > 0 {
					dayRec.fans = append(dayRec.fans, best)
				}
			}
		}
	})
	if dayErr != nil {
		tb.Fatal(dayErr)
	}
	return dayRec
}

// daySites keeps the benchmarked results alive.
var daySites int

// BenchmarkAnalyzeDay times iGreedy alone over one DefaultConfig IPv4
// census day's GCD targets (≈3,150 fans of ≈180 VPs), recorded in memory
// by recordDay: one op is the whole day's analysis. "fan" is the path
// gcdmeas.Run takes, the campaign's VPTable and each fan's best RTTs;
// "samples" is the []Sample adapter, samples built from the fan as
// gcdmeas.Run once built them.
func BenchmarkAnalyzeDay(b *testing.B) {
	rec := recordDay(b)
	b.Run("fan", func(b *testing.B) {
		vps := make([]igreedy.VP, len(rec.vps))
		for i, vp := range rec.vps {
			vps[i] = igreedy.VP{Name: vp.Name, Loc: vp.Loc}
		}
		table := igreedy.NewVPTable(vps)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for _, best := range rec.fans {
				daySites += table.Analyze(best, igreedy.Options{}).NumSites()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.fans)), "ns/target")
	})
	b.Run("samples", func(b *testing.B) {
		samples := make([]igreedy.Sample, 0, len(rec.vps))
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for _, best := range rec.fans {
				samples = samples[:0]
				for i, rtt := range best {
					if rtt != 0 {
						samples = append(samples, igreedy.Sample{VP: rec.vps[i].Name, Loc: rec.vps[i].Loc, RTT: rtt})
					}
				}
				daySites += igreedy.Analyze(samples, igreedy.Options{}).NumSites()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.fans)), "ns/target")
	})
}
