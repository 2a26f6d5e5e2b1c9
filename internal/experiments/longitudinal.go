package experiments

import (
	"fmt"
	"io"

	"github.com/laces-project/laces/internal/longitudinal"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/stats"
)

// longitudinalStride compresses the 534-day census for the experiment
// harness: every 7th day. Persistence counts scale accordingly (Fig 10
// prints the stride and run count it used).
const longitudinalStride = 7

// History returns the shared longitudinal run (Fig 9 and Fig 10 share it).
func (e *Env) History() (*longitudinal.History, error) {
	e.histOnce.Do(func() {
		e.hist, e.histErr = longitudinal.Run(e.World, longitudinal.Config{
			Days:   534,
			Stride: longitudinalStride,
			Events: longitudinal.DefaultEvents(),
		})
	})
	return e.hist, e.histErr
}

// Fig9 returns the detection-count time series.
func (e *Env) Fig9() (*longitudinal.History, error) { return e.History() }

// RenderFig9 prints the per-day series for both families.
func RenderFig9(w io.Writer, h *longitudinal.History) error {
	for _, v6 := range []bool{false, true} {
		fam := "IPv4"
		if v6 {
			fam = "IPv6"
		}
		t := stats.Table{
			Title: fmt.Sprintf("Fig 9 (%s): detection counts by method and protocol over time", fam),
			Header: []string{"day", "hitlist", "AC ICMP", "AC TCP", "AC DNS",
				"GCD ICMP", "GCD TCP", "G total", "M total", "workers"},
		}
		for _, s := range h.Summaries(v6) {
			t.Add(s.Day, fmtInt(s.Hitlist),
				fmtInt(s.AC[packet.ICMP]), fmtInt(s.AC[packet.TCP]), fmtInt(s.AC[packet.DNS]),
				fmtInt(s.GCD[packet.ICMP]), fmtInt(s.GCD[packet.TCP]),
				fmtInt(s.GTotal), fmtInt(s.MTotal), s.Workers)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	t := stats.Table{
		Title:  "GCD_LS sweeps (§5.1.1/§7)",
		Header: []string{"day", "family", "anycast prefixes"},
	}
	for _, run := range h.GCDLS {
		fam := "IPv4"
		if run.V6 {
			fam = "IPv6"
		}
		t.Add(run.Day, fam, fmtInt(run.Anycast))
	}
	return t.Render(w)
}

// Fig10Result is the persistence distribution.
type Fig10Result struct {
	Stride  int
	Runs    int
	CDF     *stats.CDF
	Union   int
	AllDays int
	// GCD-restricted statistics (§5.1.6).
	GUnion   int
	GAllDays int
}

// Fig10 computes the cumulative persistence counts of Fig 10 from the
// shared longitudinal history.
func (e *Env) Fig10() (*Fig10Result, error) {
	h, err := e.History()
	if err != nil {
		return nil, err
	}
	union, all := h.UnionAnycast(false)
	gu, ga := h.UnionG(false)
	return &Fig10Result{
		Stride:   longitudinalStride,
		Runs:     len(h.Summaries(false)),
		CDF:      h.PersistenceCDF(false),
		Union:    union,
		AllDays:  all,
		GUnion:   gu,
		GAllDays: ga,
	}, nil
}

// RenderFig10 prints the persistence distribution.
func RenderFig10(w io.Writer, r *Fig10Result) error {
	if _, err := fmt.Fprintf(w,
		"Fig 10: persistence over %d runs (stride %d days)\n"+
			"  union ever-anycast: %s; detected on every run: %s (%.0f%%)\n"+
			"  GCD-confirmed union: %s; every run: %s (%.0f%%)\n",
		r.Runs, r.Stride,
		fmtInt(r.Union), fmtInt(r.AllDays), 100*float64(r.AllDays)/float64(max(1, r.Union)),
		fmtInt(r.GUnion), fmtInt(r.GAllDays), 100*float64(r.GAllDays)/float64(max(1, r.GUnion))); err != nil {
		return err
	}
	t := stats.Table{
		Title:  "Cumulative count of prefixes anycast for at most X runs",
		Header: []string{"≤ runs", "cumulative prefixes"},
	}
	for _, q := range []int{1, 2, 5, 10, 20, 40, 60, r.Runs} {
		if q > r.Runs {
			break
		}
		t.Add(q, fmtInt(int(r.CDF.P(q)*float64(r.CDF.Len()))))
	}
	return t.Render(w)
}
