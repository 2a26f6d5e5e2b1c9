// Package laces_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (deliverable (d) of the
// reproduction): one sub-benchmark per row of experiments.Catalog — the
// experiment index — each printing the paper-style rows once and then
// timing the regeneration.
//
// Run with:
//
//	go test -bench=Experiments -benchmem -timeout 0
//
// (-timeout 0: the longitudinal rows exceed go test's default 10-minute
// budget.) The benchmarks run on the experiment-scale world
// (netsim.DefaultConfig: 120k IPv4 /24s, 50k IPv6 /48s).
package laces_test

import (
	"fmt"
	"io"
	"os"
	"testing"

	"github.com/laces-project/laces/internal/experiments"
	"github.com/laces-project/laces/internal/netsim"
)

func BenchmarkExperiments(b *testing.B) {
	env, err := experiments.NewEnv(netsim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, x := range experiments.Catalog {
		// The first regeneration prints, so the benchmark log doubles as
		// the regenerated evaluation; the rest only time.
		out := io.Writer(os.Stdout)
		b.Run(x.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out == os.Stdout {
					fmt.Printf("\n===== %s =====\n", x.Title)
				}
				if err := x.Run(env, out); err != nil {
					b.Fatal(err)
				}
				out = io.Discard
			}
		})
	}
}
