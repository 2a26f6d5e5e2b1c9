package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"time"

	"github.com/laces-project/laces/internal/client"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/orchestrator"
	"github.com/laces-project/laces/internal/wire"
	"github.com/laces-project/laces/internal/worker"
)

// The distributed measurement plane of §4.2.1: orchestrator, worker and
// the measure CLI, talking real TCP.

// logStderr is the Logf of the long-running components.
func logStderr(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

func setupOrchestrator(fs *flag.FlagSet) func() error {
	listen := fs.String("listen", "127.0.0.1:4000", "TCP listen address")
	gov := governanceFlags(fs)
	tr := tracingFlags(fs)
	return func() error {
		b, reg, err := gov.load()
		if err != nil {
			return err
		}
		traceReg, flightSink := tr.start()
		o, err := orchestrator.New(orchestrator.Config{
			Addr:       *listen,
			Budget:     b,
			OptOut:     reg,
			Logf:       logStderr,
			Obs:        traceReg,
			FlightSink: flightSink,
		})
		if err != nil {
			return err
		}
		fmt.Printf("orchestrator listening on %s\n", o.Addr())
		return tr.finish(traceReg, o.Serve(signalContext()))
	}
}

func setupWorker(fs *flag.FlagSet) func() error {
	name := fs.String("name", "worker", "worker name")
	orch := fs.String("orchestrator", "127.0.0.1:4000", "orchestrator address")
	world := simFlags(fs, "seed")
	sites := fs.Int("sites", 8, "deployment size (must match across components)")
	tr := tracingFlags(fs)
	return func() error {
		w, err := world.world()
		if err != nil {
			return err
		}
		dep, err := simDeployment(w, *sites)
		if err != nil {
			return err
		}
		traceReg, flightSink := tr.start()
		wk, err := worker.New(worker.Config{
			Name:         *name,
			Orchestrator: *orch,
			NewProber: func(self int) (worker.Prober, error) {
				return worker.NewSimProber(w, dep, self%dep.NumSites())
			},
			Logf:       logStderr,
			Obs:        traceReg,
			FlightSink: flightSink,
		})
		if err != nil {
			return err
		}
		return tr.finish(traceReg, wk.Run(signalContext()))
	}
}

func setupMeasure(fs *flag.FlagSet) func() error {
	orch := fs.String("orchestrator", "127.0.0.1:4000", "orchestrator address")
	proto := fs.String("protocol", "ICMP", "probing protocol: ICMP, TCP or DNS")
	nTargets := fs.Int("targets", 1000, "number of hitlist targets to probe")
	v6 := fs.Bool("v6", false, "probe the IPv6 hitlist")
	world := simFlags(fs, "seed")
	rate := fs.Float64("rate", 10000, "targets per second")
	offsetMS := fs.Int64("offset-ms", 1000, "inter-worker probe offset (ms)")
	out := fs.String("out", "", "write results CSV to this file")
	tr := tracingFlags(fs)
	return func() error {
		def := wire.MeasurementDef{
			ID:       uint16(time.Now().UnixNano() & 0x7fff),
			Protocol: *proto,
			V6:       *v6,
			OffsetMS: *offsetMS,
			Rate:     *rate,
		}
		if err := def.Validate(); err != nil {
			return err
		}
		w, err := world.world()
		if err != nil {
			return err
		}
		hl := hitlist.ForDay(w, *v6, 0)
		var addrs []netip.Addr
		for _, e := range hl.Entries {
			addrs = append(addrs, e.Addr)
			if len(addrs) >= *nTargets {
				break
			}
		}
		// No flight sink here: the Complete frame hands back the assembled
		// cross-process spans, so this one export holds the whole
		// distributed trace.
		traceReg, _ := tr.start()
		cli := &client.Client{Addr: *orch, Obs: traceReg}
		fmt.Printf("submitting measurement %d: %d targets, %s, rate %.0f/s\n",
			def.ID, len(addrs), *proto, *rate)
		outcome, err := cli.Run(signalContext(), def, addrs, nil)
		if err != nil {
			return err
		}
		cands := outcome.Candidates()
		fmt.Printf("results: %d replies from %d workers; %d anycast candidates\n",
			len(outcome.Results), outcome.Workers, len(cands))
		if outcome.Skipped > 0 {
			fmt.Printf("governance: orchestrator withheld %d targets (opt-out/budget)\n", outcome.Skipped)
		}
		for _, c := range cands {
			fmt.Println("  AC:", c)
		}
		if *out != "" {
			if err := writeFile(*out, outcome.WriteCSV); err != nil {
				return err
			}
			fmt.Println("wrote", *out)
		}
		return tr.finish(traceReg, nil)
	}
}

// simDeployment builds the n-site measurement deployment the distributed
// components must agree on.
func simDeployment(w *netsim.World, n int) (*netsim.Deployment, error) {
	cities := []string{
		"Amsterdam", "New York", "Tokyo", "Sydney", "Sao Paulo",
		"Johannesburg", "Frankfurt", "Singapore", "London", "Los Angeles",
		"Mumbai", "Stockholm", "Santiago", "Seoul", "Toronto", "Warsaw",
	}
	if n <= 0 || n > len(cities) {
		n = len(cities)
	}
	return w.NewDeployment("laces-cli", cities[:n], netsim.PolicyUnmodified)
}
