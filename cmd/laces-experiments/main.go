// Command laces-experiments regenerates every table and figure of the
// paper's evaluation against the simulated world and prints them in the
// paper's layout. The experiment index is experiments.Catalog: -only takes
// its names, and with no -only the whole catalog runs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/experiments"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "laces-experiments:", err)
	}
	os.Exit(code)
}

// options is the command line, resolved.
type options struct {
	world        func() netsim.Config
	only         []experiments.Experiment // empty: the whole catalog
	longitudinal bool
	obsOut       string
}

// parse reads the command line and resolves it against the catalog, so
// that every mistake is reported before anything runs. The exit code for
// a bad flag, scale or positional argument (experiments are chosen by
// -only) is 2, for an unknown experiment 1.
func parse(args []string, onError flag.ErrorHandling, stderr io.Writer) (o options, code int, err error) {
	fs := flag.NewFlagSet("laces-experiments", onError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "default", "world scale: default or test")
	only := fs.String("only", "", "comma-separated experiment list (e.g. table1,fig5); empty runs all")
	fs.BoolVar(&o.longitudinal, "longitudinal", false, "include the (slow) Fig 9/10 longitudinal run")
	fs.StringVar(&o.obsOut, "obs", "", "write an end-of-run telemetry snapshot (JSON) to this `file`; render with 'laces metrics'")
	if err := fs.Parse(args); err != nil {
		return o, 2, err
	}
	if fs.NArg() > 0 {
		return o, 2, fmt.Errorf("unexpected argument %q (select experiments with -only)", fs.Arg(0))
	}
	o.world = map[string]func() netsim.Config{"default": netsim.DefaultConfig, "test": netsim.TestConfig}[*scale]
	if o.world == nil {
		return o, 2, fmt.Errorf("unknown scale %q", *scale)
	}
	for _, name := range strings.FieldsFunc(strings.ToLower(*only), func(r rune) bool { return r == ',' }) {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(experiments.Catalog, func(x experiments.Experiment) bool {
			return x.Name == name || slices.Contains(x.Aliases, name)
		})
		if i < 0 {
			var valid []string
			for _, x := range experiments.Catalog {
				valid = append(valid, x.Name)
			}
			return o, 1, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		o.only = append(o.only, experiments.Catalog[i])
	}
	return o, 0, nil
}

// run is the command with its streams explicit; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	o, code, err := parse(args, flag.ExitOnError, stderr)
	if err != nil {
		return code, err
	}
	start := time.Now()
	env, err := experiments.NewEnv(o.world())
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stderr, "world generated in %.1fs (%d IPv4 /24s, %d IPv6 /48s)\n",
		time.Since(start).Seconds(), env.World.NumTargets(false), env.World.NumTargets(true))
	if o.obsOut != "" {
		env.World.Instrument(obs.New())
	}
	if len(o.only) == 0 {
		err = env.RunAll(stdout, !o.longitudinal)
	}
	for _, x := range o.only {
		if err = x.Run(env, stdout); err != nil {
			break
		}
		fmt.Fprintln(stdout)
	}
	if err != nil {
		return 1, err
	}
	if o.obsOut != "" {
		var snap bytes.Buffer
		if err := env.World.Registry().Snapshot().WriteJSON(&snap); err != nil {
			return 1, err
		}
		if err := os.WriteFile(o.obsOut, snap.Bytes(), 0o666); err != nil {
			return 1, err
		}
		fmt.Fprintf(stderr, "telemetry snapshot written to %s\n", o.obsOut)
	}
	return 0, nil
}
