package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

// The flag groups several subcommands share. Each is declared by one
// function a leaf's setup calls, and carries what the flags stand for:
// -seed/-scale the simulated world and what is built on it, -budget/-optout
// the governance knobs, -trace a registry whose export is written on exit.

// sim is the -seed/-scale group.
type sim struct {
	seed  *uint64
	scale *string
}

// simFlags declares the group; seedFlag is "seed" everywhere but loadgen,
// where -seed is the workload schedule's and the world's is -world-seed.
func simFlags(fs *flag.FlagSet, seedFlag string) sim {
	return sim{
		seed:  fs.Uint64(seedFlag, 1, "simulated-world seed (must match across components)"),
		scale: fs.String("scale", "test", "simulated-world scale: test or default"),
	}
}

// world builds the simulated Internet the flags select.
func (s sim) world() (*netsim.World, error) { return simWorld(*s.seed, *s.scale) }

// tangled is world plus the TANGLED measurement deployment on it.
func (s sim) tangled() (*netsim.World, *netsim.Deployment, error) {
	w, err := s.world()
	if err != nil {
		return nil, nil, err
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	return w, dep, err
}

// pipeline builds the census pipeline over tangled, with Ark as the GCD
// VP source; cfg carries whatever else the caller configures. With cfg.Obs
// set, the world's probe accounting is registered on it too.
func (s sim) pipeline(cfg core.Config) (*core.Pipeline, error) {
	w, dep, err := s.tangled()
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		tel := &netsim.Telemetry{}
		w.SetTelemetry(tel)
		tel.Register(cfg.Obs)
	}
	cfg.Deployment, cfg.GCDVPs = dep, arkVPs(w)
	return core.NewPipeline(w, cfg)
}

// server builds the census API over tangled; today is the day it serves
// when a request names none.
func (s sim) server(today func() int) (*api.Server, error) {
	w, dep, err := s.tangled()
	if err != nil {
		return nil, err
	}
	return api.NewServer(w, dep, arkVPs(w), today)
}

// simWorld builds the shared simulated Internet for the given seed and
// scale.
func simWorld(seed uint64, scale string) (*netsim.World, error) {
	var cfg netsim.Config
	switch scale {
	case "test":
		cfg = netsim.TestConfig()
	case "default":
		cfg = netsim.DefaultConfig()
	default:
		return nil, fmt.Errorf("unknown -scale %q (test, default)", scale)
	}
	cfg.Seed = seed
	return netsim.New(cfg)
}

// arkVPs is the GCD VP source backed by the (growing) Ark platform model.
func arkVPs(w *netsim.World) func(day int, v6 bool) ([]netsim.VP, error) {
	return func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) }
}

// governance is the -budget/-optout group.
type governance struct{ budget, optOut *string }

func governanceFlags(fs *flag.FlagSet) governance {
	return governance{
		budget: fs.String("budget", "", "probe budget (e.g. 250000 or daily:250000,as:5000,prefix:200)"),
		optOut: fs.String("optout", "", "opt-out registry file (prefixes and AS entries)"),
	}
}

// load parses the flag values into the governance knobs; the registry is
// nil without -optout.
func (g governance) load() (budget.Budget, *budget.Registry, error) {
	b, err := budget.ParseBudget(*g.budget)
	if err != nil {
		return budget.Budget{}, nil, err
	}
	var reg *budget.Registry
	if *g.optOut != "" {
		if reg, err = budget.LoadRegistryFile(*g.optOut); err != nil {
			return budget.Budget{}, nil, err
		}
	}
	return b, reg, nil
}

// tracing is the -trace group.
type tracing struct{ out *string }

func tracingFlags(fs *flag.FlagSet) tracing {
	return tracing{fs.String("trace", "", "enable distributed tracing and the flight recorder; write the trace export (JSONL) here on exit")}
}

// start returns what a traced component is configured with: the registry
// that collects its spans and the sink flight-recorder dumps go to. Both
// are nil without -trace.
func (t tracing) start() (*obs.Registry, io.Writer) {
	if *t.out == "" {
		return nil, nil
	}
	return obs.New(), os.Stderr
}

// finish writes reg's export — spans plus flight-recorder events as JSONL,
// the interchange form `laces trace export` merges — when -trace is set.
// The command's own error, if any, wins over a failed write.
func (t tracing) finish(reg *obs.Registry, err error) error {
	if *t.out == "" {
		return err
	}
	werr := writeFile(*t.out, reg.ExportTrace().WriteJSONL)
	if werr == nil {
		fmt.Println("wrote trace", *t.out)
	}
	if err == nil {
		err = werr
	}
	return err
}

// store is an archive and the timeline index built next to it. index is
// nil when there is none to answer from, and noIndex says why: it wraps
// os.ErrNotExist when none was built, and is the coverage mismatch when
// the archive has grown since the build. What to do then is the caller's
// policy; query.OpenDir is the strict form that refuses both.
type store struct {
	archive *archive.Archive
	index   *query.Index
	noIndex error
}

// openStore opens the archive at dir and, when it has a current index,
// the index with the archive attached. An index file that does not parse
// is an error, not a reason to go without.
func openStore(dir string) (*store, error) {
	a, err := archive.Open(dir)
	if err != nil {
		return nil, err
	}
	ix, err := query.Open(filepath.Join(dir, query.IndexFileName))
	if errors.Is(err, os.ErrNotExist) {
		return &store{archive: a, noIndex: err}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("opening timeline index: %w", err)
	}
	if err := ix.VerifyCoverage(a); err != nil {
		ix.Close()
		return &store{archive: a, noIndex: err}, nil
	}
	ix.AttachArchive(a)
	return &store{archive: a, index: ix}, nil
}

// extendIndex keeps an indexed archive answering longitudinal queries
// after days were appended to it (by `census -archive` or `archive
// pack`): when dir has a timeline index, the index is extended by the
// days it lacks, decoding only their chains, and the build's summary is
// printed after "indexed <what>:". An archive without an index is left
// without one.
func extendIndex(dir, what string) error {
	if _, err := os.Stat(filepath.Join(dir, query.IndexFileName)); err != nil {
		return nil
	}
	res, err := query.BuildDir(dir)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %s: %s\n", what, buildSummary(res))
	return nil
}

// close releases the index's file handle, if one is open.
func (s *store) close() {
	if s.index != nil {
		s.index.Close()
	}
}

// signalContext returns a context cancelled by the first SIGINT or
// SIGTERM. The handler is released as soon as that happens, so a second
// signal — during `laces serve`'s drain, say — gets the default
// disposition and terminates the process.
func signalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx
}

// writeFile creates path, hands the file to write and closes it,
// reporting the first failure. The Close error counts: that is where a
// deferred write failure (quota, NFS) surfaces, so no caller may say
// "wrote X" before it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
