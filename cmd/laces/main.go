// Command laces is the LACeS measurement tool: the three components of
// §4.2.1 (orchestrator, worker, measure/CLI) plus local census, archive,
// query and analysis subcommands. `laces help` lists them and
// `laces <subcommand> -h` prints a subcommand's synopsis and flags; both
// are rendered from the command table below, which is also all that
// dispatch knows — a new subcommand is one more row.
//
// The worker and measure subcommands probe the embedded simulated Internet
// (all components must use the same -seed); the orchestration plane itself
// is real TCP.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// command is one node of the laces command tree. A node with sub
// dispatches on the next word; a node with setup is runnable (trace is
// both: `laces trace -target …` and `laces trace export …`).
type command struct {
	name    string
	summary string // one line: the parent's listing and the head of -h
	usage   string // argument synopsis, printed after "laces <path>"
	sub     []*command
	// setup declares the leaf's flags on fs — and does nothing else, no
	// I/O — and returns what runs once the dispatcher has parsed them.
	setup func(fs *flag.FlagSet) (run func() error)
}

// root is the whole command surface of the binary.
var root = &command{
	name:    "laces",
	summary: "Longitudinal Anycast Census System",
	sub: []*command{
		{name: "orchestrator", setup: setupOrchestrator,
			summary: "run the central controller (accepts workers and CLI runs)",
			usage:   "[-listen 127.0.0.1:4000] [-budget spec] [-optout file] [-trace out.jsonl]"},
		{name: "worker", setup: setupWorker,
			summary: "run a measurement worker at one anycast site",
			usage:   "-name ams01 [-orchestrator 127.0.0.1:4000] [-sites 8] [-trace out.jsonl]"},
		{name: "measure", setup: setupMeasure,
			summary: "define and submit a measurement, collect results (CLI)",
			usage:   "[-orchestrator 127.0.0.1:4000] [-protocol ICMP] [-targets 500] [-v6] [-out results.csv] [-trace out.jsonl]"},
		{name: "census", setup: setupCensus,
			summary: "run a full daily census pipeline locally",
			usage:   "[-day N] [-v6] [-json file] [-csv file] [-archive dir] [-budget spec] [-optout file] [-progress] [-obs file] [-trace out.jsonl]"},
		{name: "igreedy", setup: setupIGreedy,
			summary: "analyse latency samples: detect/enumerate/geolocate anycast",
			usage:   "-samples <vp,lat,lon,rtt_ms rows.csv | ->"},
		{name: "serve", setup: setupServe,
			summary: "expose the census and live measurements over HTTP",
			usage:   "[-listen 127.0.0.1:8080] [-archive dir] [-cache N] [-day N] [-budget spec] [-optout file] [-metrics] [-pprof]"},
		{name: "trace", setup: setupTrace,
			summary: "traceroute a hitlist prefix; 'trace export' merges -trace files",
			usage:   "-target <prefix|addr> [-from City] [-day N]",
			sub: []*command{
				{name: "export", setup: setupTraceExport,
					summary: "merge per-component -trace files into one Chrome trace or JSONL",
					usage:   "[-format chrome|jsonl] [-out file] trace.jsonl [more.jsonl ...]"},
			}},
		{name: "diff", setup: setupDiff,
			summary: "compare two census days (JSON files or an archive)",
			usage:   "[-max N] <old.json> <new.json> | laces diff -archive <dir> -from N -to M"},
		{name: "dashboard", setup: setupDashboard,
			summary: "render a text dashboard over census snapshots or an archive",
			usage:   "<census.json> [more.json ...] | laces dashboard -archive <dir>"},
		{name: "archive",
			summary: "pack, verify and inspect the delta-encoded census store",
			sub: []*command{
				{name: "pack", setup: setupArchivePack,
					summary: "append census days to the store: published JSON files or -gen pipeline runs",
					usage:   "-dir <dir> [day.json ...] | -gen from:to"},
				{name: "verify", setup: setupArchiveVerify,
					summary: "prove every archived day reproduces its published bytes",
					usage:   "-dir <dir>"},
				{name: "stats", setup: setupArchiveStats,
					summary: "snapshots, deltas and stored bytes against per-day full JSON",
					usage:   "-dir <dir>"},
			}},
		{name: "replay", setup: setupReplay,
			summary: "stream an archived census history day by day",
			usage:   "-archive <dir> [-family ipv4] [-from N] [-to M] [-diff] [-budget N] [-optout file]"},
		{name: "query",
			summary: "longitudinal queries over the archive's timeline index",
			sub: []*command{
				{name: "build-index", setup: setupQueryBuildIndex,
					summary: "build the timeline index, or extend the one there by the days appended since",
					usage:   "-archive <dir>"},
				{name: "timeline", setup: setupQueryTimeline,
					summary: "one prefix's longitudinal strip",
					usage:   "-archive <dir> -prefix <p> [-family ipv4]"},
				{name: "events", setup: setupQueryEvents,
					summary: "the family-wide onset/offset/flap/site-churn/geo-shift scan",
					usage:   "-archive <dir> [-kind onset,...] [-from N] [-to M]"},
				{name: "stability", setup: setupQueryStability,
					summary: "one prefix's stability record",
					usage:   "-archive <dir> -prefix <p> [-family ipv4]"},
			}},
		{name: "budget",
			summary: "show responsible-probing budgets, opt-outs and demand",
			sub: []*command{
				{name: "show", setup: setupBudgetShow,
					summary: "parsed caps, the opt-out registry and a day's estimated probe demand",
					usage:   "[-budget spec] [-optout file] [-day N] [-v6]"},
			}},
		{name: "metrics", setup: setupMetrics,
			summary: "render a telemetry snapshot written with 'census -obs'",
			usage:   "[-spans=false] [-events=false] <snapshot.json>"},
		{name: "loadgen", setup: setupLoadgen,
			summary: "drive the HTTP serving tier with a deterministic workload",
			usage:   "-archive DIR [-url BASE] [-duration 20s] [-rate N] [-out BENCH_api.json]"},
	},
}

// errUsage is what a leaf returns when its arguments do not add up; the
// dispatcher reports the table's usage line in its place.
var errUsage = errors.New("usage")

// helpWords are the first words that ask for the subcommand listing.
var helpWords = []string{"help", "-h", "--help"}

func main() { os.Exit(dispatch(os.Args[1:], os.Stderr)) }

// dispatch runs the command args name and returns the process exit code:
// 2 for a first word that is not a subcommand (with the listing), 1 for a
// failed command or a group given no or an unknown subcommand.
func dispatch(args []string, stderr io.Writer) int {
	node, path, rest := root.resolve(args)
	if node == root {
		help := len(rest) > 0 && slices.Contains(helpWords, rest[0])
		if len(rest) > 0 && !help {
			fmt.Fprintf(stderr, "laces: unknown subcommand %q\n", rest[0])
		}
		root.writeHelp(stderr)
		if help {
			return 0
		}
		return 2
	}
	err := node.misuse(path, rest)
	if err == nil {
		fs, run := node.flagSet(path, flag.ExitOnError)
		fs.Parse(rest)
		if err = run(); errors.Is(err, errUsage) {
			err = errors.New("usage: " + node.usageLine(path))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "laces:", err)
		return 1
	}
	return 0
}

// resolve walks args down the tree and returns the deepest node their
// leading words name, those words, and the arguments left for it.
func (c *command) resolve(args []string) (node *command, path, rest []string) {
	node = c
	for len(args) > 0 {
		i := slices.IndexFunc(node.sub, func(s *command) bool { return s.name == args[0] })
		if i < 0 {
			break
		}
		node, path, args = node.sub[i], append(path, args[0]), args[1:]
	}
	return node, path, args
}

// misuse is the error for stopping at a node that cannot run: a group
// given no subcommand or one it does not have.
func (c *command) misuse(path, rest []string) error {
	if c.setup != nil {
		return nil
	}
	var names []string
	for _, s := range c.sub {
		names = append(names, s.name)
	}
	if len(rest) == 0 {
		return fmt.Errorf("usage: laces %s <%s> ...", strings.Join(path, " "), strings.Join(names, "|"))
	}
	return fmt.Errorf("laces %s: unknown subcommand %q (%s)", strings.Join(path, " "), rest[0], strings.Join(names, ", "))
}

// usageLine is the synopsis of the runnable node reached by path.
func (c *command) usageLine(path []string) string {
	return "laces " + strings.Join(path, " ") + " " + c.usage
}

// flagSet makes the FlagSet of the runnable node reached by path — the
// only one this package creates — and has the node declare its flags.
func (c *command) flagSet(path []string, onError flag.ErrorHandling) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet(strings.Join(path, " "), onError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of %s: %s\n  %s\n", fs.Name(), c.summary, c.usageLine(path))
		fs.PrintDefaults()
	}
	return fs, c.setup(fs)
}

// writeHelp lists c's subcommands, the text of `laces help`.
func (c *command) writeHelp(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n\nSubcommands:\n", c.name, c.summary)
	for _, s := range c.sub {
		fmt.Fprintf(w, "  %-14s %s\n", s.name, s.summary)
	}
	fmt.Fprintf(w, "\nRun '%s <subcommand> -h' for flags.\n", c.name)
}
