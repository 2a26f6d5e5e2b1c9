package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/traceroute"
)

// setupMetrics renders a telemetry snapshot written by `laces census -obs`
// or `laces-experiments -obs`: every series' final value, the span tree
// and the retained events.
func setupMetrics(fs *flag.FlagSet) func() error {
	spans := fs.Bool("spans", true, "include the pipeline span log")
	events := fs.Bool("events", true, "include retained events")
	return func() error {
		if fs.NArg() != 1 {
			return errUsage
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		snap, err := obs.ReadSnapshot(f)
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(0), err)
		}
		fmt.Printf("telemetry snapshot (%s): %d series, %d spans, %d events\n",
			snap.TakenAt.Format(time.RFC3339), len(snap.Metrics), len(snap.Spans), len(snap.Events))
		for _, m := range snap.Metrics {
			name := m.Name
			if len(m.Labels) > 0 {
				var parts []string
				for _, l := range m.Labels {
					parts = append(parts, fmt.Sprintf("%s=%q", l.Name, l.Value))
				}
				name += "{" + strings.Join(parts, ",") + "}"
			}
			if m.Type == "histogram" {
				fmt.Printf("  %-64s count=%d sum=%.6g\n", name, m.Count, m.Sum)
				continue
			}
			fmt.Printf("  %-64s %g\n", name, m.Value)
		}
		if *spans && len(snap.Spans) > 0 {
			fmt.Println("spans:")
			printSpanTree(snap.Spans)
		}
		if *events && len(snap.Events) > 0 {
			fmt.Println("events:")
			for _, ev := range snap.Events {
				var parts []string
				for _, l := range ev.Fields {
					parts = append(parts, fmt.Sprintf("%s=%q", l.Name, l.Value))
				}
				fmt.Printf("  %s %s %s %s\n", ev.At.Format(time.RFC3339), ev.Kind, ev.Name, strings.Join(parts, " "))
			}
		}
		return nil
	}
}

// printSpanTree renders spans as a forest: each span indented under the
// one its Parent names, siblings in start order. A span whose parent is
// not in the snapshot (it ended in another process) prints as a root.
func printSpanTree(spans []obs.TraceSpan) {
	have := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		have[sp.SpanID] = true
	}
	children := make(map[uint64][]int)
	for i, sp := range spans {
		parent := sp.Parent
		if !have[parent] {
			parent = 0
		}
		children[parent] = append(children[parent], i)
	}
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		kids := children[parent]
		sort.SliceStable(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		for _, i := range kids {
			fmt.Printf("  %s%-*s %9.3fs\n", strings.Repeat("  ", depth), 48-2*depth, spans[i].Name, spans[i].Seconds)
			walk(spans[i].SpanID, depth+1)
		}
	}
	walk(0, 0)
}

func setupTrace(fs *flag.FlagSet) func() error {
	target := fs.String("target", "", "hitlist prefix or address to trace, IPv4 or IPv6 (e.g. 1.2.3.0/24)")
	from := fs.String("from", "Amsterdam", "vantage city")
	day := fs.Int("day", 0, "census day")
	gov := governance{budget: new(string), optOut: fs.String("optout", "", optOutUsage)} // a trace takes no budget
	world := simFlags(fs)
	return func() error {
		if *target == "" {
			return errUsage
		}
		w, err := world.world()
		if err != nil {
			return err
		}
		tg, err := findTarget(w, *target)
		if err != nil {
			return err
		}
		_, reg, err := gov.load()
		if err != nil {
			return err
		}
		if dec := budget.NewLedger(budget.Budget{}, reg).Gate(*day).Admit(tg, traceroute.MaxTTL); dec != budget.Admitted {
			entry, _ := reg.Match(tg.Prefix, tg.Origin)
			return fmt.Errorf("%s: %s (opt-out entry %s); no probe sent", tg.Prefix, dec, entry)
		}
		vp, err := w.NewVP("trace-cli", *from)
		if err != nil {
			return err
		}
		p, err := traceroute.Run(w, vp, tg, traceroute.Options{
			At:          netsim.DayTime(*day),
			Measurement: uint16(*day),
		})
		if err != nil {
			return err
		}
		fmt.Printf("traceroute to %s (%s) from %s, day %d\n", tg.Addr, tg.Prefix, *from, *day)
		for _, h := range p.Hops {
			if h.Router == "" {
				fmt.Printf("  %2d  *\n", h.TTL)
				continue
			}
			where := w.CityAt(h.CityIdx).Name
			note := ""
			if h.PoP {
				note = "  ← operator PoP"
			}
			fmt.Printf("  %2d  %-44s %8.2f ms  %s%s\n",
				h.TTL, h.Router, float64(h.RTT.Microseconds())/1000, where, note)
		}
		if !p.Reached {
			fmt.Println("target did not answer (unresponsive to ICMP)")
		}
		return nil
	}
}

// setupTraceExport merges per-component trace JSONL files (written by the
// -trace flags or fetched from GET /debug/trace) into one export:
// Chrome trace_event JSON by default — loadable in Perfetto and
// chrome://tracing — or merged JSONL for further processing.
func setupTraceExport(fs *flag.FlagSet) func() error {
	out := fs.String("out", "", "output file (default stdout)")
	format := fs.String("format", "chrome", "output format: chrome or jsonl")
	return func() error {
		if fs.NArg() == 0 {
			return errUsage
		}
		var parts []*obs.TraceExport
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			ex, err := obs.ReadTraceJSONL(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			parts = append(parts, ex)
		}
		merged := obs.MergeTraces(parts...)
		var write func(io.Writer) error
		switch *format {
		case "chrome":
			write = merged.WriteChrome
		case "jsonl":
			write = merged.WriteJSONL
		default:
			return fmt.Errorf("unknown -format %q (chrome, jsonl)", *format)
		}
		if *out == "" {
			return write(os.Stdout)
		}
		if err := writeFile(*out, write); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans, %d flight events)\n", *out, len(merged.Spans), len(merged.Events))
		return nil
	}
}

// findTarget resolves a prefix or address string to a hitlist target; the
// string's own address family selects the universe searched.
func findTarget(w *netsim.World, s string) (*netsim.Target, error) {
	if pfx, err := netip.ParsePrefix(s); err == nil {
		if tg := w.FindTarget(pfx); tg != nil {
			return tg, nil
		}
		return nil, fmt.Errorf("prefix %s not on the hitlist", pfx)
	}
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a prefix nor an address", s)
	}
	if tg := w.FindTarget(netip.PrefixFrom(addr, addr.BitLen())); tg != nil {
		return tg, nil
	}
	return nil, fmt.Errorf("address %s not covered by any hitlist prefix", addr)
}
