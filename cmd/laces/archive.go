package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/query"
	"github.com/laces-project/laces/internal/report"
)

// The delta-encoded census store and the commands that read census
// history from it (or from published JSON files): archive, replay, diff
// and dashboard.

// loadDocument reads one published census JSON file.
func loadDocument(path string) (*core.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := core.ParseDocument(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// closeAfter closes c and returns err, or c's Close error when err is
// nil: an append-side Close is where a deferred write failure surfaces,
// so it must reach the exit code rather than vanish in a defer.
func closeAfter(c io.Closer, err error) error {
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseGen parses archive pack's -gen "from:to" day range, strictly.
func parseGen(spec string) (from, to int, err error) {
	a, b, ok := strings.Cut(spec, ":")
	from, err1 := strconv.Atoi(a)
	to, err2 := strconv.Atoi(b)
	if !ok || err1 != nil || err2 != nil || to < from {
		return 0, 0, fmt.Errorf("laces archive pack: -gen wants from:to, got %q", spec)
	}
	return from, to, nil
}

// setupArchivePack appends census days to an archive — either existing
// published JSON files (positional args, packed in day order as given)
// or freshly generated pipeline runs (-gen from:to).
func setupArchivePack(fs *flag.FlagSet) func() error {
	dir := fs.String("dir", "", "archive directory (required)")
	every := fs.Int("snapshot-every", archive.DefaultSnapshotEvery, "full-snapshot cadence K")
	gen := fs.String("gen", "", "generate days by running the pipeline, e.g. 0:30")
	stride := fs.Int("stride", 1, "day stride with -gen")
	v6 := fs.Bool("v6", false, "IPv6 census with -gen")
	world := simFlags(fs, "seed") // with -gen
	return func() error {
		if *dir == "" {
			return errUsage
		}
		var from, to int
		var pipe *core.Pipeline
		if *gen != "" {
			var err error
			if from, to, err = parseGen(*gen); err != nil {
				return err
			}
			if *stride < 1 {
				return fmt.Errorf("laces archive pack: -stride must be at least 1, got %d", *stride)
			}
			if pipe, err = world.pipeline(core.Config{}); err != nil {
				return err
			}
		} else if fs.NArg() == 0 {
			return fmt.Errorf("laces archive pack: nothing to pack (JSON files or -gen)")
		}
		w, err := archive.OpenOrCreate(*dir, archive.Options{SnapshotEvery: *every})
		if err != nil {
			return err
		}
		if pipe == nil {
			err = packFiles(w, fs.Args())
		} else {
			err = packDays(w, pipe, from, to, *stride, *v6)
		}
		if err := closeAfter(w, err); err != nil {
			return err
		}
		return extendIndex(*dir, "the packed days")
	}
}

// packDays runs the pipeline for every stride-th day of from..to and
// appends each census as it is published.
func packDays(w *archive.Writer, pipe *core.Pipeline, from, to, stride int, v6 bool) error {
	for day := from; day <= to; day += stride {
		c, err := pipe.RunDaily(day, v6, core.DayOptions{})
		if err != nil {
			return err
		}
		if err := w.Append(day, c.Document()); err != nil {
			return err
		}
		fmt.Printf("packed day %d (%s)\n", day, c.Day.Format(time.DateOnly))
	}
	return nil
}

// packFiles appends published census JSON files as consecutive days in
// the order given, continuing the family's existing chain when appending
// to a live archive.
func packFiles(w *archive.Writer, paths []string) error {
	for _, path := range paths {
		doc, err := loadDocument(path)
		if err != nil {
			return err
		}
		day := 0
		if last, ok := w.LastDay(doc.Family); ok {
			day = last + 1
		}
		if err := w.Append(day, doc); err != nil {
			return err
		}
		fmt.Printf("packed %s as day %d (%s)\n", path, day, doc.Date)
	}
	return nil
}

func setupArchiveVerify(fs *flag.FlagSet) func() error {
	dir := fs.String("dir", "", "archive directory (required)")
	return func() error {
		if *dir == "" {
			return errUsage
		}
		a, err := archive.Open(*dir)
		if err != nil {
			return err
		}
		res, err := a.Verify()
		if err != nil {
			return err
		}
		fmt.Printf("archive OK: %d days reproduce their published bytes exactly\n", res.Days)
		return nil
	}
}

func setupArchiveStats(fs *flag.FlagSet) func() error {
	dir := fs.String("dir", "", "archive directory (required)")
	return func() error {
		if *dir == "" {
			return errUsage
		}
		a, err := archive.Open(*dir)
		if err != nil {
			return err
		}
		for _, st := range a.Stats() {
			fmt.Printf("%s: %d days (%d snapshots + %d deltas), %d bytes stored vs %d bytes as per-day full JSON (%.0f%%)\n",
				st.Family, st.Days, st.Snapshots, st.Deltas,
				st.StoredBytes, st.FullBytes, 100*st.Ratio())
		}
		return nil
	}
}

// setupReplay streams an archived census history day by day: one summary
// line per day, optionally with the day-over-day diff. -budget and
// -optout are what-ifs here: archived days whose published cost exceeds
// the cap are flagged, published prefixes the registry would suppress
// counted.
func setupReplay(fs *flag.FlagSet) func() error {
	dir := fs.String("archive", "", "archive directory (required)")
	famFlag := fs.String("family", "ipv4", "address family")
	from := fs.Int("from", 0, "first day")
	to := fs.Int("to", -1, "last day (-1: through the end)")
	diff := fs.Bool("diff", false, "print the day-over-day diff under each day")
	max := fs.Int("max", 3, "diff examples per change kind (with -diff)")
	gov := governanceFlags(fs)
	return func() error {
		if *dir == "" {
			return errUsage
		}
		b, reg, err := gov.load()
		if err != nil {
			return err
		}
		a, err := archive.Open(*dir)
		if err != nil {
			return err
		}
		var prev *core.Document
		var overBudgetDays, optOutHits int
		err = a.Range(*famFlag, *from, *to, func(day int, doc *core.Document) error {
			note := ""
			if r := doc.Responsibility; r != nil {
				note = fmt.Sprintf("  governed(spent=%d skipped=%d)", r.ProbesSpent, r.ProbesSkipped)
				if r.RateSteps > 0 {
					note += fmt.Sprintf(" rate/%d", 1<<r.RateSteps)
				}
			}
			if b.DailyProbes > 0 && doc.ProbesTotal() > b.DailyProbes {
				overBudgetDays++
				note += "  OVER BUDGET"
			}
			if reg != nil {
				for i := range doc.Entries {
					pfx, err := netip.ParsePrefix(doc.Entries[i].Prefix)
					if err != nil {
						continue
					}
					if _, hit := reg.Match(pfx, netsim.ASN(doc.Entries[i].OriginASN)); hit {
						optOutHits++
					}
				}
			}
			fmt.Printf("day %4d  %s  G=%-6d M=%-6d entries=%-6d probes=%d%s\n",
				day, doc.Date, doc.GCount, doc.MCount, len(doc.Entries), doc.ProbesTotal(), note)
			if *diff && prev != nil {
				if err := report.Diff(prev, doc).Render(os.Stdout, *max); err != nil {
					return err
				}
			}
			if *diff {
				prev = doc.DeepCopy() // Range owns doc beyond the callback
			}
			return nil
		})
		if err != nil {
			return err
		}
		if b.DailyProbes > 0 {
			fmt.Printf("what-if budget %s: %d archived days exceed the daily cap\n", b.String(), overBudgetDays)
		}
		if reg != nil {
			fmt.Printf("what-if opt-out (%d entries): %d published prefix-days would be suppressed\n", reg.Len(), optOutHits)
		}
		return nil
	}
}

func setupDiff(fs *flag.FlagSet) func() error {
	max := fs.Int("max", 10, "examples shown per change kind")
	dir := fs.String("archive", "", "diff two days of this archive instead of JSON files")
	from := fs.Int("from", -1, "older census day (with -archive)")
	to := fs.Int("to", -1, "newer census day (with -archive)")
	famFlag := fs.String("family", "ipv4", "address family (with -archive)")
	return func() error {
		var old, cur *core.Document
		var err error
		if *dir != "" {
			if *from < 0 || *to < 0 {
				return errUsage
			}
			a, err := archive.Open(*dir)
			if err != nil {
				return err
			}
			if old, err = a.Document(*famFlag, *from); err != nil {
				return err
			}
			if cur, err = a.Document(*famFlag, *to); err != nil {
				return err
			}
		} else {
			if fs.NArg() != 2 {
				return errUsage
			}
			if old, err = loadDocument(fs.Arg(0)); err != nil {
				return err
			}
			if cur, err = loadDocument(fs.Arg(1)); err != nil {
				return err
			}
		}
		if old.Family != cur.Family {
			return fmt.Errorf("family mismatch: %s vs %s", old.Family, cur.Family)
		}
		return report.Diff(old, cur).Render(os.Stdout, *max)
	}
}

func setupDashboard(fs *flag.FlagSet) func() error {
	dir := fs.String("archive", "", "render from this archive instead of JSON files")
	famFlag := fs.String("family", "ipv4", "address family (with -archive)")
	return func() error {
		if *dir == "" {
			if fs.NArg() == 0 {
				return errUsage
			}
			var docs []*core.Document
			for _, path := range fs.Args() {
				doc, err := loadDocument(path)
				if err != nil {
					return err
				}
				docs = append(docs, doc)
			}
			return report.Dashboard(os.Stdout, docs)
		}
		// Stream the archive into the dashboard: O(1) documents in
		// memory however long the census history is.
		st, err := openStore(*dir)
		if err != nil {
			return err
		}
		defer st.close()
		b := report.NewDashboardBuilder()
		err = st.archive.Range(*famFlag, 0, -1, func(day int, doc *core.Document) error {
			b.Add(doc.DeepCopy())
			return nil
		})
		if err != nil {
			return err
		}
		if err := b.Render(os.Stdout); err != nil {
			return err
		}
		// With a timeline index next to the archive, the churn/events
		// section comes from query results — no document re-scan.
		if st.index == nil {
			if !errors.Is(st.noIndex, os.ErrNotExist) {
				fmt.Printf("\n(churn/events section skipped: %v)\n", st.noIndex)
			}
			return nil
		}
		series, err := st.index.Series(*famFlag)
		if err != nil {
			return err
		}
		events, err := st.index.Events(*famFlag, nil, 0, -1, query.EventOptions{})
		if err != nil {
			return err
		}
		return report.ChurnAndEvents(os.Stdout, series, events, 0, 0)
	}
}
