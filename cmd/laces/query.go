package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/query"
	"github.com/laces-project/laces/internal/report"
)

// The longitudinal queries: build-index writes the timeline index next to
// an archive (or extends the one already there), the rest answer from it
// without decoding archived days.

// openIndex opens an archive's timeline index with a build hint on miss.
func openIndex(dir string) (*query.Index, error) {
	ix, err := query.OpenDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%s has no timeline index — run `laces query build-index -archive %s` first", dir, dir)
		}
		return nil, err
	}
	return ix, nil
}

// buildSummary says what an index build did: how many day-files it added
// to what it started from, and how many archived documents that took.
func buildSummary(res *query.BuildResult) string {
	from := "resumed from the committed index"
	if !res.Resumed {
		from = "built from scratch (" + res.FromScratch + ")"
	}
	return fmt.Sprintf("+%d day-files, %d decoded — %s", res.DaysAdded, res.DaysDecoded, from)
}

func setupQueryBuildIndex(fs *flag.FlagSet) func() error {
	dir := fs.String("archive", "", "archive directory (required)")
	return func() error {
		if *dir == "" {
			return errUsage
		}
		start := time.Now()
		res, err := query.BuildDir(*dir)
		if err != nil {
			return err
		}
		fmt.Printf("indexed %d families, %d day-files, %d prefix timelines into %s (%.1fs)\n",
			res.Families, res.Days, res.Prefixes, res.Path, time.Since(start).Seconds())
		fmt.Println(buildSummary(res))
		fmt.Printf("index is %d bytes over a %d-byte archive (%.1f%%)\n",
			res.Bytes, res.SourceBytes, 100*float64(res.Bytes)/float64(max(res.SourceBytes, 1)))
		return nil
	}
}

func setupQueryTimeline(fs *flag.FlagSet) func() error {
	dir := fs.String("archive", "", "archive directory (required)")
	prefix := fs.String("prefix", "", "census prefix (required)")
	famFlag := fs.String("family", "ipv4", "address family")
	return func() error {
		if *dir == "" || *prefix == "" {
			return errUsage
		}
		ix, err := openIndex(*dir)
		if err != nil {
			return err
		}
		defer ix.Close()
		tl, err := ix.Timeline(*famFlag, *prefix)
		if err != nil {
			return err
		}
		fmt.Printf("timeline %s (%s), origin AS%d — present %d of %d indexed days\n",
			tl.Prefix, tl.Family, tl.OriginASN, tl.PresentDays(), len(tl.Days))
		var strip strings.Builder
		for i := range tl.Days {
			switch {
			case !tl.Present[i]:
				strip.WriteByte('.')
			case tl.GCDAnycast[i]:
				strip.WriteByte('G')
			case tl.AnycastBased[i]:
				strip.WriteByte('M')
			default:
				strip.WriteByte('+')
			}
		}
		fmt.Printf("  days %d..%d: %s\n", tl.Days[0], tl.Days[len(tl.Days)-1], strip.String())
		if first, ok := tl.FirstPresent(); ok {
			last, _ := tl.LastPresent()
			minS, maxS := 0, 0
			for i, s := range tl.Sites {
				if !tl.Present[i] || s == 0 {
					continue
				}
				if minS == 0 || s < minS {
					minS = s
				}
				if s > maxS {
					maxS = s
				}
			}
			fmt.Printf("  first day %d, last day %d; enumerated sites %d..%d\n", first, last, minS, maxS)
		}
		st, err := ix.Stability(*famFlag, *prefix)
		if err != nil {
			return err
		}
		fmt.Printf("  stability %.4f (onsets %d, offsets %d, flaps %d, site changes %d, geo shifts %d)\n",
			st.Score, st.Onsets, st.Offsets, st.Flaps, st.SiteChanges, st.GeoShifts)
		return nil
	}
}

func setupQueryEvents(fs *flag.FlagSet) func() error {
	dir := fs.String("archive", "", "archive directory (required)")
	famFlag := fs.String("family", "ipv4", "address family")
	kindFlag := fs.String("kind", "", "comma-separated event kinds (onset,offset,flap,site-churn,geo-shift; empty: all)")
	from := fs.Int("from", 0, "first day")
	to := fs.Int("to", -1, "last day (-1: through the end)")
	hysteresis := fs.Int("hysteresis", 0, "absent days before offset (default 2)")
	max := fs.Int("max", 40, "events shown")
	return func() error {
		if *dir == "" {
			return errUsage
		}
		var kinds []query.EventKind
		if *kindFlag != "" {
			for _, raw := range strings.Split(*kindFlag, ",") {
				k, err := query.ParseEventKind(strings.TrimSpace(raw))
				if err != nil {
					return err
				}
				kinds = append(kinds, k)
			}
		}
		ix, err := openIndex(*dir)
		if err != nil {
			return err
		}
		defer ix.Close()
		events, err := ix.Events(*famFlag, kinds, *from, *to, query.EventOptions{Hysteresis: *hysteresis})
		if err != nil {
			return err
		}
		fmt.Printf("%d events (%s)\n", len(events), *famFlag)
		return report.RenderEvents(os.Stdout, events, *max)
	}
}

func setupQueryStability(fs *flag.FlagSet) func() error {
	dir := fs.String("archive", "", "archive directory (required)")
	prefix := fs.String("prefix", "", "census prefix (required)")
	famFlag := fs.String("family", "ipv4", "address family")
	return func() error {
		if *dir == "" || *prefix == "" {
			return errUsage
		}
		ix, err := openIndex(*dir)
		if err != nil {
			return err
		}
		defer ix.Close()
		st, err := ix.Stability(*famFlag, *prefix)
		if err != nil {
			return err
		}
		fmt.Printf("stability %s (%s): score %.4f\n", st.Prefix, st.Family, st.Score)
		fmt.Printf("  present %d of %d indexed days (%d GCD-confirmed), mean sites %.1f\n",
			st.DaysPresent, st.DaysIndexed, st.GCDDays, st.MeanSites)
		fmt.Printf("  onsets %d, offsets %d, flaps %d, site changes %d, geo shifts %d\n",
			st.Onsets, st.Offsets, st.Flaps, st.SiteChanges, st.GeoShifts)
		return nil
	}
}
