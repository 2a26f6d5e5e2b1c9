package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/geo"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/igreedy"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
)

func setupCensus(fs *flag.FlagSet) func() error {
	day := fs.Int("day", 0, "census day (0 = March 21, 2024)")
	v6 := fs.Bool("v6", false, "IPv6 census")
	world := simFlags(fs, "seed")
	jsonOut := fs.String("json", "", "write census JSON to this file")
	csvOut := fs.String("csv", "", "write census CSV to this file")
	archiveDir := fs.String("archive", "", "append the census day to this archive")
	gov := governanceFlags(fs)
	progress := fs.Bool("progress", false, "render a live progress line on stderr while the census runs")
	obsOut := fs.String("obs", "", "write an end-of-run telemetry snapshot (JSON) to this `file`; render with 'laces metrics'")
	tr := tracingFlags(fs)
	return func() error {
		b, reg, err := gov.load()
		if err != nil {
			return err
		}
		telemetry, flightSink := tr.start()
		if telemetry != nil {
			telemetry.SetTraceComponent("census")
			telemetry.EnableFlight("census", 4096)
		} else if *progress || *obsOut != "" {
			telemetry = obs.New()
		}
		pipe, err := world.pipeline(core.Config{
			Budget:     b,
			OptOut:     reg,
			Obs:        telemetry,
			FlightSink: flightSink,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		stopProgress := func() {}
		if *progress {
			stopProgress = telemetry.StartProgress(os.Stderr, 200*time.Millisecond).Stop
		}
		c, err := pipe.RunDaily(*day, *v6, core.DayOptions{})
		stopProgress()
		if err != nil {
			return err
		}
		fmt.Printf("census day %d (%s): hitlist=%d candidates=%d G=%d M=%d probes=%d+%d (%.1fs)\n",
			*day, c.Day.Format(time.DateOnly), c.HitlistSize, len(c.Candidates()),
			c.CountG(), c.CountM(), c.ProbesAnycastStage, c.ProbesGCDStage,
			time.Since(start).Seconds())
		printResponsibility(c.Responsibility)
		if reg != nil {
			for _, touch := range reg.Touched() {
				fmt.Printf("optout: %-20s suppressed %d probing decisions / %d probes\n", touch.Entry, touch.Targets, touch.Probes)
			}
		}
		for _, a := range c.Alerts {
			fmt.Printf("ALERT [%s]: %s\n", a.Kind, a.Message)
		}
		if *jsonOut != "" {
			if err := writeFile(*jsonOut, c.WriteJSON); err != nil {
				return err
			}
			fmt.Println("wrote", *jsonOut)
		}
		if *csvOut != "" {
			if err := writeFile(*csvOut, c.WriteCSV); err != nil {
				return err
			}
			fmt.Println("wrote", *csvOut)
		}
		if *archiveDir != "" {
			aw, err := archive.OpenOrCreate(*archiveDir, archive.Options{})
			if err != nil {
				return err
			}
			if err := closeAfter(aw, aw.Append(*day, c.Document())); err != nil {
				return err
			}
			fmt.Printf("appended day %d to archive %s\n", *day, *archiveDir)
			if err := extendIndex(*archiveDir, fmt.Sprintf("day %d", *day)); err != nil {
				return err
			}
		}
		if *obsOut != "" {
			if err := writeFile(*obsOut, telemetry.Snapshot().WriteJSON); err != nil {
				return err
			}
			fmt.Println("wrote telemetry snapshot", *obsOut)
		}
		return tr.finish(telemetry, nil)
	}
}

// printResponsibility renders a census's governance block for the CLI.
func printResponsibility(r *core.Responsibility) {
	if r == nil {
		return
	}
	fmt.Printf("responsibility: demanded=%d spent=%d skipped=%d (optout %d / budget %d probing decisions)",
		r.ProbesDemanded, r.ProbesSpent, r.ProbesSkipped, r.OptOutTargets, r.BudgetTargets)
	if r.BudgetRemaining >= 0 {
		fmt.Printf(" remaining=%d", r.BudgetRemaining)
	}
	if r.RateSteps > 0 {
		fmt.Printf(" rate-steps=%d (%.0f targets/s)", r.RateSteps, r.RateEffective)
	}
	fmt.Println()
}

// setupIGreedy analyses a CSV of "vp,lat,lon,rtt_ms" rows.
func setupIGreedy(fs *flag.FlagSet) func() error {
	samplesPath := fs.String("samples", "", "CSV file with vp,lat,lon,rtt_ms rows (- for stdin)")
	return func() error {
		if *samplesPath == "" {
			return fmt.Errorf("igreedy: -samples required")
		}
		in := os.Stdin
		if *samplesPath != "-" {
			f, err := os.Open(*samplesPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		samples, err := readSamples(in)
		if err != nil {
			return fmt.Errorf("igreedy: %w", err)
		}
		res := igreedy.Analyze(samples, igreedy.Options{})
		fmt.Printf("samples: %d\nanycast: %v\nsites: %d\n", res.Samples, res.Anycast, res.NumSites())
		for _, s := range res.Sites {
			fmt.Printf("  site via %-20s radius %7.0f km  →  %s\n", s.VP, s.Disc.RadiusKm, s.City)
		}
		return nil
	}
}

// readSamples parses "vp,lat,lon,rtt_ms" rows; blank lines, # comments and
// a "vp,…" header are skipped. Every number is checked before it reaches
// the geometry: a coordinate off the globe or an RTT that is negative, not
// finite or too large for a time.Duration is an error naming its line.
func readSamples(r io.Reader) ([]igreedy.Sample, error) {
	var samples []igreedy.Sample
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "vp,") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("line %d: want vp,lat,lon,rtt_ms", line)
		}
		lat, err1 := strconv.ParseFloat(parts[1], 64)
		lon, err2 := strconv.ParseFloat(parts[2], 64)
		ms, err3 := strconv.ParseFloat(parts[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("line %d: bad number", line)
		}
		loc := geo.Coordinate{Lat: lat, Lon: lon}
		if !loc.IsValid() {
			return nil, fmt.Errorf("line %d: coordinate %v,%v is not on the globe (|lat| ≤ 90, |lon| ≤ 180)", line, lat, lon)
		}
		ns := ms * float64(time.Millisecond)
		if !(ns >= 0 && ns < math.MaxInt64) { // also false for NaN
			return nil, fmt.Errorf("line %d: rtt_ms %v is not a non-negative duration", line, ms)
		}
		samples = append(samples, igreedy.Sample{VP: parts[0], Loc: loc, RTT: time.Duration(ns)})
	}
	return samples, sc.Err()
}

// setupBudgetShow prints the parsed budget caps, the opt-out registry, and
// the selected census day's estimated anycast-stage probe demand, so an
// operator can size a budget (e.g. at the paper's 1/8th operating point)
// before committing to a run.
func setupBudgetShow(fs *flag.FlagSet) func() error {
	gov := governanceFlags(fs)
	day := fs.Int("day", 0, "census day for the demand estimate")
	v6 := fs.Bool("v6", false, "IPv6 hitlist")
	world := simFlags(fs, "seed")
	return func() error {
		b, reg, err := gov.load()
		if err != nil {
			return err
		}
		fmt.Printf("budget: %s\n", b.String())
		if b.DailyProbes > 0 {
			fmt.Printf("  daily cap:      %d probes\n", b.DailyProbes)
		}
		if b.PerASProbes > 0 {
			fmt.Printf("  per-AS cap:     %d probes\n", b.PerASProbes)
		}
		if b.PerPrefixProbes > 0 {
			fmt.Printf("  per-prefix cap: %d probes\n", b.PerPrefixProbes)
		}
		if reg != nil {
			fmt.Printf("opt-out registry: %d entries\n", reg.Len())
			for _, e := range reg.Entries() {
				fmt.Printf("  %s\n", e)
			}
		}

		w, dep, err := world.tangled()
		if err != nil {
			return err
		}
		hl := hitlist.ForDay(w, *v6, *day)
		var total int64
		fmt.Printf("estimated anycast-stage demand, day %d (%d sites, hitlist %d):\n",
			*day, dep.NumSites(), hl.Len())
		for _, proto := range packet.Protocols() {
			n := 0
			for _, e := range hl.Entries {
				if e.Protocols[proto] {
					n++
				}
			}
			d := int64(n) * int64(dep.NumSites())
			total += d
			fmt.Printf("  %-4s  %7d targets × %d sites = %9d probes\n", proto, n, dep.NumSites(), d)
		}
		fmt.Printf("  total %d probes (GCD and CHAOS stages add demand proportional to candidates)\n", total)
		if b.DailyProbes > 0 && total > 0 {
			fmt.Printf("daily budget covers %.1f%% of the anycast-stage demand (1/8th ≈ %d)\n",
				100*float64(b.DailyProbes)/float64(total), total/8)
		}
		return nil
	}
}
