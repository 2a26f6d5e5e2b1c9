package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/query"
)

// ingestRep is what one rep of ingest_60d leaves behind.
type ingestRep struct {
	stepMS       []float64 // latency of each daily cadence step
	stored, full int64     // the writer's append ledger
}

// runIngest is the write side of archive and index: a backfill of the first
// two thirds of the history, then the daily cadence — append both families,
// rebuild the index, reopen it as Server.Reload needs it — then a verify.
func runIngest(o options, tr *tracer) (*result, error) {
	f, err := newFixture(o, tr)
	if err != nil {
		return nil, err
	}
	backfill := f.days * 2 / 3
	reps := o.reps(4)
	res := &result{Unit: "census day", Reps: reps, Metrics: make(map[string]float64)}

	var repS []float64
	var steps [][]float64 // per rep, the latency of each daily step
	var lastRep ingestRep
	var outBytes int64
	var outSHA, idxSHA, keepDir string
	defer func() { os.RemoveAll(keepDir) }()
	res.Metrics["setup_s"] = seconds(since(procStart))

	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp("", "laces-bench-ingest-")
		if err != nil {
			return nil, err
		}
		os.RemoveAll(keepDir)
		keepDir = dir

		tr.setRep(i + 1)
		s := tr.begin("rep")
		t0 := now()
		rep, err := ingestOnce(tr, f, dir, backfill)
		dt := seconds(since(t0))
		tr.end(s)

		res.Ops++
		if err == nil {
			err = checkIngest(f, dir, &outBytes, &outSHA, &idxSHA)
		}
		if err != nil {
			res.Failed++
			res.fail("rep %d: %v", i+1, err)
			continue
		}
		repS = append(repS, dt)
		steps = append(steps, rep.stepMS)
		lastRep = rep
	}
	tr.setRep(0)
	if len(repS) == 0 {
		return nil, fmt.Errorf("no rep succeeded")
	}

	res.RepS = repS
	res.OutSHA256 = outSHA
	res.Metrics["work_per_s"] = float64(f.days) / median(repS)
	res.Metrics["out_bytes_per_unit"] = float64(outBytes) / float64(f.days)
	// The operation with a latency is the daily cadence step. A step rebuilds
	// the whole index, so it takes longer the later its day: the percentiles
	// are over the days, each day's step read as its median over the reps.
	daily := make([]float64, len(steps[0]))
	for d := range daily {
		var ms []float64
		for _, rep := range steps {
			ms = append(ms, rep[d])
		}
		daily[d] = median(ms)
	}
	res.Metrics["p50_ms"] = median(daily)
	res.Metrics["p95_ms"] = percentile(daily, 0.95)
	if !o.traced {
		return res, nil
	}

	m := res.Metrics
	m["longitudinal.generate_s"] = f.generateS
	m["archive.append_ms"] = median(tr.durations("archive.append")) * 1e3
	m["archive.verify_s"] = median(tr.durations("archive.verify"))
	m["archive.stored_kb_per_day"] = float64(lastRep.stored) / 1024 / float64(f.days)
	m["archive.stored_ratio"] = float64(lastRep.stored) / float64(lastRep.full)
	m["query.build_full_s"] = median(tr.durations("query.build_full"))
	m["query.build_daily_s"] = median(tr.durations("query.build_daily"))
	m["query.open_ms"] = median(tr.durations("query.open")) * 1e3
	idx := filepath.Join(keepDir, query.IndexFileName)
	for _, p := range []string{idx, query.AggregatesPath(idx)} {
		if st, err := os.Stat(p); err == nil {
			m["query.index_kb"] += float64(st.Size()) / 1024
		}
	}
	m["trace_overhead_share"] = tr.overheadShare(repS)
	m["trace_coverage_share"] = tr.coverage("rep")
	archiveReadLayer(res, f, keepDir)
	return res, nil
}

// ingestOnce is the timed part of a rep.
func ingestOnce(tr *tracer, f *fixture, dir string, backfill int) (rep ingestRep, err error) {
	wr, err := archive.Create(dir, archive.Options{})
	if err != nil {
		return rep, err
	}
	defer wr.Close() // a second Close after the checked one below is harmless
	appendDay := func(day int) error {
		for _, p := range f.family(day) {
			s := tr.begin("archive.append")
			err := wr.Append(p.day, p.doc)
			tr.end(s)
			if err != nil {
				return err
			}
		}
		return nil
	}
	build := func(name string) error {
		s := tr.begin(name)
		_, err := query.BuildDir(dir)
		tr.end(s)
		return err
	}

	for day := 0; day < backfill; day++ {
		if err := appendDay(day); err != nil {
			return rep, err
		}
	}
	if err := build("query.build_full"); err != nil {
		return rep, err
	}
	for day := backfill; day < f.days; day++ {
		t0 := now()
		if err := appendDay(day); err != nil {
			return rep, err
		}
		if err := build("query.build_daily"); err != nil {
			return rep, err
		}
		s := tr.begin("query.open")
		ix, err := query.OpenDir(dir)
		if err == nil {
			err = ix.Close()
		}
		tr.end(s)
		if err != nil {
			return rep, err
		}
		rep.stepMS = append(rep.stepMS, millis(since(t0)))
	}
	_, rep.stored, rep.full = wr.AppendStats()
	if err := wr.Close(); err != nil {
		return rep, err
	}

	s := tr.begin("archive.verify")
	defer tr.end(s)
	a, err := archive.Open(dir)
	if err != nil {
		return rep, err
	}
	vr, err := a.Verify()
	if err != nil {
		return rep, err
	}
	if vr.Days != 2*f.days {
		return rep, fmt.Errorf("verify covered %d of %d family-days", vr.Days, 2*f.days)
	}
	return rep, nil
}

// checkIngest is the untimed output check of a rep: the archive holds the
// published bytes, the index covers it, and every rep leaves the same files.
// The first rep fixes the byte count and the hashes the later ones must meet.
func checkIngest(f *fixture, dir string, outBytes *int64, outSHA, idxSHA *string) error {
	a, err := archive.Open(dir)
	if err != nil {
		return err
	}
	if err := f.checkArchive(a); err != nil {
		return err
	}
	ix, err := query.OpenDir(dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	if err := ix.VerifyCoverage(a); err != nil {
		return err
	}

	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return err
	}
	all, idx := sha256.New(), sha256.New()
	var n int64
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		fmt.Fprintf(all, "%s %d\n", e.Name(), len(data))
		all.Write(data)
		n += int64(len(data))
		if e.Name() == query.IndexFileName || e.Name() == query.AggregatesPath(query.IndexFileName) {
			idx.Write(data)
		}
	}
	gotAll, gotIdx := hex.EncodeToString(all.Sum(nil)), hex.EncodeToString(idx.Sum(nil))
	if *outSHA == "" {
		*outBytes, *outSHA, *idxSHA = n, gotAll, gotIdx
	}
	if gotIdx != *idxSHA {
		return fmt.Errorf("index bytes differ from the first rep's")
	}
	if gotAll != *outSHA || n != *outBytes {
		return fmt.Errorf("stored files differ from the first rep's")
	}
	return nil
}
