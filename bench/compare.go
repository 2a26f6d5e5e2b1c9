package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readSet loads a JSON-lines result set.
func readSet(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareSets applies the end-to-end bounds to two result sets — B against A
// — and prints one row per workload and metric. It reports false when a row
// regressed, an operation failed, or something that must repeat exactly for
// one seed (published bytes, their hash, the exact counts) did not.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	unresolved := 0
	fmt.Fprintf(w, "%-16s %-19s %-5s %12s %25s %12s %25s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "gap", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.name, d.Name), values(b, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			gap := (mb - ma) / ma
			if d.Better == "higher" {
				gap = -gap
			}
			spread := max((a3-a1)/ma, (b3-b1)/mb)
			verdict := "pass"
			switch {
			case gap > d.Bound:
				verdict, ok = "REGRESSION", false
			case spread > d.Bound && !allBetter(vb, va, d.Better):
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-16s %-19s %-5s %12.6g %25s %12.6g %25s %+8.4f %8.4f %6.2f  %s\n",
				wl.name, d.Name, d.Unit, ma, fmt.Sprintf("[%.6g, %.6g]", a1, a3),
				mb, fmt.Sprintf("[%.6g, %.6g]", b1, b3), gap, spread, d.Bound, verdict)
		}
	}

	// What must repeat exactly: per workload, seed and kind of run.
	type key struct {
		workload string
		seed     int
		traced   bool
	}
	first := make(map[key]*result)
	exact := make([]string, 0, len(exactLayer))
	for name := range exactLayer {
		exact = append(exact, name)
	}
	sort.Strings(exact)
	all := append(append([]result(nil), a...), b...)
	for i := range all {
		r := &all[i]
		if !r.correct() {
			fmt.Fprintf(w, "FAILED: %s seed %d: %d of %d operations failed, problems %q\n", r.Workload, r.Seed, r.Failed, r.Ops, r.Problems)
			ok = false
		}
		k := key{r.Workload, r.Seed, r.Traced}
		f, seen := first[k]
		if !seen {
			first[k] = r
			continue
		}
		if f.OutSHA256 != r.OutSHA256 || f.Metrics["out_bytes_per_unit"] != r.Metrics["out_bytes_per_unit"] {
			fmt.Fprintf(w, "NOT REPEATABLE: %s seed %d published different bytes in two runs\n", r.Workload, r.Seed)
			ok = false
		}
		for _, name := range exact {
			if f.Metrics[name] != r.Metrics[name] {
				fmt.Fprintf(w, "NOT REPEATABLE: %s seed %d: %s read %v and %v\n", r.Workload, r.Seed, name, f.Metrics[name], r.Metrics[name])
				ok = false
			}
		}
	}
	fmt.Fprintf(w, "%d runs in A, %d in B; %d rows unresolved (spread wider than bound); ok=%v\n", len(a), len(b), unresolved, ok)
	return ok, nil
}

// values collects one end-to-end metric of one workload from the untraced
// runs of a set.
func values(set []result, workload, metric string) []float64 {
	var out []float64
	for i := range set {
		if set[i].Workload == workload && !set[i].Traced {
			out = append(out, set[i].Metrics[metric])
		}
	}
	return out
}

// allBetter reports whether every value of xs is better than every value of ys.
func allBetter(xs, ys []float64, better string) bool {
	sx, sy := sorted(xs), sorted(ys)
	if better == "higher" {
		return sx[0] > sy[len(sy)-1]
	}
	return sx[len(sx)-1] < sy[0]
}
