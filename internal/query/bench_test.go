package query

// The acceptance bar of the query layer: on the 120-day reference
// chain, answering a prefix timeline from the columnar index must beat
// the decode-every-day archive.Range baseline by ≥10×.
// BenchmarkQueryTimeline/index vs BenchmarkQueryTimeline/decode-baseline.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
)

const (
	benchDays    = 120
	benchEntries = 400
	// benchLookups is the number of distinct prefixes each iteration
	// resolves.
	benchLookups = 8
)

var (
	benchOnce sync.Once
	benchDir  string
	benchErr  error
)

func benchArchive(b *testing.B) string {
	b.Helper()
	benchOnce.Do(func() {
		docs := synthChain(benchDays, benchEntries)
		dir, err := os.MkdirTemp("", "laces-query-bench-*")
		if err != nil {
			benchErr = err
			return
		}
		w, err := archive.Create(dir, archive.Options{SnapshotEvery: 7})
		if err != nil {
			benchErr = err
			return
		}
		for i, d := range docs {
			if err := w.Append(i, d); err != nil {
				benchErr = err
				return
			}
		}
		if err := w.Close(); err != nil {
			benchErr = err
			return
		}
		if _, err := BuildDir(dir); err != nil {
			benchErr = err
			return
		}
		benchDir = dir
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDir
}

// BenchmarkQueryTimeline compares the two ways to answer "what did
// this prefix do across 120 days": the columnar index row vs decoding
// every archived day.
func BenchmarkQueryTimeline(b *testing.B) {
	dir := benchArchive(b)

	b.Run("index", func(b *testing.B) {
		ix, err := Open(filepath.Join(dir, IndexFileName))
		if err != nil {
			b.Fatal(err)
		}
		defer ix.Close()
		prefixes := ix.Prefixes("ipv4")[:benchLookups]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range prefixes {
				tl, err := ix.Timeline("ipv4", p)
				if err != nil {
					b.Fatal(err)
				}
				if tl.PresentDays() == 0 {
					b.Fatal("empty timeline")
				}
			}
		}
	})

	b.Run("decode-baseline", func(b *testing.B) {
		a, err := archive.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := Open(filepath.Join(dir, IndexFileName))
		if err != nil {
			b.Fatal(err)
		}
		defer ix.Close()
		prefixes := ix.Prefixes("ipv4")[:benchLookups]
		want := make(map[string]bool, len(prefixes))
		for _, p := range prefixes {
			want[p] = true
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			present := 0
			err := a.Range("ipv4", 0, -1, func(day int, doc *core.Document) error {
				for j := range doc.Entries {
					if want[doc.Entries[j].Prefix] {
						present++
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if present == 0 {
				b.Fatal("empty decode")
			}
		}
	})
}

// BenchmarkQueryEvents times /v1/events's read of the index, windows of
// eventsWindow days stepping through the run: "window/first" asks a
// fresh Index (opened untimed) each time, so it scans every indexed
// prefix's full timeline to compute the family's event list, and
// "window/memo" asks one Index throughout, so each window is a slice of
// the list it computed once.
func BenchmarkQueryEvents(b *testing.B) {
	path := filepath.Join(benchArchive(b), IndexFileName)
	const eventsWindow = 30
	for _, c := range []string{"window/first", "window/memo"} {
		b.Run(c, func(b *testing.B) {
			ix, err := Open(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c == "window/first" {
					b.StopTimer()
					if ix, err = Open(path); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				from := i % (benchDays - eventsWindow + 1)
				events, err := ix.Events("ipv4", nil, from, from+eventsWindow-1, EventOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if len(events) == 0 {
					b.Fatal("no events")
				}
			}
		})
	}
}

// BenchmarkIndexBuild times a from-scratch build: the one streaming pass
// that materializes the index from the whole archive, into a path that
// holds no index to resume from.
func BenchmarkIndexBuild(b *testing.B) {
	dir := benchArchive(b)
	a, err := archive.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	out := filepath.Join(b.TempDir(), "bench.idx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Build(a, out)
		if err != nil {
			b.Fatal(err)
		}
		if res.Resumed {
			b.Fatal("the full-build benchmark resumed")
		}
		if i == 0 {
			b.ReportMetric(float64(res.Bytes), "index_bytes")
			b.ReportMetric(float64(res.Bytes)/float64(res.Prefixes), "bytes/prefix")
		}
		b.StopTimer()
		if err := os.Remove(out); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkIndexExtend times the daily step: the archive holds `days`
// days, the committed index all but the last, and BuildDir brings it up
// to date. The days-scaling measurement: the decode work (decodes/op) is
// one day-file at every size — days 59, 239 and 959 are alike the last
// delta of a snapshot-plus-five chain at cadence 6, and the build reads
// that delta alone — so what grows from days=60 to days=960 is what a
// step still pays per day kept: reading the old index back and checking
// its rows, and writing and scoring each row again.
func BenchmarkIndexExtend(b *testing.B) {
	for _, days := range []int{60, 240, 960} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			docs := synthChain(days, benchEntries)
			dir := b.TempDir()
			pack := func(from, to int) {
				w, err := archive.OpenOrCreate(dir, archive.Options{SnapshotEvery: 6})
				if err != nil {
					b.Fatal(err)
				}
				for d := from; d < to; d++ {
					if err := w.Append(d, docs[d]); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			pack(0, days-1)
			if _, err := BuildDir(dir); err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(dir, IndexFileName)
			idx, agg := indexFiles(b, path)
			pack(days-1, days)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Put back the index of the day before.
				if err := os.WriteFile(path, idx, 0o644); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(AggregatesPath(path), agg, 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := BuildDir(dir)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Resumed || res.DaysAdded != 1 {
					b.Fatalf("not a one-day extension: %+v", res)
				}
				if i == 0 {
					b.ReportMetric(float64(res.DaysDecoded), "decodes/op")
					b.ReportMetric(float64(res.Bytes), "index_bytes")
				}
			}
		})
	}
}
