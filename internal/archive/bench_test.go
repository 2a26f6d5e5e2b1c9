package archive

// Benchmarks for the acceptance bar of the archive layer: on a ≥100-day
// run with realistic day-over-day persistence, the delta-encoded store
// must be measurably smaller and faster to decode than per-day full
// JSON. BenchmarkArchivePack / BenchmarkArchiveDecodeRange vs
// BenchmarkFullJSONDecode; bytes_per_day metrics carry the size story,
// and BenchmarkArchiveEncode times the writer without the file system.

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/core"
)

const (
	benchDays    = 120
	benchEntries = 400
)

var (
	benchOnce  sync.Once
	benchDocs  []*core.Document
	benchFull  [][]byte // canonical per-day JSON
	benchBytes int64
)

func benchChain(b *testing.B) ([]*core.Document, [][]byte) {
	b.Helper()
	benchOnce.Do(func() {
		benchDocs = chain(benchDays, benchEntries)
		for _, d := range benchDocs {
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				panic(err)
			}
			benchFull = append(benchFull, buf.Bytes())
			benchBytes += int64(buf.Len())
		}
	})
	return benchDocs, benchFull
}

// BenchmarkArchivePack times packing a 120-day census run into the
// delta-encoded store and reports the size ratio against full JSON.
func BenchmarkArchivePack(b *testing.B) {
	docs, _ := benchChain(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		w, err := Create(dir, Options{SnapshotEvery: 7})
		if err != nil {
			b.Fatal(err)
		}
		for day, d := range docs {
			if err := w.Append(day, d); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			a, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			st := a.Stats()[0]
			b.ReportMetric(float64(st.StoredBytes)/float64(benchDays), "archive_bytes/day")
			b.ReportMetric(float64(st.FullBytes)/float64(benchDays), "fulljson_bytes/day")
			b.ReportMetric(st.Ratio(), "size_ratio")
		}
	}
}

// BenchmarkArchiveEncode times the writer's in-memory step over the
// same 120-day run at SnapshotEvery 7, with no file written: each day
// streamed to its canonical bytes and split, and each delta day diffed
// against the day before's rows and encoded (encodeDay), in two day
// buffers used in turn as a family's chain uses them. BenchmarkArchivePack
// times the same run through the file system, whose spread hides a
// writer change.
func BenchmarkArchiveEncode(b *testing.B) {
	docs, _ := benchChain(b)
	w := new(Writer)
	days := [2]*core.CanonicalDay{new(core.CanonicalDay), new(core.CanonicalDay)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for day, d := range docs {
			cur, last := days[day%2], days[(day+1)%2]
			if day%7 == 0 {
				last = nil
			}
			if _, err := w.encodeDay(day, d, cur, last); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkArchiveDecodeRange times streaming every day of the packed
// archive back out (snapshot parse + delta application).
func BenchmarkArchiveDecodeRange(b *testing.B) {
	a := benchArchive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries := 0
		err := a.Range("ipv4", 0, -1, func(day int, doc *core.Document) error {
			entries += len(doc.Entries)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if entries == 0 {
			b.Fatal("empty decode")
		}
	}
}

// BenchmarkRangeJSON times /v1/range's read: 7-day windows of the packed
// archive as AppendJSON lines, the window's start stepping through the
// run so every offset from a snapshot is met, on a first and on a
// proven handle (benchReads).
func BenchmarkRangeJSON(b *testing.B) {
	benchReads(b, benchDir(b), func(a *Archive, i int) error {
		from := i % (benchDays - 6)
		n := 0
		err := a.RangeJSON("ipv4", from, from+6, func(day int, line []byte) error {
			n += len(line)
			return nil
		})
		if err == nil && n == 0 {
			b.Fatal("empty range")
		}
		return err
	})
}

// BenchmarkArchiveDay times /v1/census's cold read of one day,
// Archive.Day, the canonical bytes rebuilt from the stored rows, the day
// stepping through the run so every offset from a snapshot is met, on a
// first and on a proven handle (benchReads).
func BenchmarkArchiveDay(b *testing.B) {
	benchReads(b, benchDir(b), func(a *Archive, i int) error {
		d, err := a.Day("ipv4", i%benchDays)
		if err == nil && len(d.Bytes()) == 0 {
			b.Fatal("empty day")
		}
		return err
	})
}

// benchReads times read(a, i) on the archive in dir in two cases:
// "first" opens a new handle, untimed, before each read, so the read
// proves every day-file it reads (a delta day rebuilt and checked
// against its record); "proven" reads on one handle throughout, whose
// day-files are proven after the first reads, so a read rebuilds
// nothing to prove.
func benchReads(b *testing.B, dir string, read func(a *Archive, i int) error) {
	for _, c := range []string{"first", "proven"} {
		b.Run(c, func(b *testing.B) {
			a := openBench(b, dir)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c == "first" {
					b.StopTimer()
					a = openBench(b, dir)
					b.StartTimer()
				}
				if err := read(a, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDir packs the 120-day run at SnapshotEvery 7 and returns its
// directory.
func benchDir(b *testing.B) string {
	docs, _ := benchChain(b)
	dir := b.TempDir()
	w, err := Create(dir, Options{SnapshotEvery: 7})
	if err != nil {
		b.Fatal(err)
	}
	for day, d := range docs {
		if err := w.Append(day, d); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchArchive packs the 120-day run at SnapshotEvery 7 and opens it.
func benchArchive(b *testing.B) *Archive { return openBench(b, benchDir(b)) }

// openBench opens the archive in dir.
func openBench(b *testing.B, dir string) *Archive {
	a, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkFullJSONDecode is the baseline the archive competes with:
// parsing every day's full JSON document from scratch.
func BenchmarkFullJSONDecode(b *testing.B) {
	_, full := benchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries := 0
		for _, raw := range full {
			doc, err := core.ParseDocument(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			entries += len(doc.Entries)
		}
		if entries == 0 {
			b.Fatal("empty decode")
		}
	}
}

// BenchmarkStreamEncode times the streaming codec against the buffered
// encoder on one day's document.
func BenchmarkStreamEncode(b *testing.B) {
	docs, _ := benchChain(b)
	doc := docs[benchDays-1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := core.StreamDocument(io.Discard, doc); err != nil {
			b.Fatal(err)
		}
	}
}
