package main

import (
	"bytes"
	"fmt"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/longitudinal"
	"github.com/laces-project/laces/internal/netsim"
)

// published is one census document as the fixture run produced it, with its
// canonical bytes: what an archived copy must re-encode to.
type published struct {
	day   int
	doc   *core.Document
	bytes []byte
}

// fixture is the census history the ingest and serve workloads start from:
// consecutive days of both families, in the order the runner published them
// (IPv4 then IPv6 of each day). Nothing mutates the documents afterwards, so
// every rep appends the same ones.
type fixture struct {
	world     *netsim.World
	days      int
	docs      []published
	generateS float64
}

// Append makes the fixture an archive.Sink for the longitudinal runner.
func (f *fixture) Append(day int, doc *core.Document) error {
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return err
	}
	f.docs = append(f.docs, published{day, doc, buf.Bytes()})
	return nil
}

var _ archive.Sink = (*fixture)(nil)

// families are the archive's family names, in the order a day's documents
// are published.
var families = []string{"ipv4", "ipv6"}

// family returns the day's documents, one per entry of families.
func (f *fixture) family(day int) []published { return f.docs[2*day : 2*day+2] }

// newFixture runs the longitudinal census at TestConfig with the paper's
// incident calendar for 60 days (6 with -smoke). It is the same history for
// every seed: another world's history is another amount of work (re-seeding
// it moved the days ingested per second by 11% between seeds), so the seed
// varies what is asked of the history (serve_mix's schedule), not the history.
func newFixture(o options, tr *tracer) (*fixture, error) {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		return nil, err
	}
	f := &fixture{world: w, days: 60}
	if o.smoke {
		f.days = 6
	}
	s := tr.begin("longitudinal.generate")
	t0 := now()
	_, err = longitudinal.Run(w, longitudinal.Config{Days: f.days, Sink: f})
	f.generateS = seconds(since(t0))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if len(f.docs) != 2*f.days {
		return nil, fmt.Errorf("fixture: %d documents for %d days", len(f.docs), f.days)
	}
	return f, nil
}

// pack writes the whole fixture into a new archive at dir.
func (f *fixture) pack(dir string) error {
	wr, err := archive.Create(dir, archive.Options{})
	if err != nil {
		return err
	}
	for _, p := range f.docs {
		if err := wr.Append(p.day, p.doc); err != nil {
			wr.Close()
			return err
		}
	}
	return wr.Close()
}

// checkArchive decodes every archived day and compares it byte for byte with
// what the fixture run published.
func (f *fixture) checkArchive(a *archive.Archive) error {
	for fi, fam := range families {
		seen := 0
		err := a.Range(fam, 0, -1, func(day int, doc *core.Document) error {
			var buf bytes.Buffer
			if err := doc.WriteJSON(&buf); err != nil {
				return err
			}
			if day >= f.days || !bytes.Equal(buf.Bytes(), f.family(day)[fi].bytes) {
				return fmt.Errorf("%s day %d does not re-encode to the published bytes", fam, day)
			}
			seen++
			return nil
		})
		if err != nil {
			return err
		}
		if seen != f.days {
			return fmt.Errorf("%s: %d of %d days archived", fam, seen, f.days)
		}
	}
	return nil
}

// archiveReadLayer measures the archive's read side on the packed fixture:
// a cold single-day decode and a streaming pass over both chains.
func archiveReadLayer(res *result, f *fixture, dir string) {
	// Every decode gets its own handle, opened outside the timing, so that
	// none can find a day in the decoded-day LRU.
	var coldMS []float64
	for i := 0; i < 2*f.days; i++ {
		a, err := archive.Open(dir)
		if err != nil {
			res.fail("archive.Open: %v", err)
			return
		}
		fam := families[i%2]
		t0 := now()
		_, err = a.Document(fam, i/2)
		coldMS = append(coldMS, millis(since(t0)))
		if err != nil {
			res.fail("cold decode of %s day %d: %v", fam, i/2, err)
			return
		}
	}
	res.Metrics["archive.decode_cold_ms"] = median(coldMS)

	a, err := archive.Open(dir)
	if err != nil {
		res.fail("archive.Open: %v", err)
		return
	}
	days := 0
	t0 := now()
	for _, fam := range a.Families() {
		if err := a.Range(fam, 0, -1, func(int, *core.Document) error { days++; return nil }); err != nil {
			res.fail("range over %s: %v", fam, err)
			return
		}
	}
	res.Metrics["archive.range_days_per_s"] = float64(days) / seconds(since(t0))
}
