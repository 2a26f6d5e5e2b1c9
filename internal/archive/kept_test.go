package archive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/core"
)

// TestKeptSplitsAreBoundedAndShared: eight goroutines read every day of
// one handle, three rounds each, by Day, RangeJSON and Document, while
// the handle's kept-split budget holds about three snapshots' spans, so
// day-files are proven, kept, rebuilt from spans other goroutines rebuild
// from too, evicted and split again. Every read equals the same read on
// a fresh handle made on one goroutine, the spans the ledger counts never
// exceed the budget during the run, and those the proofs hold do not
// after it. A day-file changed while its spans are kept, and one changed
// after its spans were evicted, are then refused by every read. The days
// carry a governance block, which each reader changes in what it was
// handed, and no other read may see that.
func TestKeptSplitsAreBoundedAndShared(t *testing.T) {
	const days = 21
	dir := t.TempDir()
	docs := chain(days, 60)
	for d, doc := range docs {
		doc.Responsibility = &core.Responsibility{ProbesDemanded: int64(9 + d), ProbesSpent: 7, BudgetRemaining: -1}
	}
	packChain(t, dir, docs, 7)
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, days)
	for d := range want {
		want[d] = readDay(fresh, d)
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, a.recs[0].File))
	if err != nil {
		t.Fatal(err)
	}
	_, _, spans, err := core.SplitSpans(snap, false, new(core.RowArena))
	if err != nil || spans == nil {
		t.Fatalf("the snapshot keeps no spans (%v)", err)
	}
	budget := 3 * spans.Size()
	a.kept.budget = budget
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*days; i++ {
				d := (g*5 + i) % days
				if got := readDay(a, d); got != want[d] {
					errs <- fmt.Errorf("goroutine %d: day %d reads\n%.300s\non a fresh handle\n%.300s", g, d, got, want[d])
					return
				}
				a.kept.mu.Lock()
				size := a.kept.size
				a.kept.mu.Unlock()
				if size > budget {
					errs <- fmt.Errorf("the ledger counts %d bytes of kept spans, over the budget %d", size, budget)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	held, evicted := -1, -1
	size := 0
	for i := range a.proofs {
		p := a.proofs[i].Load()
		switch {
		case p == nil:
			t.Fatalf("%s was read but holds no proof", a.recs[i].File)
		case p.spans != nil:
			size += p.spans.Size()
			held = i
		default:
			evicted = i
		}
	}
	if size > budget {
		t.Fatalf("the proofs hold %d bytes of spans, over the budget %d", size, budget)
	}
	if held < 0 || evicted < 0 {
		t.Fatalf("no proof holds spans (%d) or none was evicted (%d): the budget %d tests nothing", held, evicted, budget)
	}
	for _, i := range []int{held, evicted} {
		rec, path := a.recs[i], filepath.Join(dir, a.recs[i].File)
		kept := a.proofs[i].Load().spans != nil
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		changeDate(t, path)
		refused := fmt.Sprintf("day %d: reconstructed census does not match", rec.Day)
		_, dayErr := a.Day(rec.Family, rec.Day)
		_, docErr := a.Document(rec.Family, rec.Day)
		rangeErr := a.RangeJSON(rec.Family, rec.Day, rec.Day, func(int, []byte) error { return nil })
		for _, err := range []error{dayErr, docErr, rangeErr} {
			if err == nil || !strings.Contains(err.Error(), refused) {
				t.Errorf("%s changed, its spans kept: %v: a read fails with %v, want %q", rec.File, kept, err, refused)
			}
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDay is everything the reads of day d on a give: its canonical
// bytes and header, its RangeJSON line and its document, or their
// errors. It then changes the governance block of the header and of the
// document it was handed, which are its own.
func readDay(a *Archive, d int) string {
	var out bytes.Buffer
	c, err := a.Day("ipv4", d)
	if err == nil {
		out.Write(c.Bytes())
		hdr := c.Rows().Header()
		err = json.NewEncoder(&out).Encode(hdr)
		hdr.Responsibility.ProbesSpent++
	}
	fmt.Fprintln(&out, err)
	err = a.RangeJSON("ipv4", d, d, func(_ int, line []byte) error {
		_, err := out.Write(line)
		return err
	})
	fmt.Fprintln(&out, err)
	doc, err := a.Document("ipv4", d)
	if err == nil {
		err = json.NewEncoder(&out).Encode(doc)
		doc.Responsibility.ProbesSpent++
	}
	fmt.Fprintln(&out, err)
	return out.String()
}

// changeDate changes the last digit of the date in the day-file at path,
// which keeps the writer's form and changes the day's canonical bytes.
func changeDate(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(`"2024-03-`))
	if i < 0 {
		t.Fatalf("%s holds no date", path)
	}
	i += len(`"2024-03-`) + 1
	b[i] = '0' + (b[i]-'0'+1)%10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
