package archive_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/longitudinal"
	"github.com/laces-project/laces/internal/netsim"
)

// TestDecodeTakesFastPath: every day file the writer produces splits
// into rows on the row split's fast path — no decline to encoding/json —
// and its rows decode to exactly what encoding/json makes of the file.
// The files come from a longitudinal run over both families (its
// incident calendar included) and from the seed × chaos-scenario matrix.
// A splitter that always fell back would pass every other archive test.
func TestDecodeTakesFastPath(t *testing.T) {
	t.Run("longitudinal", func(t *testing.T) {
		w, err := netsim.New(netsim.TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		aw, err := archive.Create(dir, archive.Options{SnapshotEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := longitudinal.Run(w, longitudinal.Config{Days: 281, Stride: 40, Sink: aw}); err != nil {
			t.Fatal(err)
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
		checkFastPath(t, dir, 16)
	})
	matrix(t, func(t *testing.T, seed uint64, sc *chaos.Scenario) {
		days := []int{0, 1, 2, 3}
		docs, _ := runDays(t, seed, sc, days)
		dir := t.TempDir()
		w, err := archive.Create(dir, archive.Options{SnapshotEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i, doc := range docs {
			if err := w.Append(days[i], doc); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		checkFastPath(t, dir, len(days))
	})
}

// checkFastPath scans every day file of the archive in dir, which must
// hold wantDays days of both kinds.
func checkFastPath(t *testing.T, dir string, wantDays int) {
	t.Helper()
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, rec := range a.Records() {
		b, err := os.ReadFile(filepath.Join(dir, rec.File))
		if err != nil {
			t.Fatal(err)
		}
		var got, want any
		var split bool
		var dec core.RowDecoder
		if rec.Kind == archive.KindSnapshot {
			var d *core.RowDay
			d, split = core.ScanDocumentRows(b, new(core.RowArena))
			if split {
				got = dec.Document(d)
			}
			want = &core.Document{}
		} else {
			var d *core.RowDelta
			d, split = core.ScanDeltaRows(b, new(core.RowArena))
			if split {
				got = dec.Delta(d)
			}
			want = &core.DocumentDelta{}
		}
		if !split {
			t.Fatalf("%s: the row split declined a file the writer made", rec.File)
		}
		if err := json.Unmarshal(b, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the rows' decode differs from encoding/json's", rec.File)
		}
		kinds[rec.Kind]++
	}
	if len(a.Records()) != wantDays || kinds[archive.KindSnapshot] == 0 || kinds[archive.KindDelta] == 0 {
		t.Fatalf("archive holds %d days (%v), want %d of both kinds", len(a.Records()), kinds, wantDays)
	}
}
