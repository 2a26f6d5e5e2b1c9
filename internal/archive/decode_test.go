package archive_test

import (
	"bytes"
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
// into rows — no decline to encoding/json — and every row decodes by the
// row grammar to exactly what encoding/json makes of the file.
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

// checkFastPath splits and decodes every day file of the archive in dir,
// which must hold wantDays days of both kinds: each file splits into rows
// (splitsIntoRows), and its rows decode to what encoding/json makes of
// it.
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
		var dec core.RowDecoder
		if rec.Kind == archive.KindSnapshot {
			d, err := core.SplitDocument(b, new(core.RowArena))
			if err != nil {
				t.Fatal(err)
			}
			if got, err = dec.Document(d); err != nil {
				t.Fatalf("%s: %v", rec.File, err)
			}
			want = &core.Document{}
		} else {
			d, err := core.SplitDelta(b, new(core.RowArena))
			if err != nil {
				t.Fatal(err)
			}
			if got, err = dec.Delta(d); err != nil {
				t.Fatalf("%s: %v", rec.File, err)
			}
			want = &core.DocumentDelta{}
		}
		if bytes.Contains(b, originASN) && !splitsIntoRows(t, rec, b) {
			t.Fatalf("%s: the split left a file the writer made to encoding/json", rec.File)
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

// originASN is the key every row carries.
var originASN = []byte(`"origin_asn":`)

// splitsIntoRows reports whether the split takes rec's day-file b into
// rows, each decoded by the row grammar, rather than leaving the file to
// encoding/json. The split finds rows or declines the file whatever the
// rows hold, so b tells it by a copy with a space after each
// `"origin_asn":`, which encoding/json takes and the grammar refuses: the
// copy's rows fail to decode exactly when the split took them. b must
// hold a row.
func splitsIntoRows(t *testing.T, rec archive.Record, b []byte) bool {
	t.Helper()
	spaced := bytes.ReplaceAll(b, originASN, []byte(`"origin_asn": `))
	if len(spaced) == len(b) {
		t.Fatalf("%s holds no row", rec.File)
	}
	var err error
	if rec.Kind == archive.KindSnapshot {
		d, serr := core.SplitDocument(spaced, new(core.RowArena))
		if serr != nil {
			t.Fatal(serr)
		}
		_, err = new(core.RowDecoder).Document(d)
	} else {
		d, serr := core.SplitDelta(spaced, new(core.RowArena))
		if serr != nil {
			t.Fatal(serr)
		}
		_, err = new(core.RowDecoder).Delta(d)
	}
	return err != nil
}
