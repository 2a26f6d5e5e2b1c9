package archive

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/laces-project/laces/internal/core"
)

// The reference the row walk is held to (walk_test.go), sharing no code
// with it: every day-file decoded whole by encoding/json, and each delta
// merged into the decoded day before with a map of its own.

// RefRange is Range on the reference walk.
func (a *Archive) RefRange(family string, from, to int, fn func(day int, doc *core.Document) error) error {
	first, last, err := a.window(family, from, to)
	if err != nil {
		return err
	}
	return a.refWalk(family, first, last, func(rec Record, doc *core.Document) error {
		return fn(rec.Day, doc)
	})
}

// refWalk decodes the days at positions first..last of the family's
// chain in order and hands each to fn: it rewinds to the snapshot the
// first one derives from, then applies deltas forward (a snapshot met on
// the way simply restarts the chain). Each day-file it reads counts in
// Decodes.
func (a *Archive) refWalk(family string, first, last int, fn func(rec Record, doc *core.Document) error) error {
	if first > last {
		return nil
	}
	idxs := a.byFam[family]
	base := first
	for base > 0 && a.recs[idxs[base]].Kind != KindSnapshot {
		base--
	}
	var doc *core.Document
	for i := base; i <= last; i++ {
		rec := a.recs[idxs[i]]
		if rec.Kind == KindDelta && doc == nil {
			return fmt.Errorf("archive: %s chain starts with a delta (corrupt index)", family)
		}
		a.decodes.Add(1)
		b, err := os.ReadFile(filepath.Join(a.dir, rec.File))
		if err != nil {
			return err
		}
		if rec.Kind == KindSnapshot {
			doc = new(core.Document)
			err = json.Unmarshal(b, doc)
		} else {
			var d core.DocumentDelta
			if err = json.Unmarshal(b, &d); err == nil {
				doc, err = refApply(doc, &d)
			}
		}
		if err != nil {
			return fmt.Errorf("archive: %s: %w", rec.File, err)
		}
		if i >= first {
			if err := fn(rec, doc); err != nil {
				return err
			}
		}
	}
	return nil
}

// refApply merges delta d into the day before, prev: prev's rows keep
// their order, a removed one drops and an upserted one is replaced in
// place; the upserts prev lacks are then inserted in delta order, each
// where a binary search of the rows so far puts it. A day left with no
// rows has nil entries.
func refApply(prev *core.Document, d *core.DocumentDelta) (*core.Document, error) {
	if d.Header.Family != prev.Family {
		return nil, fmt.Errorf("delta for family %q applied to %q", d.Header.Family, prev.Family)
	}
	gone := map[string]bool{}
	for _, p := range d.Removed {
		gone[p] = true
	}
	upsert := map[string]int{}
	for i, e := range d.Upserts {
		upsert[e.Prefix] = i
	}
	out := d.Header
	out.Entries = nil
	for _, e := range prev.Entries {
		if gone[e.Prefix] {
			delete(gone, e.Prefix)
			continue
		}
		if j, ok := upsert[e.Prefix]; ok {
			delete(upsert, e.Prefix)
			e = d.Upserts[j]
		}
		out.Entries = append(out.Entries, e)
	}
	if len(gone) > 0 {
		return nil, fmt.Errorf("delta removes %d prefixes the day before lacks", len(gone))
	}
	for _, e := range d.Upserts {
		if _, ok := upsert[e.Prefix]; ok {
			at := sort.Search(len(out.Entries), func(j int) bool { return core.ComparePrefixStrings(out.Entries[j].Prefix, e.Prefix) >= 0 })
			out.Entries = slices.Insert(out.Entries, at, e)
		}
	}
	return &out, nil
}
