package archive

import (
	"fmt"

	"github.com/laces-project/laces/internal/core"
)

// The walk the archive ran before it rebuilt days from stored rows, kept
// as the reference the row walk is held to (walk_test.go): every
// day-file decoded whole by ReadDay, and each delta applied to the
// decoded day before with DocumentDelta.Apply.

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
// the way simply restarts the chain).
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
		switch snap, delta, err := a.ReadDay(rec); {
		case err != nil:
			return err
		case snap != nil:
			doc = snap
		default:
			if doc, err = delta.Apply(doc); err != nil {
				return fmt.Errorf("archive: %s: %w", rec.File, err)
			}
		}
		if i >= first {
			if err := fn(rec, doc); err != nil {
				return err
			}
		}
	}
	return nil
}
