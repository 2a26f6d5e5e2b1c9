package core

import (
	"fmt"
	"slices"
	"sort"
)

// The document-level delta the archive writer diffed days with before
// it diffed their stored rows, kept as the reference DiffRows is held to
// (FuzzEncodeDocument) and the row merge is held to (TestDeltaStrictness,
// TestDeltaNamesEachPrefixOnce, FuzzSplitDelta). DiffDocuments,
// entryEqual and Apply are as they were; refApplyRows is the merge Apply
// ran, in the form it took when the rows were out of canonical order,
// which its ordered pass was held to.

// entryEqual reports whether two published rows are identical. Nil and
// empty slices compare equal — under omitempty they encode identically,
// so the distinction cannot survive a JSON round-trip anyway.
func entryEqual(a, b *DocumentEntry) bool {
	return a.Prefix == b.Prefix &&
		a.OriginASN == b.OriginASN &&
		slices.Equal(a.ACProtocols, b.ACProtocols) &&
		a.MaxReceivers == b.MaxReceivers &&
		a.FromFeedback == b.FromFeedback &&
		a.GCDMeasured == b.GCDMeasured &&
		a.GCDAnycast == b.GCDAnycast &&
		a.GCDSites == b.GCDSites &&
		slices.Equal(a.GCDCities, b.GCDCities) &&
		a.GCDVPs == b.GCDVPs &&
		a.PartialAnycast == b.PartialAnycast &&
		a.GlobalBGP == b.GlobalBGP
}

// DiffDocuments computes the delta that transforms prev into cur. Both
// documents must be in canonical entry order (as Document() produces).
func DiffDocuments(prev, cur *Document) *DocumentDelta {
	d := &DocumentDelta{Header: *cur}
	d.Header.Entries = nil

	curBy := make(map[string]*DocumentEntry, len(cur.Entries))
	for i := range cur.Entries {
		curBy[cur.Entries[i].Prefix] = &cur.Entries[i]
	}
	prevBy := make(map[string]*DocumentEntry, len(prev.Entries))
	for i := range prev.Entries {
		e := &prev.Entries[i]
		prevBy[e.Prefix] = e
		if _, ok := curBy[e.Prefix]; !ok {
			d.Removed = append(d.Removed, e.Prefix)
		}
	}
	for i := range cur.Entries {
		e := &cur.Entries[i]
		if pe, ok := prevBy[e.Prefix]; !ok || !entryEqual(pe, e) {
			d.Upserts = append(d.Upserts, *e)
		}
	}
	return d
}

// Apply reconstructs the new day's document from the previous day's. It
// is strict: a family mismatch, a removal that names an absent prefix,
// or a prefix the delta names twice (removed twice, upserted twice, or
// both removed and upserted) means the delta does not belong to this
// document chain.
func (d *DocumentDelta) Apply(prev *Document) (*Document, error) {
	removed := make([]PrefixKey, len(d.Removed))
	for i, p := range d.Removed {
		removed[i] = ParsePrefixKey(p)
	}
	upserted := make([]PrefixKey, len(d.Upserts))
	for i := range d.Upserts {
		upserted[i] = ParsePrefixKey(d.Upserts[i].Prefix)
	}
	entries, err := refApplyRows(d.Header.Family, prev.Family, prev.Entries, removed, d.Upserts, upserted,
		func(e *DocumentEntry) PrefixKey { return ParsePrefixKey(e.Prefix) })
	if err != nil {
		return nil, err
	}
	out := d.Header.DeepCopy()
	out.Entries = entries
	return out, nil
}

// refApplyRows merges a delta into a day's rows: removed holds the
// removals' keys, uk the upserts' and key returns a previous row's.
// prev's rows keep their order, are dropped when removed and replaced in
// place when upserted; the upserts the previous day lacks are then
// inserted in delta order, each where a binary search of the rows so
// far puts it.
func refApplyRows[R any](family, prevFamily string, prev []R, removed []PrefixKey, upserts []R, uk []PrefixKey, key func(*R) PrefixKey) ([]R, error) {
	if prevFamily != family {
		return nil, fmt.Errorf("core: delta for family %q applied to %q document", family, prevFamily)
	}
	gone := make(map[string]bool, len(removed))
	for _, k := range removed {
		gone[k.s] = true
	}
	if len(gone) != len(removed) {
		return nil, fmt.Errorf("core: delta removes %q twice", firstRepeat(len(removed), func(i int) string { return removed[i].s }))
	}
	upsert := make(map[string]int, len(upserts))
	for i := range upserts {
		upsert[uk[i].s] = i
	}
	if len(upsert) != len(upserts) {
		return nil, fmt.Errorf("core: delta upserts %q twice", firstRepeat(len(upserts), func(i int) string { return uk[i].s }))
	}

	out := make([]R, 0, len(prev)+len(upserts))
	for i := range prev {
		p := key(&prev[i]).s
		if gone[p] {
			if _, ok := upsert[p]; ok {
				return nil, fmt.Errorf("core: delta both removes and upserts %q", p)
			}
			delete(gone, p)
			continue
		}
		if j, ok := upsert[p]; ok {
			out = append(out, upserts[j])
			delete(upsert, p)
			continue
		}
		out = append(out, prev[i])
	}
	for _, k := range removed {
		if gone[k.s] {
			return nil, fmt.Errorf("core: delta removes %q which the previous document does not carry", k.s)
		}
	}
	for i := range upserts {
		if _, ok := upsert[uk[i].s]; ok {
			// Genuinely new: inserted at its canonical position.
			k := uk[i]
			at := sort.Search(len(out), func(j int) bool { return key(&out[j]).order(k) >= 0 })
			out = slices.Insert(out, at, upserts[i])
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
