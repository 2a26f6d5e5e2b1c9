package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// This file is the day-over-day half of the published-document codec.
// Consecutive censuses are highly redundant — the paper's persistence
// analysis (Fig 10) shows most prefixes stay anycast day after day — so
// the archive stores a full snapshot every K days and, between snapshots,
// only what changed. A DocumentDelta applied to the previous day's
// document reproduces the next day's Document exactly, so the canonical
// WriteJSON bytes survive a pack/unpack cycle bit-for-bit.

// DocumentDelta is the difference between two consecutive published
// census documents of the same family.
type DocumentDelta struct {
	// Header carries the new day's scalar fields (Entries stays nil):
	// counts change daily even when no entry does.
	Header Document `json:"header"`
	// Removed lists prefixes present the previous day and gone today, in
	// canonical order.
	Removed []string `json:"removed,omitempty"`
	// Upserts carries every entry that is new or changed today, in
	// canonical order.
	Upserts []DocumentEntry `json:"upserts,omitempty"`
}

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

// searchEntries returns the position of the first entry ordered at or
// after prefix — where the prefix sits, or where it would be inserted.
// Entries must be in canonical order.
func searchEntries(entries []DocumentEntry, prefix string) int {
	return sort.Search(len(entries), func(i int) bool {
		return ComparePrefixStrings(entries[i].Prefix, prefix) >= 0
	})
}

// Find returns the document's row for prefix, or nil when the day does
// not carry it: a binary search over the canonical entry order every
// published document is in (Document(), the archive's delta chain). The
// row points into Entries.
func (d *Document) Find(prefix string) *DocumentEntry {
	if i := searchEntries(d.Entries, prefix); i < len(d.Entries) && d.Entries[i].Prefix == prefix {
		return &d.Entries[i]
	}
	return nil
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
	entries, err := applyRows(d.Header.Family, prev.Family, prev.Entries, removed, d.Upserts, upserted,
		func(e *DocumentEntry) PrefixKey { return ParsePrefixKey(e.Prefix) })
	if err != nil {
		return nil, err
	}
	out := d.Header.DeepCopy()
	out.Entries = entries
	return out, nil
}

// applyRows is the one strict merge of a day's rows with a delta, for
// decoded entries (DocumentDelta.Apply) and for stored rows
// (RowDelta.Apply) alike; removed holds the removals' keys, uk the
// upserts' and key returns a previous row's. prev's rows keep their order, are dropped when
// removed and replaced in place when upserted; the upserts the previous
// day lacks are then inserted in delta order, each where a binary
// search of the rows so far puts it. On a chain the writer made that is
// one ordered pass (mergeRows).
func applyRows[R any](family, prevFamily string, prev []R, removed []PrefixKey, upserts []R, uk []PrefixKey, key func(*R) PrefixKey) ([]R, error) {
	if prevFamily != family {
		return nil, fmt.Errorf("core: delta for family %q applied to %q document", family, prevFamily)
	}
	if out, err := mergeRows(prev, removed, upserts, uk, key); err != errOutOfOrder {
		return out, err
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
	return emptyIsNil(out), nil
}

// mergeRows is applyRows as one ordered pass. It applies when the
// previous day's rows, the removals and the upserts each strictly ascend
// and no two distinct prefixes tie (as "::1/128" and "0::1/128" do):
// then nothing is named twice, a removal or upsert matches the one row
// the pass meets it at, and a new row's binary-search position is where
// the pass meets it. Otherwise it returns errOutOfOrder.
func mergeRows[R any](prev []R, rk []PrefixKey, upserts []R, uk []PrefixKey, key func(*R) PrefixKey) ([]R, error) {
	for i := 1; i < len(rk); i++ {
		if rk[i-1].order(rk[i]) >= 0 {
			return nil, errOutOfOrder
		}
	}
	for i := 1; i < len(uk); i++ {
		if uk[i-1].order(uk[i]) >= 0 {
			return nil, errOutOfOrder
		}
	}
	out := make([]R, 0, len(prev)+len(upserts))
	missing := -1 // the first removal the previous day lacks
	r, u := 0, 0
	var last PrefixKey
	for i := range prev {
		pk := key(&prev[i])
		if i > 0 && last.order(pk) >= 0 {
			return nil, errOutOfOrder
		}
		last = pk
		for ; r < len(rk) && rk[r].order(pk) < 0; r++ {
			if missing < 0 {
				missing = r
			}
		}
		for ; u < len(uk) && uk[u].order(pk) < 0; u++ {
			out = append(out, upserts[u])
		}
		del := r < len(rk) && rk[r].order(pk) == 0
		up := u < len(uk) && uk[u].order(pk) == 0
		if del && rk[r].s != pk.s || up && uk[u].s != pk.s {
			return nil, errOutOfOrder
		}
		switch {
		case del && up:
			return nil, fmt.Errorf("core: delta both removes and upserts %q", pk.s)
		case del:
			r++
		case up:
			out = append(out, upserts[u])
			u++
		default:
			out = append(out, prev[i])
		}
	}
	if r < len(rk) && missing < 0 {
		missing = r
	}
	if missing >= 0 {
		return nil, fmt.Errorf("core: delta removes %q which the previous document does not carry", rk[missing].s)
	}
	return emptyIsNil(append(out, upserts[u:]...)), nil
}

// errOutOfOrder is mergeRows declining a merge it cannot do in one pass.
var errOutOfOrder = errors.New("core: rows out of canonical order")

// emptyIsNil returns nil for no rows. A zero-entry day must reconstruct
// with nil entries: the census publishes `"entries": null`, and the
// codec (like encoding/json) writes `[]` for an empty non-nil slice. A
// day published with `[]` therefore cannot be a delta day; the
// archive's round-trip proof refuses it.
func emptyIsNil[R any](rows []R) []R {
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// firstRepeat returns the first of n names that repeats an earlier one.
func firstRepeat(n int, name func(i int) string) string {
	seen := make(map[string]bool, n)
	for i := range n {
		if seen[name(i)] {
			return name(i)
		}
		seen[name(i)] = true
	}
	return ""
}

// DeepCopy clones the document so a derived day can be mutated without
// aliasing its predecessor (entry slices of unchanged rows still share
// backing arrays with the delta chain's inputs; entries themselves are
// values).
func (d *Document) DeepCopy() *Document {
	out := *d
	if d.Entries != nil {
		out.Entries = slices.Clone(d.Entries)
	}
	if d.Responsibility != nil {
		r := *d.Responsibility
		out.Responsibility = &r
	}
	return &out
}
