package core

import (
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
	if prev.Family != d.Header.Family {
		return nil, fmt.Errorf("core: delta for family %q applied to %q document", d.Header.Family, prev.Family)
	}
	removed := make(map[string]bool, len(d.Removed))
	for _, p := range d.Removed {
		removed[p] = true
	}
	if len(removed) != len(d.Removed) {
		return nil, fmt.Errorf("core: delta removes %q twice", firstRepeat(len(d.Removed), func(i int) string { return d.Removed[i] }))
	}
	upsert := make(map[string]*DocumentEntry, len(d.Upserts))
	for i := range d.Upserts {
		upsert[d.Upserts[i].Prefix] = &d.Upserts[i]
	}
	if len(upsert) != len(d.Upserts) {
		return nil, fmt.Errorf("core: delta upserts %q twice", firstRepeat(len(d.Upserts), func(i int) string { return d.Upserts[i].Prefix }))
	}

	out := *d.Header.DeepCopy()
	out.Entries = make([]DocumentEntry, 0, len(prev.Entries)+len(d.Upserts))

	// Walk the previous day in canonical order: drop removals, replace
	// changed rows in place. Entries only present today are collected and
	// merged afterwards — on a typical day there are few or none, which
	// keeps the per-day apply cost close to a copy.
	for i := range prev.Entries {
		p := prev.Entries[i].Prefix
		if removed[p] {
			if _, ok := upsert[p]; ok {
				return nil, fmt.Errorf("core: delta both removes and upserts %q", p)
			}
			delete(removed, p)
			continue
		}
		if ue, ok := upsert[p]; ok {
			out.Entries = append(out.Entries, *ue)
			delete(upsert, p)
			continue
		}
		out.Entries = append(out.Entries, prev.Entries[i])
	}
	if len(removed) > 0 {
		for p := range removed {
			return nil, fmt.Errorf("core: delta removes %q which the previous document does not carry", p)
		}
	}
	if len(upsert) > 0 {
		// Genuinely new prefixes: insert each at its canonical position.
		for i := range d.Upserts {
			e := &d.Upserts[i]
			if _, ok := upsert[e.Prefix]; !ok {
				continue
			}
			out.Entries = slices.Insert(out.Entries, searchEntries(out.Entries, e.Prefix), *e)
		}
	}
	if len(out.Entries) == 0 {
		// A zero-entry day must reconstruct with nil entries: the
		// census publishes `"entries": null`, and the codec (like
		// encoding/json) writes `[]` for an empty non-nil slice. A day
		// published with `[]` therefore cannot be a delta day; the
		// archive's round-trip proof refuses it.
		out.Entries = nil
	}
	return &out, nil
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
