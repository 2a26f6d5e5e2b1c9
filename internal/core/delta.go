package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// This file is the day-over-day half of the published-document codec.
// Consecutive censuses are highly redundant — the paper's persistence
// analysis (Fig 10) shows most prefixes stay anycast day after day — so
// the archive stores a full snapshot every K days and, between snapshots,
// only what changed. Both halves work on a day's stored rows (rows.go):
// DiffRows makes the delta from two days' rows, proven by RowDelta.Apply
// to rebuild the second, so the canonical WriteJSON bytes survive a
// pack/unpack cycle bit-for-bit.

// DocumentDelta is a delta day-file as encoding/json decodes it: the
// form a file outside the writer's is read in, and the form the index
// build reads a delta's changes in (RowDecoder.Delta).
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

// DiffRows returns the delta that rebuilds cur from prev: prev's rows
// whose prefix cur lacks are removed, and cur's rows that prev lacks or
// holds with other bytes are upserted, each in its day's order. Rows are
// matched by prefix, which holds whatever order either day is in (a
// prefix prev holds twice is matched with its last row), and compared
// as sameRow compares them. DiffRows proves the delta before returning
// it: applied to prev, it must give cur's rows (the header is cur's by
// construction), which a day in another than canonical order usually
// does not. The upserts are compacted into cur's arena when the delta is
// written.
func DiffRows(prev, cur *RowDay) (*RowDelta, error) {
	d := &RowDelta{hdr: cur.hdr, arena: cur.arena}
	in := make(map[string]bool, len(cur.rows))
	for _, r := range cur.rows {
		in[r.key.s] = true
	}
	was := make(map[string]*row, len(prev.rows))
	for _, r := range prev.rows {
		was[r.key.s] = r
		if !in[r.key.s] {
			d.removed = append(d.removed, r.key)
		}
	}
	for _, r := range cur.rows {
		if p := was[r.key.s]; p == nil || !sameRow(p, prev.arena, r, cur.arena) {
			d.upserts = append(d.upserts, r)
		}
	}
	back, err := d.Apply(prev)
	if err != nil {
		return nil, fmt.Errorf("core: delta does not apply to the previous day: %w", err)
	}
	if (back.rows == nil) != (cur.rows == nil) || len(back.rows) != len(cur.rows) {
		return nil, errNotRebuilt
	}
	for i, r := range back.rows { // r is cur's i-th row or, unless the proof fails, one of prev's
		if r != cur.rows[i] && !sameRow(r, prev.arena, cur.rows[i], cur.arena) {
			return nil, errNotRebuilt
		}
	}
	return d, nil
}

// sameRow reports whether rows p, of a day split into arena pa, and c,
// of one split into ca, publish the same entry: the same compact JSON,
// where a nil and an empty name list are the same omitted field. Two
// rows stored in one layout, both indented or both compact, are
// compared as stored; otherwise each is compacted, in its own day's
// arena, where it is not compact yet (row.json).
func sameRow(p *row, pa *RowArena, c *row, ca *RowArena) bool {
	if p.raw != nil && c.raw != nil && p.indented == c.indented {
		return bytes.Equal(p.raw, c.raw)
	}
	return bytes.Equal(p.json(&pa.out), c.json(&ca.out))
}

// errNotRebuilt is DiffRows refusing a delta that does not rebuild its day.
var errNotRebuilt = errors.New("core: day does not survive delta encoding — are its entries in canonical numeric prefix order?")

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

// applyRows is the one strict merge of a day's rows with a delta
// (RowDelta.Apply): removed holds the removals' keys. prev's rows keep
// their order, are dropped when removed and replaced in place when
// upserted; the upserts the previous day lacks are then inserted in
// delta order, each where a binary search of the rows so far puts it. It
// is strict: a family mismatch, a removal that names an absent prefix,
// or a prefix the delta names twice (removed twice, upserted twice, or
// both removed and upserted) means the delta does not belong to this
// chain. On a chain the writer made it is one ordered pass (mergeRows).
func applyRows(family, prevFamily string, prev []*row, removed []PrefixKey, upserts []*row) ([]*row, error) {
	if prevFamily != family {
		return nil, fmt.Errorf("core: delta for family %q applied to %q document", family, prevFamily)
	}
	if out, err := mergeRows(prev, removed, upserts); err != errOutOfOrder {
		return out, err
	}
	gone := make(map[string]bool, len(removed))
	for _, k := range removed {
		gone[k.s] = true
	}
	if len(gone) != len(removed) {
		return nil, fmt.Errorf("core: delta removes %q twice", firstRepeat(len(removed), func(i int) string { return removed[i].s }))
	}
	upsert := make(map[string]*row, len(upserts))
	for _, r := range upserts {
		upsert[r.key.s] = r
	}
	if len(upsert) != len(upserts) {
		return nil, fmt.Errorf("core: delta upserts %q twice", firstRepeat(len(upserts), func(i int) string { return upserts[i].key.s }))
	}

	out := make([]*row, 0, len(prev)+len(upserts))
	for _, r := range prev {
		p := r.key.s
		if gone[p] {
			if upsert[p] != nil {
				return nil, fmt.Errorf("core: delta both removes and upserts %q", p)
			}
			delete(gone, p)
			continue
		}
		if u := upsert[p]; u != nil {
			out = append(out, u)
			delete(upsert, p)
			continue
		}
		out = append(out, r)
	}
	for _, k := range removed {
		if gone[k.s] {
			return nil, fmt.Errorf("core: delta removes %q which the previous document does not carry", k.s)
		}
	}
	for _, r := range upserts {
		if upsert[r.key.s] != nil {
			// Genuinely new: inserted at its canonical position.
			at := sort.Search(len(out), func(j int) bool { return out[j].key.order(r.key) >= 0 })
			out = slices.Insert(out, at, r)
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
func mergeRows(prev []*row, rk []PrefixKey, upserts []*row) ([]*row, error) {
	for i := 1; i < len(rk); i++ {
		if rk[i-1].order(rk[i]) >= 0 {
			return nil, errOutOfOrder
		}
	}
	for i := 1; i < len(upserts); i++ {
		if upserts[i-1].key.order(upserts[i].key) >= 0 {
			return nil, errOutOfOrder
		}
	}
	out := make([]*row, 0, len(prev)+len(upserts))
	missing := -1 // the first removal the previous day lacks
	r, u := 0, 0
	var last PrefixKey
	for i, p := range prev {
		pk := p.key
		if i > 0 && last.order(pk) >= 0 {
			return nil, errOutOfOrder
		}
		last = pk
		for ; r < len(rk) && rk[r].order(pk) < 0; r++ {
			if missing < 0 {
				missing = r
			}
		}
		for ; u < len(upserts) && upserts[u].key.order(pk) < 0; u++ {
			out = append(out, upserts[u])
		}
		del := r < len(rk) && rk[r].order(pk) == 0
		up := u < len(upserts) && upserts[u].key.order(pk) == 0
		if del && rk[r].s != pk.s || up && upserts[u].key.s != pk.s {
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
			out = append(out, p)
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
func emptyIsNil(rows []*row) []*row {
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
	out.Responsibility = d.Responsibility.clone()
	return &out
}

// clone returns a copy of r that shares nothing with it; nil stays nil.
func (r *Responsibility) clone() *Responsibility {
	if r == nil {
		return nil
	}
	c := *r
	if r.Screen != nil {
		u := *r.Screen
		c.Screen = &u
	}
	return &c
}
