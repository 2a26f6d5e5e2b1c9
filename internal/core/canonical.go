package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
)

// This file is a census day in the form it is published and served in:
// its canonical bytes, exactly what WriteJSON writes for its document,
// and its rows, which alias them. It is the one day form from writer to
// server: the archive writer streams each day into it and diffs the next
// day against its rows; the archive reader rebuilds a day into it from a
// chain of stored rows (RowDay.Canonical), with no row decoded and none
// re-encoded; and the server caches it, writing the bytes as they are
// and decoding only the row a lookup asks for.

// CanonicalDay is one census day as its canonical bytes and the rows
// that alias them. Bytes, Rows' Find and Header change nothing, so a day
// built once may be shared by concurrent readers; DiffRows compacts the
// rows it is handed in place and is for the day's one owner.
type CanonicalDay struct {
	b     []byte
	day   *RowDay
	arena RowArena
}

// Bytes returns the day's canonical bytes. They must not be changed.
func (c *CanonicalDay) Bytes() []byte { return c.b }

// Rows returns the day as rows that alias its bytes.
func (c *CanonicalDay) Rows() *RowDay { return c.day }

// Stream makes c, over what it held, doc's day: it appends doc's
// canonical bytes (appendDocument) into c's buffer and splits them.
func (c *CanonicalDay) Stream(doc *Document) error {
	b, err := appendDocument(c.b[:0], doc, nil)
	if err != nil {
		return fmt.Errorf("core: streaming day: %w", err)
	}
	c.b = b
	return c.split()
}

// NewCanonicalDay makes a day of b, which it keeps, split into rows that
// alias it: a reader hands out a day-file's bytes as they are.
func NewCanonicalDay(b []byte) (*CanonicalDay, error) {
	c := &CanonicalDay{b: b}
	if err := c.split(); err != nil {
		return nil, err
	}
	return c, nil
}

// split splits c's bytes into c's arena.
func (c *CanonicalDay) split() (err error) {
	c.arena.Reset()
	if c.day, err = SplitDocument(c.b, &c.arena); err != nil {
		return fmt.Errorf("core: splitting day: %w", err)
	}
	return nil
}

// Canonical returns the day in canonical form, in buffers of its own:
// the bytes WriteJSON writes for the document RowDecoder.Document makes
// of d, appended from d's rows with nothing decoded — a snapshot's row
// copied as stored, a delta's compact row re-indented (appendIndented),
// a row that holds its entry (the fallback decoded it) appended from the
// entry — and the rows that alias them. size is the length the bytes are
// expected to have, which sizes their buffer up to what d's rows can
// come to (lenBound), so that a size read from an untrusted record
// allocates no more than the day. d is only read.
func (d *RowDay) Canonical(size int) (*CanonicalDay, error) {
	var rows []row
	var ptrs []*row
	if d.rows != nil {
		rows, ptrs = make([]row, len(d.rows)), make([]*row, len(d.rows))
	}
	b, start, err := d.appendCanonical(make([]byte, 0, d.sizeFor(size)), rows)
	if err != nil {
		return nil, err
	}
	for i := range rows { // b has stopped growing: each row's raw, so far only its length, aliases it
		r := &rows[i]
		start += len(",\n" + entryElementIndent)
		end := start + len(r.raw)
		if r.raw = b[start:end:end]; r.entry != nil {
			r.raw = nil // its bytes may hold escapes, which a row's raw never does
		}
		start = end
		ptrs[i] = r
	}
	c := &CanonicalDay{b: b}
	c.day = &RowDay{hdr: d.hdr, rows: ptrs, arena: &c.arena}
	return c, nil
}

// AppendCanonical appends the day's canonical bytes, as Canonical makes
// them, to b, first growing b as Canonical sizes its buffer for size: a
// reader that only checks the bytes rebuilds them into a buffer it
// reuses.
func (d *RowDay) AppendCanonical(b []byte, size int) ([]byte, error) {
	b, _, err := d.appendCanonical(slices.Grow(b, d.sizeFor(size)), nil)
	return b, err
}

// sizeFor is the room Canonical makes for a day expected to be size
// bytes long: size, within what d's rows can come to (lenBound).
func (d *RowDay) sizeFor(size int) int { return min(max(size, 0), d.lenBound()) }

// appendCanonical appends the day's canonical bytes to b and returns
// them and where its rows start. With rows, each rows[i] is set to d's
// i-th row with its raw the bytes appended for it.
func (d *RowDay) appendCanonical(b []byte, rows []row) ([]byte, int, error) {
	b, err := appendHeader(b, &d.hdr, true)
	if err != nil {
		return b, 0, err
	}
	start := len(b)
	for i, r := range d.rows {
		b = appendEntrySep(b, i)
		n := len(b)
		switch {
		case r.entry != nil:
			b = appendEntry(b, r.entry, &indentLayout)
		case r.indented:
			b = append(b, r.raw...)
		default:
			b = appendIndented(b, r.raw)
		}
		if rows != nil {
			rows[i] = row{key: r.key, entry: r.entry, raw: b[n:], indented: r.entry == nil}
		}
	}
	return appendDocumentEnd(b, len(d.rows), d.rows != nil), start, nil
}

// lenBound is a length d's canonical bytes stay within unless its header
// or a row that holds its entry is unusually long: an allowance for the
// header, and per row its separator and its bytes as stored, four times
// a compact row's (re-indenting one at most about triples it), or an
// allowance for a row encoded from its entry. Past it, Canonical's
// buffer grows as append grows it.
func (d *RowDay) lenBound() int {
	n := 4 << 10
	for _, r := range d.rows {
		switch {
		case r.entry != nil:
			n += 1 << 10
		case r.indented:
			n += len(r.raw)
		default:
			n += 4 * len(r.raw)
		}
		n += len(",\n" + entryElementIndent)
	}
	return n
}

// appendIndented appends a compact row in the indented layout: the
// inverse of appendCompact. The row's strings are plain, so none holds a
// '"' and each is copied through to its closing quote; outside them the
// layout's whitespace follows '{' and '[' and each ',' and comes before
// ']' and '}', and a space follows each ':'.
func appendIndented(b, raw []byte) []byte {
	l := &indentLayout
	inList := false
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; c {
		case '"':
			end := bytes.IndexByte(raw[i+1:], '"')
			if end < 0 {
				return append(b, raw[i:]...)
			}
			b = append(b, raw[i:i+end+2]...)
			i += end + 1
		case '{':
			b = append(append(b, c), l.member...)
		case '[':
			b, inList = append(append(b, c), l.elem...), true
		case ']':
			b, inList = append(append(b, l.member...), c), false
		case '}':
			b = append(append(b, l.end...), c)
		case ',':
			if inList {
				b = append(append(b, c), l.elem...)
			} else {
				b = append(append(b, c), l.member...)
			}
		case ':':
			b = append(b, l.colon...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// Header returns the day's header: its document without entries.
func (d *RowDay) Header() Document { return d.hdr }

// Len returns the number of the day's rows: its entry count.
func (d *RowDay) Len() int { return len(d.rows) }

// Find returns the day's row for prefix, decoded into a new entry, or
// false when the day does not carry it: Document.Find's binary search,
// over the rows' keys. A row outside the row grammar is an error. Nothing
// in d is filled in, so readers may share d.
func (d *RowDay) Find(prefix string) (DocumentEntry, bool, error) {
	k := ParsePrefixKey(prefix)
	i := sort.Search(len(d.rows), func(i int) bool { return d.rows[i].key.order(k) >= 0 })
	if i == len(d.rows) || d.rows[i].key.s != prefix {
		return DocumentEntry{}, false, nil
	}
	r := d.rows[i]
	if r.entry != nil {
		return *r.entry, true, nil
	}
	var e DocumentEntry
	if err := new(RowDecoder).row(r, &e); err != nil { // one row: no name is interned
		return DocumentEntry{}, false, err
	}
	return e, true, nil
}
