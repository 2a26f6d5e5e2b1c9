package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"unicode/utf8"
	"unsafe"
)

// This file holds a census day as its stored rows, the one form every
// day takes in the archive: each row is a prefix plus the row's bytes as
// the day-file carries them. The writer splits a day's canonical bytes
// into rows and diffs them against the day before's (DiffRows); readers
// rebuild a chain of day-files with one merge per delta and nothing
// decoded, and decode only the rows they hand out (RowDecoder).
//
// A day-file is split one way (SplitDocument, SplitDelta): the split
// finds each row's extent and parses its prefix into its PrefixKey, so
// the merge parses nothing, and checks no other field (rowSpan). It stays
// within bounds on any input. A file it cannot find rows in — one that
// holds a backslash in a row, or is not shaped as a day-file — is decoded
// whole by encoding/json. Row bytes alias the file read; prefix strings
// and decoded entries are copies. The same split can keep what it finds
// as it finds it (SplitSpans): the header, each row's key and byte range,
// a delta's removals (Spans), from which Spans.Rows rebuilds the split
// over the same bytes without scanning them, for a reader that knows
// them unchanged.
//
// A row has one grammar, and it is a table: rowFields lists
// DocumentEntry's twelve fields in struct order with each value's form,
// and a rowLayout holds, per layout, the whitespace that makes up each
// field's key literal (`,"origin_asn":` compact, `,\n      "origin_asn": `
// indented) and each name's bytes as words to match it with. The grammar
// is checked where a row is decoded: RowDecoder walks the table once in
// the row's own layout (rowLayout.keyAt), checking each field and filling
// the entry, and a row outside the grammar is an error. A row is in it
// only in the exact form the entry appender writes it (compact in a
// delta, indented in a snapshot): every field behind its key literal in
// that order, an omitempty field only when set, each value in the
// appender's form, and the row's '}' right after the last. Each name list
// is stepped over in one loop, eight bytes at a time. That exactness is
// what makes a row's bytes its canonical encoding: copied, or stripped of
// the snapshot's indentation, they are what AppendJSON writes for the
// decoded row. Nothing else needs the grammar checked before it copies a
// row: a reader proves each day against its record first (the archive's
// walk), and the writer splits bytes it has just encoded.

// RowDay is one census day as stored rows in document order, and its
// header. Its rows are shared with the days rebuilt from it, and so is
// the arena they were split into.
type RowDay struct {
	hdr   Document // Entries nil
	rows  []*row   // nil for `"entries": null`
	arena *RowArena
}

// RowArena is where a chain of split days keeps its rows and the bytes
// AppendJSON compacts them to. A reader hands every split of a chain the
// same arena, empties it (Reset) where a snapshot restarts the chain, as
// no row of the days before is read again, and may reuse it for another
// chain once nothing split into it is read any more.
type RowArena struct {
	out    []byte // rows compacted or encoded for AppendJSON
	rows   []row
	ptrs   []*row
	keys   []PrefixKey // deltas' removals
	prefix []byte      // scratch: a file's prefixes, before they become one string
	ends   []int       // scratch: where each of them ends
}

// Reset empties the arena for a new chain.
func (a *RowArena) Reset() {
	a.out, a.rows, a.ptrs, a.keys = a.out[:0], a.rows[:0], a.ptrs[:0], a.keys[:0]
}

// RowDelta is one delta day-file split into rows, or a delta DiffRows
// made. Its upserts are compacted into arena when they are written.
type RowDelta struct {
	hdr     Document // Entries nil
	removed []PrefixKey
	upserts []*row
	arena   *RowArena
}

// row is one published row, its prefix parsed. A split row holds its
// bytes and a decoded one its entry; the other is filled in when first
// needed and kept for every day that carries the row.
type row struct {
	key      PrefixKey      // key.s is the prefix
	indented bool           // raw is a snapshot's indented form
	raw      []byte         // the row's JSON; nil until encoded
	entry    *DocumentEntry // nil until decoded
}

// json returns the row as compact JSON: its stored bytes, or, the first
// time, those bytes stripped of a snapshot's indentation or the row
// encoded from its entry, appended to out.
func (r *row) json(out *[]byte) []byte {
	if r.raw != nil && !r.indented {
		return r.raw
	}
	n := len(*out)
	if r.raw == nil {
		*out = appendEntry(*out, r.entry, &compactLayout)
	} else {
		*out = appendCompact(*out, r.raw)
	}
	r.raw, r.indented = (*out)[n:], false
	return r.raw
}

// SplitDocument splits a snapshot day-file into its rows, into the
// chain's arena a. A file the split cannot find rows in is decoded whole
// by encoding/json.
func SplitDocument(b []byte, a *RowArena) (*RowDay, error) {
	d, _, err := splitDocument(b, a, nil)
	return d, err
}

// SplitDelta splits a delta day-file into its rows, into the chain's
// arena a, as SplitDocument splits a snapshot.
func SplitDelta(b []byte, a *RowArena) (*RowDelta, error) {
	d, _, err := splitDelta(b, a, nil)
	return d, err
}

// SplitSpans splits the day-file b as SplitDelta (delta) or
// SplitDocument does, into arena a, and keeps the split as Spans over b
// in the same pass: nil where the file is decoded whole, or too long for
// a span's offsets.
func SplitSpans(b []byte, delta bool, a *RowArena) (*RowDay, *RowDelta, *Spans, error) {
	var keep *Spans
	if uint64(len(b)) <= math.MaxUint32 {
		keep = &Spans{delta: delta}
	}
	if delta {
		d, sp, err := splitDelta(b, a, keep)
		return nil, d, sp, err
	}
	d, sp, err := splitDocument(b, a, keep)
	return d, nil, sp, err
}

// splitDocument is SplitDocument, which with keep also fills keep with
// the split and returns it.
func splitDocument(b []byte, a *RowArena, keep *Spans) (*RowDay, *Spans, error) {
	s := newScanner(b)
	var rows []*row
	if hdr, ok := s.document(func() { rows = s.storedRows(indentRows, a, keep) }); ok {
		return &RowDay{hdr: *hdr, rows: rows, arena: a}, keep.with(hdr, nil), nil
	}
	var doc Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("core: decoding census document: %w", err)
	}
	d := &RowDay{hdr: doc, rows: decodedRows(doc.Entries), arena: a}
	d.hdr.Entries = nil
	return d, nil, nil
}

// splitDelta is SplitDelta, as splitDocument is SplitDocument.
func splitDelta(b []byte, a *RowArena, keep *Spans) (*RowDelta, *Spans, error) {
	s := newScanner(b)
	d := &RowDelta{arena: a}
	if s.delta(&d.hdr, func() { d.removed = s.removedKeys(a) }, func() { d.upserts = s.storedRows(compactRows, a, keep) }) {
		d.hdr.Entries = nil
		return d, keep.with(&d.hdr, d.removed), nil
	}
	var dd DocumentDelta
	if err := json.Unmarshal(b, &dd); err != nil {
		return nil, nil, fmt.Errorf("core: decoding census delta: %w", err)
	}
	d = &RowDelta{hdr: dd.Header, removed: prefixKeys(dd.Removed), upserts: decodedRows(dd.Upserts), arena: a}
	d.hdr.Entries = nil
	return d, nil, nil
}

// Spans is a day-file's split kept over the file's bytes: the header
// encoding/json decoded, each row's parsed key and the extent of its
// bytes, and a delta's removals. Rows rebuilds the split from the same
// bytes with nothing scanned, parsed or decoded, so a reader that keeps
// a file's Spans and knows the file unchanged splits it once. Spans
// share nothing a split or a rebuild hands out that a reader may change,
// and are not changed once made, so concurrent rebuilds may share them.
type Spans struct {
	hdr      Document    // Entries nil; its Responsibility block is its own
	rows     []span      // a snapshot's entries or a delta's upserts; nil for none
	prefixes string      // the rows' prefixes, one after another
	removed  []PrefixKey // a delta's
	delta    bool
	size     int // bytes held, for a budget
}

// span is one row of Spans: its key, its prefix string's end in the
// spans' prefixes (it starts where the row before's ends), and where the
// row's bytes lie in the file. It holds no pointer, so the garbage
// collector neither scans a kept split's rows nor bars writes to them.
type span struct {
	hi, lo          uint64 // the key's
	start, end, pre uint32
	rank, bits      uint8 // the key's
}

// with completes the split's spans k with the header and a delta's
// removals, copied, and sizes them. k may be nil, which keeps nothing.
func (k *Spans) with(hdr *Document, removed []PrefixKey) *Spans {
	if k == nil {
		return nil
	}
	k.hdr = ownHeader(hdr)
	if removed != nil {
		k.removed = append(make([]PrefixKey, 0, len(removed)), removed...)
	}
	k.size += int(unsafe.Sizeof(*k)) + int(unsafe.Sizeof(PrefixKey{}))*len(removed)
	for _, r := range removed {
		k.size += len(r.s)
	}
	return k
}

// Size is about the bytes the spans hold: their rows, prefix strings and
// removals.
func (k *Spans) Size() int { return k.size }

// Rows rebuilds the split the spans were kept from, over b, the bytes of
// the same file, into arena a: a snapshot's day or a delta, as the file
// is, with the rows' bytes aliasing b and a header of its own.
func (k *Spans) Rows(b []byte, a *RowArena) (*RowDay, *RowDelta) {
	var rows []*row
	if k.rows != nil {
		rs, pre := a.take(len(k.rows)), uint32(0)
		for i, sp := range k.rows {
			key := PrefixKey{hi: sp.hi, lo: sp.lo, rank: sp.rank, bits: sp.bits, s: k.prefixes[pre:sp.pre]}
			rs[i], pre = row{key: key, indented: !k.delta, raw: b[sp.start:sp.end]}, sp.pre
		}
		rows = a.pointers(rs)
	}
	if k.delta {
		return nil, &RowDelta{hdr: ownHeader(&k.hdr), removed: k.removed, upserts: rows, arena: a}
	}
	return &RowDay{hdr: ownHeader(&k.hdr), rows: rows, arena: a}, nil
}

// ownHeader returns a copy of hdr with a Responsibility block of its
// own.
func ownHeader(hdr *Document) Document {
	h := *hdr
	h.Responsibility = hdr.Responsibility.clone()
	return h
}

// decodedRows holds entries a decoder made as rows. nil stays nil and
// empty stays empty.
func decodedRows(es []DocumentEntry) []*row {
	if es == nil {
		return nil
	}
	rows := make([]row, len(es))
	out := make([]*row, len(es))
	for i := range es {
		rows[i] = row{key: ParsePrefixKey(es[i].Prefix), entry: &es[i]}
		out[i] = &rows[i]
	}
	return out
}

// removedKeys reads a delta's removals, an array of strings with no
// escape, and keys them, into arena a, their strings carved from one.
func (s *scanner) removedKeys(a *RowArena) []PrefixKey {
	s.expect('[')
	if s.peek() == ']' {
		s.i++
		return []PrefixKey{}
	}
	first := len(a.keys)
	prefixes, ends := a.prefix[:0], a.ends[:0]
	for s.ok {
		r := s.raw()
		prefixes = append(prefixes, r...)
		ends = append(ends, len(prefixes))
		a.keys = append(a.keys, PrefixKey{})
		if end, ok := prefixKeyAt(r, 0, &a.keys[len(a.keys)-1]); !ok || end != len(r) {
			a.keys[len(a.keys)-1] = PrefixKey{} // ParsePrefixKey parses it below
		}
		if !s.more(']') {
			break
		}
	}
	a.prefix, a.ends = prefixes, ends
	keys := a.keys[first:len(a.keys):len(a.keys)]
	all, start := string(prefixes), 0
	for i := range keys {
		k := &keys[i]
		if k.s, start = all[start:ends[i]], ends[i]; k.rank == 0 {
			*k = ParsePrefixKey(k.s)
		}
	}
	return keys
}

// prefixKeys parses a delta's removals. nil stays nil.
func prefixKeys(ps []string) []PrefixKey {
	if ps == nil {
		return nil
	}
	keys := make([]PrefixKey, len(ps))
	for i, p := range ps {
		keys[i] = ParsePrefixKey(p)
	}
	return keys
}

// Apply rebuilds the new day from the previous one (applyRows): the
// merged rows, or the error that says why the delta does not belong to
// the chain.
func (d *RowDelta) Apply(prev *RowDay) (*RowDay, error) {
	rows, err := applyRows(d.hdr.Family, prev.hdr.Family, prev.rows, d.removed, d.upserts)
	if err != nil {
		return nil, err
	}
	return &RowDay{hdr: d.hdr, rows: rows, arena: prev.arena}, nil
}

// AppendJSON appends the day as json.Marshal writes its decoded
// document, copying the rows' compact bytes: one compact line with no
// trailing newline, the form /v1/range serves.
func (d *RowDay) AppendJSON(b []byte) ([]byte, error) {
	b, err := appendHeader(b, &d.hdr, false)
	if err != nil {
		return b, err
	}
	if d.rows == nil {
		return append(b, "null}"...), nil
	}
	return append(appendRows(b, d.rows, d.arena), '}'), nil
}

// AppendJSON appends the delta as json.Marshal writes its decoded form
// (DocumentDelta), with no trailing newline: the archive's delta file.
func (d *RowDelta) AppendJSON(b []byte) ([]byte, error) {
	b, err := appendHeader(append(b, `{"header":`...), &d.hdr, false)
	if err != nil {
		return b, err
	}
	b = append(b, "null}"...)
	if len(d.removed) > 0 {
		b = append(b, `,"removed":[`...)
		for i, k := range d.removed {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(b, k.s)
		}
		b = append(b, ']')
	}
	if len(d.upserts) > 0 {
		b = appendRows(append(b, `,"upserts":`...), d.upserts, d.arena)
	}
	return append(b, '}'), nil
}

// appendRows appends rows as a compact array, compacting them into arena
// a where they are not compact yet.
func appendRows(b []byte, rows []*row, a *RowArena) []byte {
	b = append(b, '[')
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r.json(&a.out)...)
	}
	return append(b, ']')
}

// RowDecoder decodes stored rows into a day's document. Protocol and city
// names are interned for the decoder's life, each row is decoded once,
// however many days carry it, and an entry takes the prefix string the
// split made. The entries' name lists are capped slices of shared
// chunks: appending to one copies it.
type RowDecoder struct {
	names map[string]string // interned protocol and city names; nil interns none
	text  string            // with names nil, the row's bytes, once it has a name
	chunk []string          // where name lists are carved from
	slab  []DocumentEntry   // where decoded entries are carved from
}

// namesChunk is how many protocol and city names one allocation holds
// once a decoder's chunks have grown.
const namesChunk = 256

// Document returns the day as json.Unmarshal makes the snapshot it
// rebuilds, or the error of its first row outside the row grammar. The
// document is new; its entries' name lists may share arrays with other
// documents from the same decoder.
func (dec *RowDecoder) Document(d *RowDay) (*Document, error) {
	es, err := dec.entries(d.rows)
	if err != nil {
		return nil, err
	}
	doc := d.hdr
	doc.Entries = es
	return &doc, nil
}

// Delta returns the delta as json.Unmarshal makes its day-file, or the
// error of its first upsert outside the row grammar: its removals are the
// split's prefix strings, and only its upserts are decoded.
func (dec *RowDecoder) Delta(d *RowDelta) (*DocumentDelta, error) {
	es, err := dec.entries(d.upserts)
	if err != nil {
		return nil, err
	}
	dd := &DocumentDelta{Header: d.hdr, Upserts: es}
	if d.removed != nil {
		dd.Removed = make([]string, len(d.removed))
		for i, k := range d.removed {
			dd.Removed[i] = k.s
		}
	}
	return dd, nil
}

// entries decodes rows into new entries; nil stays nil. A row keeps its
// entry only once it has decoded.
func (dec *RowDecoder) entries(rows []*row) ([]DocumentEntry, error) {
	if rows == nil {
		return nil, nil
	}
	out := make([]DocumentEntry, len(rows))
	for i, r := range rows {
		if r.entry == nil {
			if len(dec.slab) == cap(dec.slab) {
				dec.slab = make([]DocumentEntry, 0, len(rows)-i)
			}
			if dec.names == nil {
				dec.names = make(map[string]string)
			}
			e := &dec.slab[:len(dec.slab)+1][len(dec.slab)]
			if err := dec.row(r, e); err != nil {
				*e = DocumentEntry{}
				return nil, err
			}
			dec.slab, r.entry = dec.slab[:len(dec.slab)+1], e
		}
		out[i] = *r.entry
	}
	return out, nil
}

// row decodes r into e in one walk over rowFields that checks r against
// the row grammar as it goes: each field where keyAt finds its key in r's
// own layout, in rowFields' order, an omitempty field only when set, each
// value in the form appendEntry writes it, and the row's '}' right after
// the last. A key is told from the fields it could be by the first eight
// bytes of its name. The prefix is the split's string, which holds the
// bytes between the value's quotes. A row outside the grammar is an
// error, and e is then partly filled.
func (dec *RowDecoder) row(r *row, e *DocumentEntry) error {
	l := compactRows
	if r.indented {
		l = indentRows
	}
	dec.text = ""
	s := scanner{b: r.raw, ok: true}
	b := s.b
	if len(b) == 0 || b[0] != '{' {
		s.ok = false
	} else if v := l.keyAt(b, 1, 0); v < 0 {
		s.ok = false
	} else {
		e.Prefix, s.i = r.key.s, v+len(r.key.s)+2
	}
	f := 1
	for s.ok && s.i < len(b) && b[s.i] == ',' {
		w := word(b, s.i+1+len(l.member.s)+1) // the name's first eight bytes, past ',', the whitespace and '"'
		v := -1
		for ; f < len(rowFields); f++ {
			if w == l.name[f].w[0] {
				if v = l.keyAt(b, s.i+1, f); v >= 0 {
					break
				}
			}
			if rowFields[f].val < valNames { // a field without omitempty
				break
			}
		}
		if v < 0 { // missing, unknown, out of order or repeated
			s.ok = false
			break
		}
		s.i = v
		switch p := e.field(f).(type) {
		case *uint32:
			*p = uint32(s.number(false, math.MaxUint32))
		case *int:
			*p = s.nonzero()
		case *bool:
			*p = s.boolLit()
			s.ok = s.ok && (*p || rowFields[f].val == valBool)
		case *[]string:
			*p = dec.nameList(&s, l)
		}
		f++
	}
	for ; f < len(rowFields); f++ {
		if rowFields[f].val < valNames {
			s.ok = false
		}
	}
	if s.ok {
		i := l.end.skip(b, s.i)
		s.ok = i >= 0 && i == len(b)-1 && b[i] == '}'
	}
	if !s.ok {
		return fmt.Errorf("core: the row of %q is not in the writer's form", r.key.s)
	}
	return nil
}

// nameList reads the non-empty list of plain strings at s's position in
// layout l, carved from the decoder's chunk, in one loop over the list's
// bytes, eight at a time: each byte a string may not hold as it is is
// marked, a closing quote ends a name and has its separator checked where
// it stands, and the loop goes on past the next string's opening quote,
// in the same eight bytes while they reach it.
func (dec *RowDecoder) nameList(s *scanner, l *rowLayout) []string {
	b, i := s.b, s.i
	if i >= len(b) || b[i] != '[' {
		s.ok = false
		return nil
	}
	if i = l.elem.skip(b, i+1); i < 0 || i >= len(b) || b[i] != '"' {
		s.ok = false
		return nil
	}
	i++
	first, start, open, ascii := len(dec.chunk), i, i, true
words:
	for {
		// Past the end the bytes read as '"', which p >= len(b) refuses.
		var x uint64
		if i+8 <= len(b) {
			x = binary.LittleEndian.Uint64(b[i:])
		} else {
			w := [8]byte{'"', '"', '"', '"', '"', '"', '"', '"'}
			copy(w[:], b[i:])
			x = binary.LittleEndian.Uint64(w[:])
		}
		for m := plainBytes(x); m != 0; m &= m - 1 {
			p := i + bits.TrailingZeros64(m)>>3
			if p >= len(b) {
				s.ok = false // unterminated
				return nil
			}
			if c := b[p]; c != '"' {
				if c < utf8.RuneSelf {
					s.ok = false // a byte encoding/json escapes
					return nil
				}
				ascii = false // part of a multi-byte rune
				continue
			}
			// A closing quote: the name b[open:p], then ',' and the next
			// string's opening quote, or the list's end.
			first = dec.name(b, open, p, first)
			j := p + 1
			if j < len(b) && b[j] == ',' {
				if j = l.elem.skip(b, j+1); j < 0 || j >= len(b) || b[j] != '"' {
					s.ok = false
					return nil
				}
				open = j + 1
				if d := j - i; d < 7 {
					m &= ^uint64(0) << (8 * d) // the loop's m &= m-1 clears the opening quote's mark
					continue
				}
				i = j + 1
				continue words
			}
			if j = l.member.skip(b, j); j < 0 || j >= len(b) || b[j] != ']' {
				s.ok = false
				return nil
			}
			// The separators are ASCII: the strings are plain exactly
			// when the span holding them all is.
			if !ascii && !plainRunes(b[start:p]) {
				s.ok = false
				return nil
			}
			s.i = j + 1
			return dec.chunk[first:len(dec.chunk):len(dec.chunk)]
		}
		i += 8
	}
}

// name appends the protocol or city name b[i:j] of the row b to the
// list that starts at first in the decoder's chunk, and returns where the
// list starts: a full chunk moves it to a new one, twice the last up to
// namesChunk. The name is interned when the decoder interns, and
// otherwise cut from one copy of the row, so a row decoded alone
// (RowDay.Find) copies its bytes once.
func (dec *RowDecoder) name(b []byte, i, j, first int) int {
	if len(dec.chunk) == cap(dec.chunk) {
		size := max(min(2*cap(dec.chunk), namesChunk), 16, 2*(len(dec.chunk)-first))
		dec.chunk = append(make([]string, 0, size), dec.chunk[first:]...)
		first = 0
	}
	v, ok := "", false
	switch {
	case dec.names == nil:
		if dec.text == "" {
			dec.text = string(b)
		}
		v = dec.text[i:j]
	default:
		if v, ok = dec.names[string(b[i:j])]; !ok {
			v = string(b[i:j])
			dec.names[v] = v
		}
	}
	dec.chunk = append(dec.chunk, v)
	return first
}

// A stored row's value forms. The fields without omitempty come first,
// so a form below valNames is a field every row carries.
const (
	valPrefix  = iota // a plain string: the row's prefix
	valASN            // a uint32
	valBool           // true or false
	valNames          // a non-empty list of plain strings
	valNonzero        // an int other than zero
	valTrue           // true
)

// rowFields is DocumentEntry's fields in struct order, with the form
// appendEntry writes each value in: the one table the split and
// RowDecoder run.
var rowFields = [...]struct {
	name string
	val  uint8
}{
	{"prefix", valPrefix},
	{"origin_asn", valASN},
	{"anycast_based_protocols", valNames},
	{"anycast_based_vps", valNonzero},
	{"from_feedback", valTrue},
	{"gcd_measured", valBool},
	{"gcd_anycast", valBool},
	{"gcd_sites", valNonzero},
	{"gcd_cities", valNames},
	{"gcd_vps", valNonzero},
	{"partial_anycast", valTrue},
	{"global_bgp", valTrue},
}

// field returns a pointer to the field of e that rowFields[f] names.
func (e *DocumentEntry) field(f int) any {
	return [len(rowFields)]any{
		&e.Prefix, &e.OriginASN, &e.ACProtocols, &e.MaxReceivers, &e.FromFeedback, &e.GCDMeasured,
		&e.GCDAnycast, &e.GCDSites, &e.GCDCities, &e.GCDVPs, &e.PartialAnycast, &e.GlobalBGP,
	}[f]
}

// rowLayout is an entryLayout as the split matches it: the layout's
// whitespace, and each field's quoted name as words.
type rowLayout struct {
	member   space // before each member, and before a name list's ']'
	elem     space // before each element of a name list
	end      space // before the row's '}'
	colon    bool  // a space follows each key's ':'
	name     [len(rowFields)]wordName
	indented bool
}

// space is a layout's whitespace before a token: nothing, or a line
// break and at most eight spaces (every layout's indentation is), which
// one masked word matches.
type space struct {
	s    string
	mask uint64 // the spaces' bytes in the word after the line break
}

// newSpace prepares ws to be matched.
func newSpace(ws string) space {
	if ws == "" {
		return space{}
	}
	return space{s: ws, mask: 1<<(8*(len(ws)-1)) - 1}
}

// skip returns where b[i:] continues after the whitespace, or -1 when it
// does not come next.
func (w *space) skip(b []byte, i int) int {
	switch {
	case w.s == "":
		return i
	case len(b)-i >= 9:
		if b[i] == '\n' && (binary.LittleEndian.Uint64(b[i+1:])^0x2020202020202020)&w.mask == 0 {
			return i + len(w.s)
		}
	case len(b)-i >= len(w.s) && string(b[i:i+len(w.s)]) == w.s:
		return i + len(w.s)
	}
	return -1
}

// wordName is a field's name and its closing '"', at most 24 bytes, as
// three little-endian words and the masks of the bytes each holds.
type wordName struct {
	q    string
	w, m [3]uint64
}

// newRowLayout spells out layout l.
func newRowLayout(l *entryLayout, indented bool) *rowLayout {
	r := &rowLayout{member: newSpace(l.member), elem: newSpace(l.elem), end: newSpace(l.end), colon: l.colon == ": ", indented: indented}
	for f, fd := range rowFields {
		nm := wordName{q: fd.name + `"`}
		for k := 0; 8*k < len(nm.q); k++ {
			var w [8]byte
			n := copy(w[:], nm.q[8*k:])
			nm.w[k], nm.m[k] = binary.LittleEndian.Uint64(w[:]), ^uint64(0)>>(64-8*n)
		}
		r.name[f] = nm
	}
	return r
}

var (
	compactRows = newRowLayout(&compactLayout, false) // a delta's upserts
	indentRows  = newRowLayout(&indentLayout, true)   // a snapshot's entries
)

// storedRows splits an array of rows in layout l (rowSpan) into arena a,
// and declines an array that holds a backslash: a row without one holds
// no escape, so no '"' inside a string, which is what lets rowSpan find
// its end. The rows' bytes alias the input; their prefixes are carved
// from one string, and their keys are parsed as they are split. With
// keep, it also keeps each row's key and extent in keep's rows.
func (s *scanner) storedRows(l *rowLayout, a *RowArena, keep *Spans) []*row {
	s.expect('[')
	if s.peek() == ']' {
		s.i++
		if keep != nil {
			keep.rows = []span{}
		}
		return []*row{}
	}
	first := s.i
	n := s.hint // rows from the arena up to this many, which bounds them in any file the writer made
	if cap(a.rows)-len(a.rows) < n {
		a.rows = make([]row, 0, max(n, 2*cap(a.rows)))
	}
	rows := a.rows[len(a.rows) : len(a.rows) : len(a.rows)+n]
	prefixes, ends := a.prefix[:0], a.ends[:0]
	defer func() { a.prefix, a.ends = prefixes, ends }()
	for s.ok {
		s.ws()
		start := s.i
		if len(rows) < cap(rows) {
			rows = rows[:len(rows)+1]
		} else {
			rows = append(rows, row{})
		}
		r := &rows[len(rows)-1] // from the arena: every field is set below
		r.indented, r.entry = l.indented, nil
		prefixes = append(prefixes, s.rowSpan(l, &r.key)...)
		ends = append(ends, len(prefixes))
		r.raw = s.b[start:s.i]
		if s.i < len(s.b) && s.b[s.i] == ',' {
			s.i++
			continue
		}
		if !s.more(']') {
			break
		}
	}
	if !s.ok || bytes.IndexByte(s.b[first:s.i], '\\') >= 0 {
		s.ok = false
		return nil
	}
	a.rows = a.rows[:len(a.rows)+min(len(rows), n)]
	ptrs := a.pointers(rows)
	all, start := string(prefixes), 0
	for i, r := range ptrs {
		r.key.s, start = all[start:ends[i]], ends[i]
		if r.key.rank == 0 { // a prefix prefixKeyAt leaves to ParsePrefixKey
			r.key = ParsePrefixKey(r.key.s)
		}
	}
	if keep != nil {
		keep.keepRows(s.b, ptrs, all, ends)
	}
	return ptrs
}

// keepRows keeps rows, split from b with their prefixes carved from all
// at ends, as k's rows: each row's key, the end of its prefix in all and
// the extent of its bytes in b. A row's bytes alias b, so they start as
// far into b as their capacity falls short of b's.
func (k *Spans) keepRows(b []byte, rows []*row, all string, ends []int) {
	k.rows, k.prefixes = make([]span, len(rows)), all
	for i, r := range rows {
		start := cap(b) - cap(r.raw)
		k.rows[i] = span{
			hi: r.key.hi, lo: r.key.lo, rank: r.key.rank, bits: r.key.bits,
			start: uint32(start), end: uint32(start + len(r.raw)), pre: uint32(ends[i]),
		}
	}
	k.size += int(unsafe.Sizeof(span{}))*len(rows) + len(all)
}

// pointers returns pointers to rows, which a split or a rebuild took
// from the arena, from the arena's pointers: empty, not nil, for none.
func (a *RowArena) pointers(rows []row) []*row {
	if len(rows) == 0 {
		return []*row{}
	}
	if cap(a.ptrs)-len(a.ptrs) < len(rows) {
		a.ptrs = make([]*row, 0, max(len(rows), 2*cap(a.ptrs)))
	}
	a.ptrs = a.ptrs[:len(a.ptrs)+len(rows)]
	ptrs := a.ptrs[len(a.ptrs)-len(rows) : len(a.ptrs) : len(a.ptrs)]
	for i := range rows {
		ptrs[i] = &rows[i]
	}
	return ptrs
}

// take returns n rows from the arena, each for the caller to set in
// full.
func (a *RowArena) take(n int) []row {
	if cap(a.rows)-len(a.rows) < n {
		a.rows = make([]row, 0, max(n, 2*cap(a.rows)))
	}
	a.rows = a.rows[:len(a.rows)+n]
	return a.rows[len(a.rows)-n : len(a.rows) : len(a.rows)]
}

// rowSpan steps over one row — a '{', its prefix field in layout l, and
// the rest up to the row's end — and returns its prefix's bytes and
// parses its key into key (prefix), checking nothing else of the row.
// The row ends at the first '}' outside a string, which a row without a
// backslash makes the first '}' with an even count of '"' before it in
// the row.
func (s *scanner) rowSpan(l *rowLayout, key *PrefixKey) []byte {
	b, v := s.b, -1
	if s.i < len(b) && b[s.i] == '{' {
		v = l.keyAt(b, s.i+1, 0)
	}
	if v < 0 {
		s.ok = false
		return nil
	}
	s.i = v
	prefix := s.prefix(key)
	for i := s.i; s.ok; {
		e := bytes.IndexByte(b[i:], '}')
		if e < 0 {
			s.ok = false
			break
		}
		if e += i; bytes.Count(b[i:e], quote)%2 == 0 {
			s.i = e + 1
			return prefix
		}
		q := bytes.IndexByte(b[e:], '"') // the '}' is in a string: go on past its end
		if q < 0 {
			s.ok = false
			break
		}
		i = e + q + 1
	}
	return nil
}

// quote is the byte rowSpan counts.
var quote = []byte{'"'}

// keyAt returns where field f's value starts when its key follows b[i:]
// in layout l — the member's whitespace, the quoted name and the colon —
// or -1.
func (l *rowLayout) keyAt(b []byte, i, f int) int {
	if i = l.member.skip(b, i); i < 0 || i >= len(b) || b[i] != '"' {
		return -1
	}
	i++
	nm := &l.name[f]
	if len(b)-i >= 24 {
		if binary.LittleEndian.Uint64(b[i:])&nm.m[0] != nm.w[0] ||
			binary.LittleEndian.Uint64(b[i+8:])&nm.m[1] != nm.w[1] ||
			binary.LittleEndian.Uint64(b[i+16:])&nm.m[2] != nm.w[2] {
			return -1
		}
	} else if len(b)-i < len(nm.q) || string(b[i:i+len(nm.q)]) != nm.q {
		return -1
	}
	if i += len(nm.q); i >= len(b) || b[i] != ':' {
		return -1
	}
	if i++; l.colon {
		if i >= len(b) || b[i] != ' ' {
			return -1
		}
		i++
	}
	return i
}

// word returns the eight bytes at b[i:], little-endian, zero past the
// end.
func word(b []byte, i int) uint64 {
	if len(b)-i >= 8 {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var w [8]byte
	copy(w[:], b[min(i, len(b)):])
	return binary.LittleEndian.Uint64(w[:])
}

// prefix reads a row's prefix, a plain string, and parses its key into
// key when prefixKeyAt can; otherwise the key is zero.
func (s *scanner) prefix(key *PrefixKey) []byte {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '"' {
		// A prefix netip writes holds only plain bytes.
		if j, ok := prefixKeyAt(b, i+1, key); ok && j < len(b) && b[j] == '"' {
			s.i = j + 1
			return b[i+1 : j]
		}
	}
	*key = PrefixKey{}
	return s.plain()
}

// plainBytes sets the high bit of exactly those bytes of x (in memory
// order, little-endian) that a plain string may not hold as they are: a
// byte that is not ASCII, a control byte, '"', '\\', '<', '>' or '&'.
// Each term below has a byte's high bit clear where the byte matches: no
// carry crosses a byte. '"' and '&' differ only in bit 2, and '<' and
// '>' only in bit 1.
func plainBytes(x uint64) uint64 {
	const ones, low7, highs = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	q := x&^(0x04*ones) ^ '"'*ones
	a := x&^(0x02*ones) ^ '<'*ones
	e := x ^ '\\'*ones
	return (x | ^((x&low7 + 0x60*ones) & (q&low7 + low7 | q) & (a&low7 + low7 | a) & (e&low7 + low7 | e))) & highs
}

// prefixKeyAt parses the prefix at p[i:] as ParsePrefixKey does, for the
// forms netip writes — four decimal fields, or hex groups with at most
// one "::" and no embedded IPv4, then '/' and the bits — and returns the
// key into key, its string unset, and where the prefix ends; whatever
// follows is the caller's to check. It reports false for any other form,
// which it leaves to ParsePrefixKey, and then key holds nothing to use.
func prefixKeyAt(p []byte, i int, key *PrefixKey) (end int, ok bool) {
	maxBits := 32
	if end, ok = quadAt(p, i, key); !ok {
		if end, ok = ipv6At(p, i, key); !ok {
			return 0, false
		}
		maxBits = 128
	}
	if end >= len(p) || p[end] != '/' {
		return 0, false
	}
	bits, end, ok := decimalAt(p, end+1)
	if !ok || bits > maxBits {
		return 0, false
	}
	key.bits = uint8(bits)
	return end, true
}

// decimalAt reads one to three digits at p[i:] with no leading zero.
func decimalAt(p []byte, i int) (v, end int, ok bool) {
	for end = i; end < len(p) && end-i < 3 && '0' <= p[end] && p[end] <= '9'; end++ {
		v = v*10 + int(p[end]-'0')
	}
	return v, end, end > i && (end-i == 1 || p[i] != '0')
}

// quadAt reads an IPv4 address at p[i:] into key: four decimal fields of
// at most 255 with no leading zero, as netip reads them.
func quadAt(p []byte, i int, key *PrefixKey) (int, bool) {
	var v uint64
	for f := 0; f < 4; f++ {
		if f > 0 {
			if i >= len(p) || p[i] != '.' {
				return i, false
			}
			i++
		}
		field, end, ok := decimalAt(p, i)
		if !ok || field > 255 {
			return i, false
		}
		v, i = v<<8|uint64(field), end
	}
	key.hi, key.lo, key.rank = 0, 0xffff<<32|v, keyIPv4
	return i, true
}

// ipv6At reads an IPv6 address at p[i:] as netip's parseIPv6 does, with
// no zone and no embedded IPv4 address: up to eight groups of one to
// four hex digits, at most one "::" standing for one group of zeros or
// more, into key. The address ends at the first byte that continues
// neither.
func ipv6At(p []byte, j int, key *PrefixKey) (int, bool) {
	var ip [16]byte
	ellipsis, i := -1, 0
	if j+1 < len(p) && p[j] == ':' && p[j+1] == ':' {
		ellipsis, j = 0, j+2
	}
	for i < 16 {
		if ellipsis == i && (j >= len(p) || hexDigit(p[j]) < 0) {
			break // the address ends in its "::"
		}
		n, acc := 0, 0
		for ; j < len(p); j++ {
			d := hexDigit(p[j])
			if d < 0 {
				break
			}
			if n == 4 {
				return j, false
			}
			acc, n = acc<<4|d, n+1
		}
		if n == 0 {
			return j, false
		}
		ip[i], ip[i+1] = byte(acc>>8), byte(acc)
		i += 2
		if j >= len(p) || p[j] != ':' {
			break
		}
		j++
		if j < len(p) && p[j] == ':' {
			if ellipsis >= 0 {
				return j, false
			}
			ellipsis = i
			j++
		}
	}
	switch {
	case i < 16 && ellipsis < 0, i == 16 && ellipsis >= 0:
		return j, false // too short, or a "::" standing for no group
	case i < 16:
		n := 16 - i
		copy(ip[ellipsis+n:], ip[ellipsis:i])
		clear(ip[ellipsis : ellipsis+n])
	}
	key.hi, key.lo, key.rank = binary.BigEndian.Uint64(ip[:8]), binary.BigEndian.Uint64(ip[8:]), keyIPv6
	return j, true
}

// hexDigit is c's value as a hex digit, or -1.
func hexDigit(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// lit consumes tok, with no whitespace before it.
func (s *scanner) lit(tok string) {
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		s.ok = false
		return
	}
	s.i += len(tok)
}

// plain reads a string AppendJSONString copies as it is, and returns its
// content.
func (s *scanner) plain() []byte {
	b, i := s.b, s.i
	if i >= len(b) || b[i] != '"' {
		s.ok = false
		return nil
	}
	i++
	start, ascii := i, true
	for {
		// Step to the next byte that is not plain ASCII, eight at a time;
		// past the end the bytes read as '"', which i >= len(b) refuses.
		var x uint64
		if i+8 <= len(b) {
			x = binary.LittleEndian.Uint64(b[i:])
		} else {
			w := [8]byte{'"', '"', '"', '"', '"', '"', '"', '"'}
			copy(w[:], b[i:])
			x = binary.LittleEndian.Uint64(w[:])
		}
		if m := plainBytes(x); m != 0 {
			i += bits.TrailingZeros64(m) >> 3
		} else {
			i += 8
			continue
		}
		if i >= len(b) || b[i] != '"' && b[i] < utf8.RuneSelf {
			s.ok = false // unterminated, or a byte encoding/json escapes
			return nil
		}
		if b[i] == '"' {
			break
		}
		ascii = false // part of a multi-byte rune
		i++
	}
	r := b[start:i]
	s.i = i + 1
	if !ascii && !plainRunes(r) {
		s.ok = false
	}
	return r
}

// nonzero reads an int other than zero as strconv.AppendInt writes it.
func (s *scanner) nonzero() int {
	limit, neg := uint64(math.MaxInt), false
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i, limit, neg = s.i+1, limit+1, true
	}
	v := int(s.number(true, limit))
	if neg {
		return -v
	}
	return v
}

// number reads a JSON integer's digits ("0" or no leading zero) whose
// value is at most limit, which is below 10^19, so nineteen digits never
// overflow and twenty are always too many; nonzero refuses a zero. It
// returns the value.
func (s *scanner) number(nonzero bool, limit uint64) uint64 {
	b, i := s.b, s.i
	var v uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9' && i-s.i < 20; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	if n := i - s.i; n == 0 || n > 19 || n > 1 && b[s.i] == '0' || v > limit || nonzero && v == 0 {
		s.ok = false
		return 0
	}
	s.i = i
	return v
}

// boolLit reads true or false and returns it.
func (s *scanner) boolLit() bool {
	if len(s.b)-s.i >= len("true") && string(s.b[s.i:s.i+len("true")]) == "true" {
		s.i += len("true")
		return true
	}
	s.lit("false")
	return false
}

// plainRunes reports whether a string's non-ASCII bytes are runes
// encoding/json writes as they are: valid UTF-8, and neither U+2028 nor
// U+2029.
func plainRunes(b []byte) bool {
	return utf8.Valid(b) && !bytes.Contains(b, []byte("\u2028")) && !bytes.Contains(b, []byte("\u2029"))
}

// appendCompact appends an indented row without its layout's
// whitespace: each line break with the indentation after it, and the
// space after each key's colon. The row's strings are plain, so none
// holds a line break or a '"': a line that opens with a key ends its name
// at the line's second '"', and a colon and a space follow only a key.
func appendCompact(b, raw []byte) []byte {
	for len(raw) > 0 {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
			for len(raw) > 0 && raw[0] == ' ' {
				raw = raw[1:]
			}
		} else {
			raw = nil
		}
		if len(line) > 0 && line[0] == '"' {
			if k := bytes.IndexByte(line[1:], '"') + 2; k > 1 && len(line) > k+1 && line[k] == ':' && line[k+1] == ' ' {
				b = append(b, line[:k+1]...)
				line = line[k+2:]
			}
		}
		b = append(b, line...)
	}
	return b
}
