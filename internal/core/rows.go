package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"unicode/utf8"
)

// This file holds a census day as its stored rows: each row is a prefix
// plus the row's bytes as the day-file carries them, so a chain of
// day-files can be rebuilt with one merge per delta and nothing decoded.
// The split runs the read half's scanner over a day-file and accepts a
// row only in the exact form the entry appender writes it (compact in a
// delta, indented in a snapshot), which is what makes its bytes the
// row's canonical encoding: copied, or stripped of the snapshot's
// indentation, they are what AppendJSON writes for the decoded row. A
// file holding anything else is decoded by DecodeDocument or DecodeDelta,
// so every file splits to the rows those decoders make of it. Row bytes
// alias the file read; prefix strings and decoded entries are copies.

// RowDay is one census day as stored rows in document order, and its
// header. Its rows are shared with the days rebuilt from it, and so is
// out, where rows are compacted or encoded for AppendJSON.
type RowDay struct {
	hdr  Document // Entries nil
	rows []*row   // nil for `"entries": null`
	out  *[]byte
}

// RowDelta is one delta day-file split into rows.
type RowDelta struct {
	hdr     Document // Entries nil
	removed []string
	upserts []*row
}

// row is one published row. A split row holds its bytes and a decoded
// one its entry; the other, and the parsed prefix, are filled in when
// first needed and kept for every day that carries the row.
type row struct {
	key      PrefixKey      // key.s is the prefix; the rest is parsed when first compared
	indented bool           // raw is a snapshot's indented form
	raw      []byte         // the row's JSON; nil until encoded
	entry    *DocumentEntry // nil until decoded
}

// sortKey returns the row's parsed prefix.
func (r *row) sortKey() PrefixKey {
	if r.key.rank == 0 {
		r.key = ParsePrefixKey(r.key.s)
	}
	return r.key
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

// SplitDocument splits a snapshot day-file into its rows, as
// DecodeDocument reads it. With decode set it decodes the file whole,
// for a day whose every row will be read.
func SplitDocument(b []byte, decode bool) (*RowDay, error) {
	if !decode {
		if d, ok := ScanDocumentRows(b); ok {
			return d, nil
		}
	}
	doc, err := DecodeDocument(b)
	if err != nil {
		return nil, err
	}
	d := &RowDay{hdr: *doc, rows: decodedRows(doc.Entries), out: new([]byte)}
	d.hdr.Entries = nil
	return d, nil
}

// SplitDelta splits a delta day-file into its rows, as DecodeDelta reads
// it. With decode set it decodes the file whole.
func SplitDelta(b []byte, decode bool) (*RowDelta, error) {
	if !decode {
		if d, ok := ScanDeltaRows(b); ok {
			return d, nil
		}
	}
	dd, err := DecodeDelta(b)
	if err != nil {
		return nil, err
	}
	d := &RowDelta{hdr: dd.Header, removed: dd.Removed, upserts: decodedRows(dd.Upserts)}
	d.hdr.Entries = nil
	return d, nil
}

// ScanDocumentRows is SplitDocument's fast path: it splits b when b is a
// snapshot in the writer's form and reports false otherwise.
func ScanDocumentRows(b []byte) (*RowDay, bool) {
	s := newScanner(b)
	var rows []*row
	hdr, ok := s.document(func() { rows = s.storedRows(&indentLayout) })
	if !ok {
		return nil, false
	}
	return &RowDay{hdr: *hdr, rows: rows, out: new([]byte)}, true
}

// ScanDeltaRows is SplitDelta's fast path: it splits b when b is a delta
// in the writer's form and reports false otherwise.
func ScanDeltaRows(b []byte) (*RowDelta, bool) {
	s := newScanner(b)
	d := &RowDelta{}
	if !s.delta(&d.hdr, &d.removed, func() { d.upserts = s.storedRows(&compactLayout) }) {
		return nil, false
	}
	d.hdr.Entries = nil
	return d, true
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
		rows[i] = row{key: PrefixKey{s: es[i].Prefix}, entry: &es[i]}
		out[i] = &rows[i]
	}
	return out
}

// Apply rebuilds the new day from the previous one with the merge
// DocumentDelta.Apply runs: the same rows, or the same error.
func (d *RowDelta) Apply(prev *RowDay) (*RowDay, error) {
	rows, err := applyRows(d.hdr.Family, prev.hdr.Family, prev.rows, d.removed, d.upserts,
		func(r **row) PrefixKey { return (*r).sortKey() })
	if err != nil {
		return nil, err
	}
	return &RowDay{hdr: d.hdr, rows: rows, out: prev.out}, nil
}

// AppendJSON appends the day as Document.AppendJSON writes its decoded
// document, copying the rows' compact bytes.
func (d *RowDay) AppendJSON(b []byte) ([]byte, error) {
	b, err := appendHeader(b, &d.hdr)
	if err != nil {
		return b, err
	}
	if d.rows == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, r := range d.rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r.json(d.out)...)
	}
	return append(b, "]}"...), nil
}

// RowDecoder decodes stored rows into a day's document. Protocol and city
// names are interned for the decoder's life, and each row is decoded
// once, however many days carry it.
type RowDecoder struct {
	s    scanner
	slab []DocumentEntry // where decoded entries are carved from
}

// Document returns the day as DecodeDocument and DocumentDelta.Apply
// would have made it. The document is new; its entries' name lists may
// share arrays with other documents from the same decoder. A split row
// is in the writer's form, which the scanner always reads.
func (dec *RowDecoder) Document(d *RowDay) *Document {
	doc := d.hdr
	if d.rows == nil {
		return &doc
	}
	doc.Entries = make([]DocumentEntry, len(d.rows))
	s := &dec.s
	for i, r := range d.rows {
		if r.entry == nil {
			if len(dec.slab) == cap(dec.slab) {
				dec.slab = make([]DocumentEntry, 0, len(d.rows)-i)
			}
			dec.slab = dec.slab[:len(dec.slab)+1]
			r.entry = &dec.slab[len(dec.slab)-1]
			s.b, s.i, s.ok = r.raw, 0, true
			s.entry(r.entry)
		}
		doc.Entries[i] = *r.entry
	}
	return &doc
}

// storedRows splits an array of rows, each exactly as appendEntry writes
// it in layout l. The rows' bytes alias the input; their prefixes are
// carved from one string.
func (s *scanner) storedRows(l *entryLayout) []*row {
	s.expect('[')
	rows := make([]row, 0, s.hint)
	if s.peek() == ']' {
		s.i++
		return []*row{}
	}
	prefixes, ends := make([]byte, 0, 24*s.hint), make([]int, 0, s.hint)
	for s.ok {
		s.ws()
		start := s.i
		prefixes = append(prefixes, s.storedRow(l)...)
		ends = append(ends, len(prefixes))
		rows = append(rows, row{raw: s.b[start:s.i], indented: l == &indentLayout})
		if !s.more(']') {
			break
		}
	}
	if !s.ok {
		return nil
	}
	all, start := string(prefixes), 0
	ptrs := make([]*row, len(rows))
	for i := range rows {
		rows[i].key.s, start = all[start:ends[i]], ends[i]
		ptrs[i] = &rows[i]
	}
	return ptrs
}

// storedRow steps over one row if it is exactly what appendEntry writes
// in layout l — its fields in the struct's order, each omitempty field
// only when set, every value in the form the appender gives it — and
// returns its prefix's bytes.
func (s *scanner) storedRow(l *entryLayout) (prefix []byte) {
	s.want('{')
	next, seen := 0, 0
	for s.ok {
		s.lit(l.member)
		k := s.keyName()
		s.lit(l.colon)
		f := 0
		switch string(k) {
		case "prefix":
			prefix = s.plain()
		case "origin_asn":
			f = 1
			s.digits(math.MaxUint32)
		case "anycast_based_protocols":
			f = 2
			s.plainList(l)
		case "anycast_based_vps":
			f = 3
			s.nonzero()
		case "from_feedback":
			f = 4
			s.lit("true")
		case "gcd_measured":
			f = 5
			s.boolLit()
		case "gcd_anycast":
			f = 6
			s.boolLit()
		case "gcd_sites":
			f = 7
			s.nonzero()
		case "gcd_cities":
			f = 8
			s.plainList(l)
		case "gcd_vps":
			f = 9
			s.nonzero()
		case "partial_anycast":
			f = 10
			s.lit("true")
		case "global_bgp":
			f = 11
			s.lit("true")
		default:
			s.ok = false
		}
		if f < next { // out of order, or repeated
			s.ok = false
		}
		next, seen = f+1, seen|1<<f
		if !s.char(',') {
			break
		}
	}
	const always = 1<<0 | 1<<1 | 1<<5 | 1<<6 // the fields without omitempty
	if seen&always != always {
		s.ok = false
	}
	s.lit(l.end)
	s.want('}')
	return prefix
}

// char consumes c when it is next, with no whitespace before it.
func (s *scanner) char(c byte) bool {
	if s.ok && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// want consumes c, with no whitespace before it.
func (s *scanner) want(c byte) {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return
	}
	s.ok = false
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
		if m := plainSpecial(x); m != 0 {
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

// plainSpecial sets the high bit of each of x's bytes (in memory order,
// little-endian) that plain has to look at: a byte that is not ASCII, a
// control byte, '"', '\\', '<', '>' or '&'. The lowest bit set marks the
// first such byte exactly; bits above it may be spurious.
func plainSpecial(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	zero := func(y uint64) uint64 { return (y - ones) &^ y }
	return (x | (x-0x20*ones)&^x | zero(x^'"'*ones) | zero(x^'\\'*ones) |
		zero(x^'<'*ones) | zero(x^'>'*ones) | zero(x^'&'*ones)) & highs
}

// keyName reads an object key: the bytes up to the next '"', which the
// caller matches against the schema's names.
func (s *scanner) keyName() []byte {
	b, i := s.b, s.i
	if i >= len(b) || b[i] != '"' {
		s.ok = false
		return nil
	}
	j := i + 1
	for j < len(b) && b[j] != '"' {
		j++
	}
	if j == len(b) {
		s.ok = false
		return nil
	}
	s.i = j + 1
	return b[i+1 : j]
}

// plainList reads a non-empty list of plain strings in layout l.
func (s *scanner) plainList(l *entryLayout) {
	s.want('[')
	for s.ok {
		s.lit(l.elem)
		s.plain()
		if !s.char(',') {
			break
		}
	}
	s.lit(l.member)
	s.want(']')
}

// nonzero reads an int other than zero as strconv.AppendInt writes it.
func (s *scanner) nonzero() {
	var v uint64
	if s.char('-') {
		v = s.digits(uint64(math.MaxInt) + 1)
	} else {
		v = s.digits(math.MaxInt)
	}
	if v == 0 {
		s.ok = false
	}
}

// boolLit reads true or false.
func (s *scanner) boolLit() {
	if len(s.b)-s.i >= len("true") && string(s.b[s.i:s.i+len("true")]) == "true" {
		s.i += len("true")
		return
	}
	s.lit("false")
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
// holds a line break or a '"', and `": ` follows only a key.
func appendCompact(b, raw []byte) []byte {
	for len(raw) > 0 {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], bytes.TrimLeft(raw[i+1:], " ")
		} else {
			raw = nil
		}
		if k := bytes.Index(line, []byte(`": `)); k >= 0 {
			b = append(b, line[:k+2]...)
			line = line[k+3:]
		}
		b = append(b, line...)
	}
	return b
}
