package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/netip"
	"slices"
	"strings"
)

// This file is the write half of the published-document codec: encode
// one DocumentEntry at a time so no layer has to materialize a whole
// census day to move it (decode.go is the read half). Each row goes
// through the reflection-free entry appender in encode.go into one
// reusable buffer; only the header is rendered by encoding/json, and a
// string the appender cannot copy as-is goes through json.Marshal on
// its own. The bytes are exactly those of a json.Encoder with
// SetIndent("", "  ") — a DocumentWriter's output is bit-for-bit the
// document the public repository carries, `"entries": []` and
// `"entries": null` included, which is the contract the archive layer
// (internal/archive) builds its integrity checks on.

// ComparePrefixStrings orders two published prefix strings canonically:
// numerically, by address family, then address bytes, then prefix
// length — lexicographic order would sort "10.0.0.0/24" before
// "2.0.0.0/24". Unparsable strings (never produced by the census itself)
// sort after valid prefixes, between themselves by plain string
// comparison, so the order stays total and deterministic.
func ComparePrefixStrings(a, b string) int {
	return ParsePrefixKey(a).order(ParsePrefixKey(b))
}

// SortPrefixStrings sorts prefix strings into ComparePrefixStrings order,
// parsing each once rather than twice per comparison. Distinct strings
// that parse to one prefix ("::1/128", "0::1/128") fall back to string
// order, so the result never depends on the input's order.
func SortPrefixStrings(ps []string) {
	keys := make([]PrefixKey, len(ps))
	for i, s := range ps {
		keys[i] = ParsePrefixKey(s)
	}
	slices.SortFunc(keys, PrefixKey.Compare)
	for i := range keys {
		ps[i] = keys[i].s
	}
}

// PrefixKey is a prefix string parsed once, for callers that compare it
// more than once in SortPrefixStrings' order.
type PrefixKey struct {
	hi, lo uint64 // the address's 16 bytes (netip.Addr.As16)
	rank   uint8  // keyIPv4, keyIPv6 or keyInvalid, in canonical order
	bits   uint8
	s      string
}

// Ranks of a PrefixKey; a zero rank is a key not parsed yet.
const (
	keyIPv4 = iota + 1
	keyIPv6
	keyInvalid // not a prefix: after every prefix, in string order
)

// ParsePrefixKey parses s into its key.
func ParsePrefixKey(s string) PrefixKey {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return PrefixKey{rank: keyInvalid, s: s}
	}
	a := p.Addr().As16()
	k := PrefixKey{binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:]), keyIPv4, uint8(p.Bits()), s}
	if p.Addr().Is6() {
		k.rank = keyIPv6
	}
	return k
}

// Compare orders two keys as SortPrefixStrings does: ComparePrefixStrings
// order, ties between distinct strings broken by string order, so it is
// zero only for equal strings.
func (a PrefixKey) Compare(b PrefixKey) int {
	if c := a.order(b); c != 0 {
		return c
	}
	return strings.Compare(a.s, b.s)
}

// order is ComparePrefixStrings on parsed keys: zero also for distinct
// strings of one prefix ("::1/128", "0::1/128").
func (a PrefixKey) order(b PrefixKey) int {
	switch {
	case a.rank != b.rank:
		return cmp.Compare(a.rank, b.rank)
	case a.rank == keyInvalid:
		return strings.Compare(a.s, b.s)
	case a.hi != b.hi:
		return cmp.Compare(a.hi, b.hi)
	case a.lo != b.lo:
		return cmp.Compare(a.lo, b.lo)
	}
	return cmp.Compare(a.bits, b.bits)
}

// WriteJSON encodes the document exactly as the public repository carries
// it: two-space indent, entries last, trailing newline — the bytes of a
// json.Encoder with SetIndent("", "  "). It is the canonical byte form;
// DailyCensus.WriteJSON, the archive and /v1/census all write it through
// the streaming DocumentWriter.
func (d *Document) WriteJSON(w io.Writer) error { return StreamDocument(w, d) }

// entryElementIndent is the line prefix of an entry element inside the
// canonical document ("entries" array elements sit two levels deep).
const entryElementIndent = "    "

// flushAt is how many encoded bytes a DocumentWriter gathers before it
// writes them on.
const flushAt = 16 << 10

// DocumentWriter streams a census document entry by entry, producing
// bytes identical to Document.WriteJSON without ever holding the entry
// slice. The header scalars must be known up front (the census pipeline
// always knows its counts before publication).
type DocumentWriter struct {
	w     io.Writer
	buf   []byte // encoded and not yet written: the header, then whole rows
	n     int    // entries written
	empty bool   // zero entries close as `[]`, not `null`
	err   error
}

// NewDocumentWriter prepares a streaming writer from the document's
// header scalars. Of hdr.Entries only its nil-ness counts: a document
// with zero entries closes as `"entries": null` when it is nil and as
// `"entries": []` when it is not, as encoding/json writes them.
func NewDocumentWriter(w io.Writer, hdr *Document) (*DocumentWriter, error) {
	buf, err := appendIndentHeader(make([]byte, 0, flushAt+1<<10), hdr)
	if err != nil {
		return nil, err
	}
	return &DocumentWriter{w: w, buf: buf, empty: hdr.Entries != nil}, nil
}

// appendIndentHeader appends the canonical document up to its entries'
// value. It renders the header by encoding the scalar fields with a nil
// entry slice and cutting off the trailing `null`, which keeps the bytes
// in lockstep with the Document struct without a hand-maintained field
// list.
func appendIndentHeader(b []byte, hdr *Document) ([]byte, error) {
	shell := *hdr
	shell.Entries = nil
	h, err := json.MarshalIndent(&shell, "", "  ")
	if err != nil {
		return b, err
	}
	suffix := []byte("null\n}")
	if !bytes.HasSuffix(h, suffix) {
		return b, errEntriesNotLast
	}
	return append(b, h[:len(h)-len(suffix)]...), nil
}

// appendEntrySep appends what comes before the canonical document's i-th
// row: the array's opening or the comma after the row before, and the
// row's indentation.
func appendEntrySep(b []byte, i int) []byte {
	if i == 0 {
		return append(b, "[\n"+entryElementIndent...)
	}
	return append(b, ",\n"+entryElementIndent...)
}

// appendDocumentEnd appends what ends the canonical document after its n
// rows: the array's close, or, with no rows, `[]` when the entries are
// not nil (notNil) and `null` when they are.
func appendDocumentEnd(b []byte, n int, notNil bool) []byte {
	switch {
	case n > 0:
		return append(b, "\n  ]\n}\n"...)
	case notNil:
		return append(b, "[]\n}\n"...)
	}
	return append(b, "null\n}\n"...)
}

// WriteEntry appends one census row to the stream.
func (dw *DocumentWriter) WriteEntry(e *DocumentEntry) error {
	if dw.err != nil {
		return dw.err
	}
	dw.buf = appendEntry(appendEntrySep(dw.buf, dw.n), e, &indentLayout)
	dw.n++
	if len(dw.buf) >= flushAt {
		dw.flush()
	}
	return dw.err
}

// flush writes the gathered bytes on.
func (dw *DocumentWriter) flush() {
	_, dw.err = dw.w.Write(dw.buf)
	dw.buf = dw.buf[:0]
}

// Close terminates the document and writes what is left of it.
func (dw *DocumentWriter) Close() error {
	if dw.err != nil {
		return dw.err
	}
	dw.buf = appendDocumentEnd(dw.buf, dw.n, dw.empty)
	dw.flush()
	return dw.err
}

// StreamDocument writes an already-materialized document through the
// streaming codec — the archive writer uses it to tee canonical bytes
// into checksums without a second buffer.
func StreamDocument(w io.Writer, d *Document) error {
	dw, err := NewDocumentWriter(w, d)
	if err != nil {
		return err
	}
	for i := range d.Entries {
		if err := dw.WriteEntry(&d.Entries[i]); err != nil {
			return err
		}
	}
	return dw.Close()
}
