package core

import (
	"bytes"
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

// ComparePrefix orders prefixes numerically: by address family, then
// address bytes, then prefix length. This is the canonical census order —
// lexicographic ordering of Prefix.String() would sort "10.0.0.0/24"
// before "2.0.0.0/24".
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}

// ComparePrefixStrings orders two published prefix strings canonically.
// Unparsable strings (never produced by the census itself) sort after
// valid prefixes, between themselves by plain string comparison, so the
// order stays total and deterministic.
func ComparePrefixStrings(a, b string) int {
	pa, ea := netip.ParsePrefix(a)
	pb, eb := netip.ParsePrefix(b)
	switch {
	case ea == nil && eb == nil:
		return ComparePrefix(pa, pb)
	case ea == nil:
		return -1
	case eb == nil:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
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
	p  netip.Prefix
	ok bool
	s  string
}

// ParsePrefixKey parses s into its key.
func ParsePrefixKey(s string) PrefixKey {
	p, err := netip.ParsePrefix(s)
	return PrefixKey{p, err == nil, s}
}

// Compare orders two keys as SortPrefixStrings does: ComparePrefixStrings
// order, ties between distinct strings broken by string order, so it is
// zero only for equal strings.
func (a PrefixKey) Compare(b PrefixKey) int {
	switch {
	case a.ok && b.ok:
		if c := ComparePrefix(a.p, b.p); c != 0 {
			return c
		}
	case a.ok:
		return -1
	case b.ok:
		return 1
	}
	return strings.Compare(a.s, b.s)
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
	// Render the canonical header by encoding the scalar fields with a
	// nil entry slice and splitting at the trailing `null` — this keeps
	// the streamed bytes in lockstep with the Document struct without a
	// hand-maintained field list.
	shell := *hdr
	shell.Entries = nil
	b, err := json.MarshalIndent(&shell, "", "  ")
	if err != nil {
		return nil, err
	}
	suffix := []byte("null\n}")
	if !bytes.HasSuffix(b, suffix) {
		return nil, errEntriesNotLast
	}
	buf := append(make([]byte, 0, flushAt+1<<10), b[:len(b)-len(suffix)]...)
	return &DocumentWriter{w: w, buf: buf, empty: hdr.Entries != nil}, nil
}

// WriteEntry appends one census row to the stream.
func (dw *DocumentWriter) WriteEntry(e *DocumentEntry) error {
	if dw.err != nil {
		return dw.err
	}
	if dw.n == 0 {
		dw.buf = append(dw.buf, "[\n"+entryElementIndent...)
	} else {
		dw.buf = append(dw.buf, ",\n"+entryElementIndent...)
	}
	dw.buf = appendEntry(dw.buf, e, &indentLayout)
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
	switch {
	case dw.n > 0:
		dw.buf = append(dw.buf, "\n  ]\n}\n"...)
	case dw.empty:
		dw.buf = append(dw.buf, "[]\n}\n"...)
	default:
		dw.buf = append(dw.buf, "null\n}\n"...)
	}
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
