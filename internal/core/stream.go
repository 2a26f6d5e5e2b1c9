package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
)

// This file is the write half of the published-document codec: encode
// one DocumentEntry at a time so no layer has to materialize a whole
// census day to move it (decode.go is the read half). The byte format is
// exactly the one Document.WriteJSON produces — a DocumentWriter's output
// is bit-for-bit the document the public repository carries, which is the
// contract the archive layer (internal/archive) builds its integrity
// checks on.

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

// WriteJSON encodes the document exactly as the public repository carries
// it: two-space indent, entries last, trailing newline. It is the
// canonical byte form — DailyCensus.WriteJSON, the streaming
// DocumentWriter and the archive round-trip all produce or reproduce
// these bytes.
func (d *Document) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// entryElementIndent is the line prefix of an entry element inside the
// canonical document ("entries" array elements sit two levels deep).
const entryElementIndent = "    "

// DocumentWriter streams a census document entry by entry, producing
// bytes identical to Document.WriteJSON without ever holding the entry
// slice. The header scalars must be known up front (the census pipeline
// always knows its counts before publication).
type DocumentWriter struct {
	w   io.Writer
	hdr []byte // canonical header bytes up to and including `"entries": `
	n   int    // entries written
	err error
}

// NewDocumentWriter prepares a streaming writer from the document's
// header scalars; hdr.Entries is ignored.
func NewDocumentWriter(w io.Writer, hdr *Document) (*DocumentWriter, error) {
	// Render the canonical header by encoding the scalar fields with a
	// nil entry slice and splitting at the trailing `null` — this keeps
	// the streamed bytes in lockstep with the Document struct without a
	// hand-maintained field list.
	shell := *hdr
	shell.Entries = nil
	var buf bytes.Buffer
	if err := shell.WriteJSON(&buf); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	suffix := []byte("null\n}\n")
	if !bytes.HasSuffix(b, suffix) {
		return nil, fmt.Errorf("core: document header did not end in an empty entries field (entries must be the last field)")
	}
	return &DocumentWriter{w: w, hdr: b[:len(b)-len(suffix)]}, nil
}

// WriteEntry appends one census row to the stream.
func (dw *DocumentWriter) WriteEntry(e *DocumentEntry) error {
	if dw.err != nil {
		return dw.err
	}
	if dw.n == 0 {
		if _, dw.err = dw.w.Write(dw.hdr); dw.err != nil {
			return dw.err
		}
		if _, dw.err = io.WriteString(dw.w, "[\n"+entryElementIndent); dw.err != nil {
			return dw.err
		}
	} else {
		if _, dw.err = io.WriteString(dw.w, ",\n"+entryElementIndent); dw.err != nil {
			return dw.err
		}
	}
	b, err := json.MarshalIndent(e, entryElementIndent, "  ")
	if err != nil {
		dw.err = err
		return err
	}
	if _, dw.err = dw.w.Write(b); dw.err != nil {
		return dw.err
	}
	dw.n++
	return nil
}

// Close terminates the document. A document with zero entries reproduces
// the canonical `"entries": null` form.
func (dw *DocumentWriter) Close() error {
	if dw.err != nil {
		return dw.err
	}
	if dw.n == 0 {
		if _, dw.err = dw.w.Write(dw.hdr); dw.err != nil {
			return dw.err
		}
		_, dw.err = io.WriteString(dw.w, "null\n}\n")
		return dw.err
	}
	_, dw.err = io.WriteString(dw.w, "\n  ]\n}\n")
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
