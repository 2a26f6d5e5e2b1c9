package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// The streaming reader the archive decoded snapshots with before
// ScanDocument, kept verbatim as the reference the scanner is fuzzed
// against: on every input the scanner accepts, this loop must build the
// same document (but for `"entries": []`, which it leaves nil).

// refReadDocument is the archive's former snapshot loop over the reader.
func refReadDocument(b []byte) (*Document, error) {
	dr, err := NewDocumentReader(bufio.NewReader(bytes.NewReader(b)))
	if err != nil {
		return nil, err
	}
	doc := dr.Header().DeepCopy()
	for {
		e, err := dr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		doc.Entries = append(doc.Entries, *e)
	}
	return doc, nil
}

// DocumentReader decodes a census document one entry at a time. It
// expects the canonical layout (entries as the last field); fields after
// the entry array are ignored — ParseDocument remains the fully general
// path for foreign documents.
type DocumentReader struct {
	dec  *json.Decoder
	hdr  Document
	done bool
}

// NewDocumentReader parses the document header up to the entry array.
func NewDocumentReader(r io.Reader) (*DocumentReader, error) {
	dr := &DocumentReader{dec: json.NewDecoder(r)}
	tok, err := dr.dec.Token()
	if err != nil {
		return nil, fmt.Errorf("core: reading census document: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("core: census document does not start with an object")
	}
	for {
		tok, err := dr.dec.Token()
		if err != nil {
			return nil, fmt.Errorf("core: reading census header: %w", err)
		}
		if d, ok := tok.(json.Delim); ok && d == '}' {
			dr.done = true // no entries field at all
			return dr, nil
		}
		key, ok := tok.(string)
		if !ok {
			return nil, fmt.Errorf("core: unexpected token %v in census header", tok)
		}
		if key != "entries" {
			if err := dr.headerField(key); err != nil {
				return nil, err
			}
			continue
		}
		tok, err = dr.dec.Token()
		if err != nil {
			return nil, fmt.Errorf("core: reading entries field: %w", err)
		}
		switch d := tok.(type) {
		case nil: // "entries": null
			dr.done = true
			return dr, nil
		case json.Delim:
			if d == '[' {
				return dr, nil
			}
		}
		return nil, fmt.Errorf("core: entries field is neither an array nor null")
	}
}

// headerField decodes one scalar header field into the document.
func (dr *DocumentReader) headerField(key string) error {
	var dst any
	switch key {
	case "date":
		dst = &dr.hdr.Date
	case "family":
		dst = &dr.hdr.Family
	case "hitlist_size":
		dst = &dr.hdr.HitlistSize
	case "workers":
		dst = &dr.hdr.Workers
	case "gcd_confirmed":
		dst = &dr.hdr.GCount
	case "anycast_based_only":
		dst = &dr.hdr.MCount
	case "probes_anycast_stage":
		dst = &dr.hdr.ProbesAnycastStage
	case "probes_gcd_stage":
		dst = &dr.hdr.ProbesGCDStage
	case "probes_traceroute_stage":
		dst = &dr.hdr.ProbesTracerouteStage
	case "responsibility":
		dst = &dr.hdr.Responsibility
	default:
		var skip json.RawMessage
		dst = &skip
	}
	if err := dr.dec.Decode(dst); err != nil {
		return fmt.Errorf("core: decoding census header field %q: %w", key, err)
	}
	return nil
}

// Header returns the document's scalar fields (Entries stays nil).
func (dr *DocumentReader) Header() *Document { return &dr.hdr }

// Next decodes the next entry, or returns io.EOF after the last one.
func (dr *DocumentReader) Next() (*DocumentEntry, error) {
	if dr.done {
		return nil, io.EOF
	}
	if dr.dec.More() {
		var e DocumentEntry
		if err := dr.dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("core: decoding census entry: %w", err)
		}
		return &e, nil
	}
	if _, err := dr.dec.Token(); err != nil { // consume ']'
		return nil, fmt.Errorf("core: closing entries array: %w", err)
	}
	dr.done = true
	return nil, io.EOF
}
