package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"unicode/utf8"
)

// This file is the scanner the split (rows.go) runs on, and the walkers
// of a day-file's outer object it splits the rows of: a snapshot's
// header members, each with a lower-case key, then its entries last
// (document), and a delta's header, removals and upserts, each at most
// once (delta). Whitespace may stand between any two tokens. The header
// object (scalars and the governance block) is stepped over and handed
// to encoding/json; the row arrays are found row by row (storedRows),
// each row checked only where it is decoded (RowDecoder), and the
// removals are strings with no escape or control byte. On anything else
// the scanner declines, and the split decodes the whole file with
// encoding/json instead. RowDecoder's row walk runs on the same scanner.

// document walks a snapshot: the header's members are stepped over and
// then decoded together by encoding/json, and the entries field, which
// must come last, is read by entries unless it is `null`. It returns
// the header alone.
func (s *scanner) document(entries func()) (*Document, bool) {
	s.expect('{')
	hdrEnd := s.i // the header's members end here (just after '{' while there are none)
	for s.ok {
		k := s.lowerKey()
		s.expect(':')
		if string(k) != "entries" {
			// A header field: stepped over here, decoded below with the
			// rest of the header by encoding/json.
			s.skip()
			hdrEnd = s.i
			if s.more('}') {
				continue
			}
			return nil, false // no entries field: not a document the writer made
		}
		if s.peek() == 'n' {
			s.lit("null")
		} else {
			entries()
		}
		s.expect('}')
		s.end()
		if !s.ok {
			break
		}
		hdr := make([]byte, 0, hdrEnd+1)
		hdr = append(append(hdr, s.b[:hdrEnd]...), '}')
		var d Document
		if json.Unmarshal(hdr, &d) != nil {
			break
		}
		return &d, true
	}
	return nil, false
}

// delta walks a delta: each of its three fields at most once, the
// header decoded into hdr by encoding/json, the removals read by removed
// and the upserts by upserts.
func (s *scanner) delta(hdr *Document, removed, upserts func()) bool {
	var seen uint8
	s.expect('{')
	for s.ok {
		k := s.quoted() // matched against the schema's names: no escape gets through
		s.expect(':')
		var bit uint8
		switch string(k) {
		case "header":
			bit = 1
			if s.peek() != '{' {
				return false
			}
			start := s.i
			s.skip()
			if s.ok && json.Unmarshal(s.b[start:s.i], hdr) != nil {
				return false
			}
		case "removed":
			bit = 2
			removed()
		case "upserts":
			bit = 4
			upserts()
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.more('}') {
			break
		}
	}
	s.end()
	return s.ok
}

// scanner walks one day file. ok turns false at the first byte outside
// the grammar and stays false; every method is safe to call after that
// and does nothing useful, so callers check ok once per loop.
type scanner struct {
	b    []byte
	i    int
	ok   bool
	hint int // rows in the file, to size the row slices
}

// newScanner prepares a scan of b. No row the writer emits is shorter
// than 64 bytes, so len(b)/64 bounds the rows of the writer's bytes, and
// stays within the input's size whatever the bytes are.
func newScanner(b []byte) scanner {
	return scanner{b: b, ok: true, hint: len(b) / 64}
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	i := s.i
	for i < len(s.b) && (s.b[i] == ' ' || s.b[i] == '\n' || s.b[i] == '\t' || s.b[i] == '\r') {
		i++
	}
	s.i = i
}

// peek returns the next byte after whitespace, or 0 at the end.
func (s *scanner) peek() byte {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// expect consumes c after whitespace.
func (s *scanner) expect(c byte) {
	if s.peek() == c {
		s.i++
		return
	}
	s.ok = false
}

// end requires nothing but whitespace to follow.
func (s *scanner) end() {
	if s.peek() != 0 || s.i != len(s.b) {
		s.ok = false
	}
}

// more consumes the separator after a member or element: true after a
// comma, false after the closing byte (or on a decline).
func (s *scanner) more(close byte) bool {
	switch s.peek() {
	case ',':
		s.i++
		return true
	case close:
		s.i++
		return false
	}
	s.ok = false
	return false
}

// quoted returns the bytes up to the next '"' and steps past it. They
// alias the input, and they are a string's whole content only when they
// hold no backslash.
func (s *scanner) quoted() []byte {
	s.expect('"')
	j := bytes.IndexByte(s.b[s.i:], '"')
	if !s.ok || j < 0 {
		s.ok = false
		return nil
	}
	r := s.b[s.i : s.i+j]
	s.i += j + 1
	return r
}

// raw reads a string that needs no unquoting: valid UTF-8, no escape,
// no control byte.
func (s *scanner) raw() []byte {
	r := s.quoted()
	ascii := true
	for _, c := range r {
		if c < 0x20 || c == '\\' {
			s.ok = false
			return nil
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if !ascii && !utf8.Valid(r) {
		s.ok = false
	}
	return r
}

// lowerKey reads an object key made of lower-case ASCII letters, digits
// and underscores: no other key can fold onto one encoding/json matches.
func (s *scanner) lowerKey() []byte {
	k := s.quoted()
	for _, c := range k {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			s.ok = false
		}
	}
	return k
}

// skip steps over one JSON value without decoding it. It only has to
// find where a well-formed value ends: what it steps over is decoded by
// encoding/json afterwards, which rejects anything malformed.
func (s *scanner) skip() {
	s.ws()
	depth := 0
	for s.ok {
		if s.i >= len(s.b) {
			s.ok = false
			return
		}
		switch s.b[s.i] {
		case '"':
			s.skipString()
		case '{', '[':
			depth++
			s.i++
		case '}', ']':
			depth--
			s.i++
		case ',', ':', ' ', '\t', '\n', '\r':
			s.i++
		default: // a number or a literal
			for s.i < len(s.b) && strings.IndexByte("{}[],:\" \t\n\r", s.b[s.i]) < 0 {
				s.i++
			}
		}
		if depth <= 0 {
			s.ok = s.ok && depth == 0
			return
		}
	}
}

// skipString steps over a string, escapes included.
func (s *scanner) skipString() {
	for s.i++; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '\\':
			s.i++
		case '"':
			s.i++
			return
		}
	}
	s.i, s.ok = len(s.b), false
}
