package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"unicode/utf8"
)

// This file is the entry appender the write half of the codec runs on:
// DocumentEntry rows and the compact header of a document or delta
// appended to a []byte exactly as encoding/json writes them, with no
// reflection. It follows
// the struct's field order and its omitempty rules (an empty name list
// is omitted whether nil or not; Document.Entries, which has no
// omitempty, is `null` when nil and `[]` when empty). A string with
// nothing encoding/json would escape — no control byte, '"', '\\', '<',
// '>' or '&', valid UTF-8 without U+2028 or U+2029 — is copied as it
// is; any other goes through json.Marshal on its own, so the bytes stay
// exact. A document's header (scalars and the governance block) is
// still rendered by encoding/json, once per document.

// entryLayout is the whitespace one form of the encoding puts around an
// entry's tokens.
type entryLayout struct {
	member string // before each member of the entry, and before a name list's ']'
	elem   string // before each element of a name list
	end    string // before the entry's '}'
	colon  string // between a key and its value
}

var (
	// compactLayout is json.Marshal's form.
	compactLayout = entryLayout{colon: ":"}
	// indentLayout is MarshalIndent(e, entryElementIndent, "  "): an
	// element of the canonical document's entry array.
	indentLayout = entryLayout{
		member: "\n" + entryElementIndent + "  ",
		elem:   "\n" + entryElementIndent + "    ",
		end:    "\n" + entryElementIndent,
		colon:  ": ",
	}
)

// key appends the comma ending the previous member and the next key.
func (l *entryLayout) key(b []byte, k string) []byte {
	b = append(append(b, ','), l.member...)
	return append(append(b, k...), l.colon...)
}

// names appends a non-empty list of strings.
func (l *entryLayout) names(b []byte, names []string) []byte {
	b = append(b, '[')
	for i, s := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendJSONString(append(b, l.elem...), s)
	}
	return append(append(b, l.member...), ']')
}

// appendEntry appends e in layout l.
func appendEntry(b []byte, e *DocumentEntry, l *entryLayout) []byte {
	b = append(append(b, '{'), l.member...)
	b = AppendJSONString(append(append(b, `"prefix"`...), l.colon...), e.Prefix)
	b = strconv.AppendUint(l.key(b, `"origin_asn"`), uint64(e.OriginASN), 10)
	if len(e.ACProtocols) > 0 {
		b = l.names(l.key(b, `"anycast_based_protocols"`), e.ACProtocols)
	}
	if e.MaxReceivers != 0 {
		b = strconv.AppendInt(l.key(b, `"anycast_based_vps"`), int64(e.MaxReceivers), 10)
	}
	if e.FromFeedback {
		b = append(l.key(b, `"from_feedback"`), "true"...)
	}
	b = strconv.AppendBool(l.key(b, `"gcd_measured"`), e.GCDMeasured)
	b = strconv.AppendBool(l.key(b, `"gcd_anycast"`), e.GCDAnycast)
	if e.GCDSites != 0 {
		b = strconv.AppendInt(l.key(b, `"gcd_sites"`), int64(e.GCDSites), 10)
	}
	if len(e.GCDCities) > 0 {
		b = l.names(l.key(b, `"gcd_cities"`), e.GCDCities)
	}
	if e.GCDVPs != 0 {
		b = strconv.AppendInt(l.key(b, `"gcd_vps"`), int64(e.GCDVPs), 10)
	}
	if e.PartialAnycast {
		b = append(l.key(b, `"partial_anycast"`), "true"...)
	}
	if e.GlobalBGP {
		b = append(l.key(b, `"global_bgp"`), "true"...)
	}
	return append(append(b, l.end...), '}')
}

// AppendJSONString appends s quoted as encoding/json quotes it: the one
// string appender of every body written without reflection.
func AppendJSONString(b []byte, s string) []byte {
	if !plainString(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	return append(append(append(b, '"'), s...), '"')
}

// plainString reports whether encoding/json writes s between its quotes
// unchanged.
func plainString(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// appendHeader appends the document up to its entries' value, in the
// canonical indented form (indent) or as json.Marshal writes it. It
// encodes the header with a nil entry slice and cuts off the trailing
// `null`, which keeps the bytes in lockstep with the Document struct
// without a hand-maintained field list.
func appendHeader(b []byte, d *Document, indent bool) ([]byte, error) {
	shell := *d
	shell.Entries = nil
	var h []byte
	var err error
	tail := "null}"
	if indent {
		h, err = json.MarshalIndent(&shell, "", "  ")
		tail = "null\n}"
	} else {
		h, err = json.Marshal(&shell)
	}
	if err != nil {
		return b, err
	}
	if !bytes.HasSuffix(h, []byte(tail)) {
		return b, errEntriesNotLast
	}
	return append(b, h[:len(h)-len(tail)]...), nil
}

// errEntriesNotLast is what a header that does not end in its entries
// field fails with: every form the codec writes appends the rows there.
var errEntriesNotLast = errors.New("core: document header did not end in an empty entries field (entries must be the last field)")
