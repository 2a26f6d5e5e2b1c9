package core

import (
	"bytes"
	"encoding/json"
)

// The encoding/json forms the entry appender replaced, kept as the
// reference FuzzEncodeDocument and the byte-identity tests hold it to:
// every byte the codec writes must be one of these.

// refIndented is the canonical document as a json.Encoder with
// SetIndent("", "  ") writes it.
func refIndented(d *Document) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(d)
	return buf.Bytes(), err
}

// refCompact is a /v1/range line as json.Encoder.Encode writes it.
func refCompact(d *Document) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(d)
	return buf.Bytes(), err
}

// refDelta is the body of a delta file as json.Marshal writes it.
func refDelta(d *DocumentDelta) ([]byte, error) { return json.Marshal(d) }
