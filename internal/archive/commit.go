package archive

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the store's write seam: the only code in internal/archive
// and internal/query that creates, renames, removes or truncates a file.
// A whole file — a day file, timeline.idx, its .agg sidecar — is
// committed by CommitFile; index.jsonl, the one file that is appended
// to, is opened, repaired and appended here, and its line has its one
// grammar here: appendIndex writes json.Marshal's form of a Record, and
// readRecord reads it back.

// CommitFile replaces the file at path with the bytes write produces.
// They go through a buffer into a tmp file next to path, which is
// flushed, closed and renamed over path, so path holds its earlier bytes
// until the whole new file appears at once. On any failure the tmp file
// is removed, path is left as it was and the error is returned; an error
// from write comes back unwrapped.
func CommitFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("archive: committing %s: %w", filepath.Base(path), err)
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// openIndexLog opens dir's index.jsonl for appending, creating it when
// absent. A resuming writer passes the archive it replayed: Open skipped
// a torn final line (an append that died mid-write), which O_APPEND
// would glue the next record onto, and the archive would stop opening.
// The log is cut back to the records Open accepted, and a last record
// that lost only its newline is terminated.
func openIndexLog(dir string, resume *Archive) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, IndexFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: opening index: %w", err)
	}
	if resume == nil {
		return f, nil
	}
	if err := f.Truncate(resume.indexEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: truncating torn index tail: %w", err)
	}
	if resume.indexOpen {
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, fmt.Errorf("archive: terminating index: %w", err)
		}
	}
	return f, nil
}

// appendIndex writes rec as the next line of the index log: the moment
// the day it names becomes part of the archive. The line is
// json.Marshal's, which readRecord reads back.
func appendIndex(log *os.File, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := log.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("archive: appending index record: %w", err)
	}
	return nil
}

// readRecord decodes one index line, a substring of the index Open read:
// parseRecord's read when the line is in the form appendIndex writes,
// json.Unmarshal's record or error otherwise.
func readRecord(line string) (Record, error) {
	if rec, ok := parseRecord(line); ok {
		return rec, nil
	}
	var rec Record
	err := json.Unmarshal([]byte(line), &rec)
	return rec, err
}

// parseRecord reads line as json.Marshal writes a Record the writer
// makes, and reports whether it is one: every field in struct order
// behind its key, no space, each integer in strconv's form within its
// type, and each string plain ASCII with no byte json.Marshal escapes
// (nor '<', '>' or '&', which it escapes too). The family and kind are
// the constants check accepts and the other strings substrings of line,
// so a record costs no allocation. Any other line (a torn one, a key
// reordered, unknown, repeated or in another case, an escape, an
// exponent, a leading zero, -0, a value out of range, another family or
// kind) is declined, for json.Unmarshal to decide.
func parseRecord(line string) (rec Record, ok bool) {
	p := recordScanner{s: line, ok: true}
	rec.Seq = int(p.signed(`{"seq":`, strconv.IntSize))
	rec.Day = int(p.signed(`,"day":`, strconv.IntSize))
	rec.Family = p.oneOf(`,"family":`, "ipv4", "ipv6")
	rec.Date = p.str(`,"date":`)
	rec.Kind = p.oneOf(`,"kind":`, KindSnapshot, KindDelta)
	rec.File = p.str(`,"file":`)
	rec.Bytes = p.signed(`,"bytes":`, 64)
	rec.FullBytes = p.signed(`,"full_bytes":`, 64)
	rec.CRC = uint32(p.unsigned(`,"crc32c":`, math.MaxUint32))
	rec.Entries = int(p.signed(`,"entries":`, strconv.IntSize))
	rec.GCount = int(p.signed(`,"gcd_confirmed":`, strconv.IntSize))
	rec.MCount = int(p.signed(`,"anycast_based_only":`, strconv.IntSize))
	rec.Probes = p.signed(`,"probes":`, 64)
	p.key("}")
	return rec, p.ok && p.i == len(line)
}

// recordScanner steps through an index line for parseRecord; ok turns
// false at the first byte out of form, and every step after is a no-op.
type recordScanner struct {
	s  string
	i  int
	ok bool
}

// key steps over tok, the literal before a field's value.
func (p *recordScanner) key(tok string) {
	if p.ok = p.ok && strings.HasPrefix(p.s[p.i:], tok); p.ok {
		p.i += len(tok)
	}
}

// unsigned reads, after key, an unsigned integer as strconv writes it
// ("0", or a digit other than '0' and more digits) of at most limit.
func (p *recordScanner) unsigned(key string, limit uint64) uint64 {
	p.key(key)
	if !p.ok {
		return 0
	}
	s, i := p.s, p.i
	var v uint64
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		if v > (limit-uint64(s[i]-'0'))/10 {
			p.ok = false
			return 0
		}
		v = 10*v + uint64(s[i]-'0')
	}
	p.ok = i > p.i && (s[p.i] != '0' || i == p.i+1)
	p.i = i
	return v
}

// signed reads, after key, an integer as strconv writes it: unsigned's
// form, with a '-' before any but 0, within an int of bits bits.
func (p *recordScanner) signed(key string, bits int) int64 {
	p.key(key)
	neg := p.ok && p.i < len(p.s) && p.s[p.i] == '-'
	if neg {
		p.i++
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	v := p.unsigned("", limit)
	if neg {
		p.ok = p.ok && v != 0
		return -int64(v)
	}
	return int64(v)
}

// str reads, after key, a string of the bytes json.Marshal writes as
// they are, ASCII but for '<', '>' and '&', as a substring of the line.
func (p *recordScanner) str(key string) string {
	p.key(key)
	p.key(`"`)
	if !p.ok {
		return ""
	}
	for i := p.i; i < len(p.s); i++ {
		switch c := p.s[i]; {
		case c == '"':
			v := p.s[p.i:i]
			p.i = i + 1
			return v
		case c < 0x20 || c > 0x7e || c == '\\' || c == '<' || c == '>' || c == '&':
			p.ok = false
			return ""
		}
	}
	p.ok = false
	return ""
}

// oneOf reads, after key, a string that is a or b, and returns that
// constant.
func (p *recordScanner) oneOf(key, a, b string) string {
	switch v := p.str(key); {
	case !p.ok:
	case v == a:
		return a
	case v == b:
		return b
	default:
		p.ok = false
	}
	return ""
}
