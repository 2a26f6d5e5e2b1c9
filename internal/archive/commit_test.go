package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommitFile is CommitFile's contract: a write that fails leaves the
// earlier bytes at path and no tmp file, its error comes back, and a
// write that succeeds replaces the bytes whole, over a stale tmp file
// too.
func TestCommitFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "day.json")
	if err := os.WriteFile(path, []byte("earlier\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := CommitFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, strings.Repeat("half a file ", 1<<12)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("CommitFile returned %v, want the write's error", err)
	}
	assertFile(t, path, "earlier\n")

	if err := os.WriteFile(path+".tmp", []byte("stale tmp from a dead commit"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CommitFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "later\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	assertFile(t, path, "later\n")
}

// assertFile requires path to hold want and no tmp file beside it.
func assertFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", filepath.Base(path), got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("a tmp file is left beside %s (stat: %v)", filepath.Base(path), err)
	}
}

// TestRecordLineFallbacks: a line out of the form appendIndex writes is
// declined by parseRecord and read by json.Unmarshal, record or error,
// whatever it holds. The lines are edits of one the writer writes, which
// parseRecord reads.
func TestRecordLineFallbacks(t *testing.T) {
	rec := Record{Seq: 7, Day: 3, Family: "ipv6", Date: "2024-01-04", Kind: KindDelta, File: dayFileName("ipv6", 3, KindDelta),
		Bytes: 1234, FullBytes: 56789, CRC: 4000000000, Entries: 42, GCount: 30, MCount: 12, Probes: -1}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	if got, ok := parseRecord(line); !ok || got != rec {
		t.Fatalf("parseRecord(%s) = %+v, %v; want the record the line was written from", line, got, ok)
	}
	edit := func(old, new string) string {
		if !strings.Contains(line, old) {
			t.Fatalf("%q is not in %s", old, line)
		}
		return strings.Replace(line, old, new, 1)
	}
	for _, tc := range []struct{ name, line string }{
		{"torn tail", line[:len(line)/2]},
		{"no closing brace", line[:len(line)-1]},
		{"trailing space", line + " "},
		{"carriage return", line + "\r"},
		{"space after a colon", edit(`"seq":7`, `"seq": 7`)},
		{"reordered keys", edit(`{"seq":7,"day":3,`, `{"day":3,"seq":7,`)},
		{"unknown key", edit(`,"probes"`, `,"note":"x","probes"`)},
		{"key in another case", edit(`"entries"`, `"Entries"`)},
		{"duplicate key", edit(`,"probes":-1`, `,"probes":-1,"probes":9`)},
		{"escaped family", edit(`"ipv6",`, `"ipv\u0036",`)},
		{"escaped slash in the date", edit(`2024-01-04`, `2024\/01\/04`)},
		{"escaped html in the date", edit(`2024-01-04`, `\u003c2024\u003e`)},
		{"raw html in the date", edit(`2024-01-04`, `<2024&>`)},
		{"non-ASCII date", edit(`2024-01-04`, `2024–01–04`)},
		{"control byte in the date", edit(`2024-01-04`, "2024\t01")},
		{"unknown family", edit(`"ipv6",`, `"ipv9",`)},
		{"unknown kind", edit(`"delta"`, `"full"`)},
		{"null string", edit(`"2024-01-04"`, `null`)},
		{"exponent", edit(`"bytes":1234`, `"bytes":1.234e3`)},
		{"fraction", edit(`"entries":42`, `"entries":42.0`)},
		{"leading zero", edit(`"day":3`, `"day":03`)},
		{"plus sign", edit(`"day":3`, `"day":+3`)},
		{"minus zero", edit(`"gcd_confirmed":30`, `"gcd_confirmed":-0`)},
		{"negative crc", edit(`"crc32c":4000000000`, `"crc32c":-1`)},
		{"crc out of range", edit(`"crc32c":4000000000`, `"crc32c":4294967296`)},
		{"int64 out of range", edit(`"full_bytes":56789`, `"full_bytes":9223372036854775808`)},
		{"int64 below range", edit(`"probes":-1`, `"probes":-9223372036854775809`)},
		{"uint64 overflow", edit(`"seq":7`, `"seq":18446744073709551616`)},
		{"quoted number", edit(`"seq":7`, `"seq":"7"`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, ok := parseRecord(tc.line); ok {
				t.Fatalf("parseRecord read %s as %+v; it should leave the line to json.Unmarshal", tc.line, got)
			}
			var want Record
			werr := json.Unmarshal([]byte(tc.line), &want)
			got, err := readRecord(tc.line)
			if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("readRecord(%s) = %+v, %v; json.Unmarshal: %+v, %v", tc.line, got, err, want, werr)
			}
		})
	}
	for _, v := range []string{"-9223372036854775808", "9223372036854775807", "0"} {
		l := edit(`"probes":-1`, `"probes":`+v)
		if _, ok := parseRecord(l); !ok {
			t.Errorf("parseRecord declined %s, in json.Marshal's form", l)
		}
		checkRecordLine(t, []byte(l))
	}
}

// TestDayFileNameIsSprintf holds the writer's day-file namer, and the
// append form check compares records with, to the fmt verb they replace.
func TestDayFileNameIsSprintf(t *testing.T) {
	for _, day := range []int{0, 1, 7, 99999, 999999, 1000000, 1234567, -1, -9999, -99999, -100000, math.MaxInt, math.MinInt} {
		for _, kind := range []string{KindSnapshot, KindDelta, "full"} {
			ext := "delta"
			if kind == KindSnapshot {
				ext = "snap"
			}
			want := fmt.Sprintf("%s-%06d.%s.json", "ipv4", day, ext)
			if got := dayFileName("ipv4", day, kind); got != want {
				t.Errorf("dayFileName(ipv4, %d, %s) = %q, want %q", day, kind, got, want)
			}
			if got := string(appendDayFileName([]byte("x/"), "ipv4", day, kind)); got != "x/"+want {
				t.Errorf("appendDayFileName after x/ = %q, want %q", got, "x/"+want)
			}
		}
	}
}
