package archive

import (
	"errors"
	"io"
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
