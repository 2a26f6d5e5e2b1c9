package laces_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFuzzSmokeListsEveryTarget holds the fuzz-smoke table in
// .github/workflows/ci.yml to the tree: it lists exactly the module's
// `func Fuzz…` targets, each once and with the package that declares it,
// and the count in the step's name and the one the verify skill gives
// are the table's length.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	job := string(ci)
	start := strings.Index(job, "\n  fuzz-smoke:")
	if start < 0 {
		t.Fatal("ci.yml has no fuzz-smoke job")
	}
	job = job[start:]
	open, end := strings.Index(job, "<<'TABLE'\n"), strings.Index(job, "\n          TABLE\n")
	if open < 0 || end < open {
		t.Fatal("the fuzz-smoke job has no TABLE here-document")
	}
	var table []string
	for _, ln := range strings.Split(job[open+len("<<'TABLE'\n"):end], "\n") {
		f := strings.Fields(ln)
		if len(f) != 3 || f[2] != "on" && f[2] != "off" {
			t.Fatalf("fuzz-smoke row %q is not `target package on|off`", ln)
		}
		table = append(table, f[0]+" "+f[1])
	}

	fuzz := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	var tree []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzz.FindAllSubmatch(b, -1) {
			tree = append(tree, string(m[1])+" ./"+filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(tree)
	listed := slices.Sorted(slices.Values(table))
	if !slices.Equal(listed, tree) {
		t.Errorf("fuzz-smoke lists\n%s\nthe tree declares\n%s", strings.Join(listed, "\n"), strings.Join(tree, "\n"))
	}
	if n := len(slices.Compact(listed)); n != len(table) {
		t.Errorf("fuzz-smoke lists %d targets, %d of them distinct", len(table), n)
	}

	for _, c := range []struct{ file, text, pattern string }{
		{"ci.yml", job, `- name: fuzz \((\d+) targets`},
		{"SKILL.md", readFile(t, filepath.Join(".claude", "skills", "verify", "SKILL.md")), `the (\d+) targets and packages`},
	} {
		m := regexp.MustCompile(c.pattern).FindStringSubmatch(c.text)
		if m == nil {
			t.Errorf("%s gives no fuzz target count (%s)", c.file, c.pattern)
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n != len(table) {
			t.Errorf("%s counts %d fuzz targets, the fuzz-smoke table lists %d", c.file, n, len(table))
		}
	}
}

// readFile returns the file at path.
func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
