package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// walk visits every node below c with the words that reach it.
func walk(c *command, path []string, visit func(c *command, path []string)) {
	for _, s := range c.sub {
		p := append(path[:len(path):len(path)], s.name)
		visit(s, p)
		walk(s, p, visit)
	}
}

// TestCommandTable pins the table's own invariants: every node is
// reachable by a unique lower-case name and documented, every runnable
// node has a usage line and declares its flags without panicking (a flag
// declared twice would), and `laces help` is the table, nothing else.
func TestCommandTable(t *testing.T) {
	leaves := 0
	walk(root, nil, func(c *command, path []string) {
		name := strings.Join(path, " ")
		if c.name == "" || c.name != strings.ToLower(c.name) || strings.Contains(c.name, " ") || c.name[0] == '-' {
			t.Errorf("%q: name is empty, not lower-case, spaced or flag-like", name)
		}
		if c.summary == "" {
			t.Errorf("%q: no summary", name)
		}
		if c.setup == nil && len(c.sub) == 0 {
			t.Errorf("%q: neither runnable nor a group", name)
		}
		seen := map[string]bool{}
		for _, s := range c.sub {
			if seen[s.name] {
				t.Errorf("%q: subcommand %q listed twice", name, s.name)
			}
			seen[s.name] = true
		}
		if c.setup == nil {
			return
		}
		leaves++
		if c.usage == "" {
			t.Errorf("%q: runnable without a usage line", name)
		}
		fs, run := c.flagSet(path, flag.ContinueOnError)
		if run == nil || fs.Name() != name {
			t.Errorf("%q: flag set %q, run %v", name, fs.Name(), run != nil)
		}
		// -h prints the table's summary and synopsis above the flags.
		var help bytes.Buffer
		fs.SetOutput(&help)
		if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
			t.Errorf("%q -h: %v", name, err)
		}
		if want := "Usage of " + name + ": " + c.summary + "\n  laces " + name + " " + c.usage + "\n"; !strings.HasPrefix(help.String(), want) {
			t.Errorf("%q -h starts\n%s\nwant\n%s", name, help.String(), want)
		}
	})
	if leaves < 21 {
		t.Errorf("walked %d runnable commands, want the 21 the CLI has had", leaves)
	}

	var want bytes.Buffer
	root.writeHelp(&want)
	if code, got := run(t, "help"); code != 0 || got != want.String() {
		t.Errorf("`laces help` (exit %d) is not the table's rendering:\n%s", code, got)
	}
	for _, s := range root.sub {
		if !strings.Contains(want.String(), "\n  "+s.name+" ") || !strings.Contains(want.String(), s.summary+"\n") {
			t.Errorf("help omits %q", s.name)
		}
	}
}

// inlineCode matches a Markdown code span.
var inlineCode = regexp.MustCompile("`([^`]+)`")

// readmeInvocations returns the argument list of every invocation of bin
// the README shows: lines of fenced code blocks and inline code spans
// whose first word is bin. Trailing # comments and "..." are dropped, and
// a one-capital placeholder (N, M) stands for a number.
func readmeInvocations(t *testing.T, bin string) [][]string {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	fenced := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		shown := []string{line}
		if !fenced {
			shown = nil
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				shown = append(shown, m[1])
			}
		}
		for _, text := range shown {
			text, _, _ = strings.Cut(text, "#")
			words := strings.Fields(text)
			if len(words) < 2 || strings.TrimPrefix(words[0], "./") != bin {
				continue
			}
			var args []string
			for _, w := range words[1:] {
				switch {
				case w == "...":
				case len(w) == 1 && w[0] >= 'A' && w[0] <= 'Z':
					args = append(args, "1")
				default:
					args = append(args, w)
				}
			}
			out = append(out, args)
		}
	}
	return out
}

// TestReadmeInvocations resolves every `laces …` invocation the README
// documents against the command table and parses its flags with the
// leaf's own FlagSet — without running anything — so a renamed flag or
// subcommand cannot outlive its documentation.
func TestReadmeInvocations(t *testing.T) {
	invocations := readmeInvocations(t, "laces")
	if len(invocations) < 30 {
		t.Fatalf("found only %d invocations in the README; the extractor is broken", len(invocations))
	}
	for _, args := range invocations {
		shown := "laces " + strings.Join(args, " ")
		node, path, rest := root.resolve(args)
		if node.setup == nil {
			// Fine: a bare mention of a group (`laces archive`), `laces help`.
			if node == root && !slices.Contains(helpWords, rest[0]) || node != root && len(rest) > 0 {
				t.Errorf("%s: no such subcommand", shown)
			}
			continue
		}
		fs, _ := node.flagSet(path, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(rest); err != nil {
			t.Errorf("%s: %v", shown, err)
		}
	}
}
