package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestOnlyResolvedBeforeRunning: every -only name is checked against the
// catalog before the world is built or any experiment computed — `-only
// table2,nope` used to print Table 2 and then fail — and the error lists
// the names that would have worked.
func TestOnlyResolvedBeforeRunning(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-scale", "test", "-only", "table2,nope"}, &stdout, &stderr)
	if code != 1 || err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Fatalf("exit %d, err %v; want 1 and the unknown name", code, err)
	}
	for _, valid := range []string{"table1", "fig7", "chaos", "fig10"} {
		if !strings.Contains(err.Error(), valid) {
			t.Errorf("error does not list %q among the valid names: %v", valid, err)
		}
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("work was done before the bad name was reported:\n%s%s", stdout.String(), stderr.String())
	}

	// Names are case- and space-insensitive, aliases count, order is kept.
	o, _, err := parse([]string{"-only", "FIG13, table1,resilience"}, flag.ContinueOnError, io.Discard)
	if err != nil || len(o.only) != 3 || o.only[0].Name != "fig7" || o.only[1].Name != "table1" || o.only[2].Name != "chaos" {
		t.Fatalf("parsed %+v, err %v", o.only, err)
	}
}

// TestPositionalArgumentsRejected: `laces-experiments chaos` used to
// ignore the word and run the whole suite at default scale.
func TestPositionalArgumentsRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code, err := run([]string{"-scale", "test", "chaos"}, &stdout, &stderr)
	if code != 2 || err == nil || !strings.Contains(err.Error(), `"chaos"`) || !strings.Contains(err.Error(), "-only") {
		t.Fatalf("exit %d, err %v; want 2 and a pointer to -only", code, err)
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("work was done before the argument was rejected:\n%s%s", stdout.String(), stderr.String())
	}
	if _, code, err := parse([]string{"-scale", "huge"}, flag.ContinueOnError, io.Discard); code != 2 || err == nil {
		t.Fatalf("bad -scale: exit %d, err %v; want 2", code, err)
	}
}

// TestReadmeInvocations parses every `laces-experiments …` invocation the
// README shows — fenced code lines and inline code spans, trailing #
// comments dropped — with the binary's own flag set, which also resolves
// each -only name against the catalog. (cmd/laces has the same test for
// its command table.)
func TestReadmeInvocations(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	inlineCode := regexp.MustCompile("`([^`]+)`")
	found, fenced := 0, false
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
			if len(words) < 2 || strings.TrimPrefix(words[0], "./") != "laces-experiments" {
				continue
			}
			found++
			if _, _, err := parse(words[1:], flag.ContinueOnError, io.Discard); err != nil {
				t.Errorf("%s: %v", strings.Join(words, " "), err)
			}
		}
	}
	if found < 2 {
		t.Fatalf("found only %d invocations in the README; the extractor is broken", found)
	}
}
