// Command laces-lint runs the project's static-analysis suite
// (internal/lint) over the requested packages and exits non-zero when
// any finding survives //laces:allow suppression. go test ./... runs the
// same suite over the module (internal/lint's TestTreeIsLintClean); this
// command runs it by hand, on any package pattern or module root.
//
// Usage:
//
//	laces-lint [flags] [packages]
//
//	laces-lint ./...                 lint the whole module
//	laces-lint -json ./...           machine-readable findings
//	laces-lint -list                 print the analyzer suite and exit
//	laces-lint -dir path ./...       lint a different module root
//
// On ./... it also runs the callers check (lint.Callers), which needs
// every package at once.
//
// Findings print as file:line:col: [analyzer] message. The audited
// escape hatch is a `//laces:allow <analyzer> <reason>` comment on, or
// immediately above, the offending line; malformed directives are
// findings themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"github.com/laces-project/laces/internal/lint"
)

func main() {
	var (
		dir      = flag.String("dir", ".", "module directory to lint from")
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		listOnly = flag.Bool("list", false, "list the analyzer suite and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: laces-lint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := lint.Suite()
	if *listOnly {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, a := range suite {
			fmt.Fprintf(tw, "%s\t%s\n", a.Name(), a.Doc())
		}
		tw.Flush()
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "laces-lint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, suite)
	if len(patterns) == 1 && patterns[0] == "./..." {
		diags = append(diags, lint.Callers(pkgs, *dir, lint.KeepList)...)
	}

	if *jsonOut {
		// Always an array, never null — consumers index without guarding.
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "laces-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "laces-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
