// Command dpslint runs the DPS static-analysis pass over the module: it
// loads and type-checks every package with nothing but the standard
// library's go/ast, go/parser and go/types and applies the invariant rules
// of internal/lint (listed, with their markers, in DESIGN.md §8). Exit
// status 1 when any diagnostic fires.
//
// Usage:
//
//	dpslint [-C dir] [-json]
//
// -C names any directory inside the module to lint (default ".").
// -json prints one JSON object per diagnostic on stdout
// ({"file","line","col","rule","msg"}, one per line) for machine
// consumers — CI problem matchers, editors — while the human summary
// moves to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dps/internal/lint"
)

// jsonDiag is the machine-readable diagnostic shape, one object per
// line. .github/dpslint-problem-matcher.json parses exactly this, so the
// field order and names are part of the CI contract.
type jsonDiag struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func main() {
	dir := flag.String("C", ".", "lint the module containing this directory")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON lines on stdout")
	flag.Parse()

	start := time.Now()
	m, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpslint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(m)
	elapsed := time.Since(start)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			enc.Encode(jsonDiag{
				File: d.Pos.Filename,
				Line: d.Pos.Line,
				Col:  d.Pos.Column,
				Rule: d.Rule,
				Msg:  d.Msg,
			})
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dpslint: %d problem(s) in %v\n", len(diags), elapsed.Round(time.Millisecond))
		os.Exit(1)
	}
	files := 0
	for _, p := range m.Pkgs {
		files += len(p.Files)
	}
	fmt.Fprintf(os.Stderr, "dpslint: %d packages (%d files) clean in %v\n", len(m.Pkgs), files, elapsed.Round(time.Millisecond))
}
