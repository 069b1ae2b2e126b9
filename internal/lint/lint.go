// Package lint is dpslint: a dependency-free static-analysis pass that
// machine-checks the delegation runtime's invariants that neither the Go
// compiler, go vet nor the test suite catches. It is built on go/ast,
// go/parser and go/types only (go.mod gains no dependencies) and loads
// every package in the module through a small source importer (load.go).
//
// Every rule is keyed off a //dps: source marker, so checks are opt-in
// and the marked code is self-documenting. The rules, their markers and
// the mutant each one alone catches are listed once, in DESIGN.md §8.
// The markers themselves are validated by the marker rule: unknown names
// (including the markers of deleted rules), unknown //dps:check rules,
// empty owned-by/domain values and duplicated markers are diagnostics,
// never silent no-ops.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Run applies every analyzer rule to the loaded module and returns the
// diagnostics sorted by position.
func Run(m *Module) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, noalloc(m)...)
	diags = append(diags, hookguard(m)...)
	diags = append(diags, owner(m)...)
	diags = append(diags, publishorder(m)...)
	diags = append(diags, markercheck(m)...)
	sortDiags(diags)
	return diags
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
