package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Marker is one parsed //dps:<name> source marker.
type Marker struct {
	Name string // "noalloc", "owned-by", "hook", ...
	Args string // everything after the name, trimmed ("sender", "via ExecuteSync", ...)
	Pos  token.Pos
}

const markerPrefix = "//dps:"

// parseMarker parses one comment line as a marker, or returns false. A
// marker comment is exactly "//dps:name" optionally followed by "=value"
// or whitespace-separated arguments.
func parseMarker(c *ast.Comment) (Marker, bool) {
	text, ok := strings.CutPrefix(c.Text, markerPrefix)
	if !ok {
		return Marker{}, false
	}
	name := text
	args := ""
	if i := strings.IndexAny(text, " \t="); i >= 0 {
		name = text[:i]
		args = strings.TrimSpace(strings.TrimPrefix(text[i:], "="))
	}
	if name == "" {
		return Marker{}, false
	}
	return Marker{Name: name, Args: args, Pos: c.Pos()}, true
}

// markersIn returns the markers of a comment group (nil-safe).
func markersIn(cg *ast.CommentGroup) []Marker {
	if cg == nil {
		return nil
	}
	var ms []Marker
	for _, c := range cg.List {
		if m, ok := parseMarker(c); ok {
			ms = append(ms, m)
		}
	}
	return ms
}

// findMarker returns the first marker with the given name across the given
// comment groups (a declaration's Doc and trailing line Comment).
func findMarker(name string, groups ...*ast.CommentGroup) (Marker, bool) {
	for _, g := range groups {
		for _, m := range markersIn(g) {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Marker{}, false
}

// lineMarkers collects, per file line, the markers with the given name
// anywhere in the file — the association mechanism for line-scoped
// suppressions (//dps:alloc-ok), which may sit on the
// offending line or on the line directly above it.
func lineMarkers(fset *token.FileSet, f *ast.File, name string) map[int]Marker {
	byLine := make(map[int]Marker)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m, ok := parseMarker(c)
			if !ok || m.Name != name {
				continue
			}
			byLine[fset.Position(c.Pos()).Line] = m
		}
	}
	return byLine
}

// suppressedAt reports whether a line-scoped marker covers the construct
// starting at line: the marker is on the same line or the line above.
func suppressedAt(byLine map[int]Marker, line int) bool {
	_, same := byLine[line]
	_, above := byLine[line-1]
	return same || above
}

// suppressions tracks one file's line-scoped suppression markers for one
// rule (//dps:owner-ok, //dps:publish-ok, //dps:errclass-ok), so the rule
// can consume them while checking and afterwards report markers that are
// missing a justification or suppress nothing at all. The stale check is
// what makes annotations load-bearing: deleting the annotation a
// suppression answers to turns the suppression stale and fails the lint.
type suppressions struct {
	marker string
	byLine map[int]Marker
	used   map[int]bool
}

func newSuppressions(fset *token.FileSet, f *ast.File, marker string) *suppressions {
	return &suppressions{
		marker: marker,
		byLine: lineMarkers(fset, f, marker),
		used:   make(map[int]bool),
	}
}

// covers consumes the suppression for a diagnostic at line, if one is
// present on the same line or the line above.
func (s *suppressions) covers(line int) bool {
	if _, ok := s.byLine[line]; ok {
		s.used[line] = true
		return true
	}
	if _, ok := s.byLine[line-1]; ok {
		s.used[line-1] = true
		return true
	}
	return false
}

// report emits the file's suppression hygiene diagnostics: every marker
// needs a justification, and every marker must actually suppress
// something.
func (s *suppressions) report(fset *token.FileSet, rule string) []Diagnostic {
	var diags []Diagnostic
	for line, mk := range s.byLine {
		switch {
		case mk.Args == "":
			diags = append(diags, Diagnostic{
				Pos:  fset.Position(mk.Pos),
				Rule: rule,
				Msg:  "//dps:" + s.marker + " needs a justification",
			})
		case !s.used[line]:
			diags = append(diags, Diagnostic{
				Pos:  fset.Position(mk.Pos),
				Rule: rule,
				Msg:  "stale //dps:" + s.marker + ": no " + rule + " diagnostic here to suppress",
			})
		}
	}
	return diags
}
