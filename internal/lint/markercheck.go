package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// knownMarkers is the complete //dps: marker vocabulary. Anything else
// under the prefix is a typo, or the marker of a deleted rule, that would
// otherwise silently opt code out of the checks it believes it is under.
var knownMarkers = map[string]bool{
	"noalloc":    true,
	"alloc-ok":   true,
	"hook":       true,
	"owned-by":   true,
	"domain":     true,
	"owner-ok":   true,
	"publish":    true,
	"publishes":  true,
	"publish-ok": true,
}

// markercheck validates the markers themselves: an unknown marker name, an
// //dps:owned-by or //dps:domain with an empty value, and duplicate
// same-name markers on one declaration are each a diagnostic rather than a
// silent no-op. The rules the markers
// key are opt-in; a misspelled marker is the worst kind of lint bug — the
// author believes the invariant is machine-checked and it is not.
func markercheck(m *Module) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{Pos: m.Fset.Position(pos), Rule: "marker", Msg: msg})
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				seen := make(map[string]bool)
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, markerPrefix) {
						continue
					}
					mk, ok := parseMarker(c)
					switch {
					case !ok:
						report(c.Pos(), "malformed //dps: marker (empty name)")
					case !knownMarkers[mk.Name]:
						report(mk.Pos, fmt.Sprintf("unknown marker //dps:%s (known: %s)", mk.Name, strings.Join(sortedKeys(knownMarkers), ", ")))
					case seen[mk.Name]:
						report(mk.Pos, fmt.Sprintf("duplicate //dps:%s marker on one declaration", mk.Name))
					case (mk.Name == "owned-by" || mk.Name == "domain") && mk.Args == "":
						report(mk.Pos, fmt.Sprintf("//dps:%s needs a domain name (//dps:%s=<name>)", mk.Name, mk.Name))
					}
					seen[mk.Name] = true
				}
			}
		}
	}
	return diags
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
