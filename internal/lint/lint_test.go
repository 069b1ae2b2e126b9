package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRE matches golden expectations in testdata:
//
//	// want rule "substring of the message"
//	// want(+1) rule "substring"   (diagnostic expected N lines below)
var wantRE = regexp.MustCompile(`^// want(?:\(([+-]\d+)\))? ([a-z]+) "([^"]*)"$`)

type expectation struct {
	file    string
	line    int
	rule    string
	substr  string
	matched bool
}

// TestGolden runs the full analyzer over each seeded testdata package and
// matches diagnostics against the // want comments bidirectionally: every
// diagnostic must be expected at its exact file:line, and every expectation
// must fire.
func TestGolden(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		seen[filepath.Base(dir)] = true
		t.Run(filepath.Base(dir), func(t *testing.T) {
			m, err := LoadDir(dir)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			diags := Run(m)
			if len(diags) == 0 {
				t.Fatalf("no diagnostics at all from %s; the rule is not firing", dir)
			}

			var wants []*expectation
			for _, pkg := range m.Pkgs {
				for _, f := range pkg.Files {
					for _, cg := range f.Comments {
						for _, c := range cg.List {
							mm := wantRE.FindStringSubmatch(c.Text)
							if mm == nil {
								continue
							}
							off := 0
							if mm[1] != "" {
								off, _ = strconv.Atoi(mm[1])
							}
							pos := m.Fset.Position(c.Pos())
							wants = append(wants, &expectation{
								file:   filepath.Base(pos.Filename),
								line:   pos.Line + off,
								rule:   mm[2],
								substr: mm[3],
							})
						}
					}
				}
			}
			if len(wants) == 0 {
				t.Fatalf("no // want expectations found in %s", dir)
			}

			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.matched &&
						w.file == filepath.Base(d.Pos.Filename) &&
						w.line == d.Pos.Line &&
						w.rule == d.Rule &&
						strings.Contains(d.Msg, w.substr) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("expectation did not fire: %s:%d: %s %q", w.file, w.line, w.rule, w.substr)
				}
			}
		})
	}
	for _, rule := range []string{"noalloc", "hookguard", "owner", "publishorder", "marker"} {
		if !seen[rule] {
			t.Errorf("no golden package for rule %s under testdata/src", rule)
		}
	}
	// A deleted rule keeps a golden package seeding its leftover markers,
	// which the marker rule must go on refusing.
	for _, rule := range []string{"atomicmix", "errclass", "padcheck", "pinned", "spinloop", "wirealloc"} {
		if !seen[rule] {
			t.Errorf("no golden package for the leftover markers of deleted rule %s under testdata/src", rule)
		}
	}
}

// TestRepoIsClean is the self-test: the annotated runtime must pass every
// rule with zero diagnostics.
func TestRepoIsClean(t *testing.T) {
	m, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, d := range Run(m) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}
