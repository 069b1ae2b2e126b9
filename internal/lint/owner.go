package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// owner enforces //dps:owned-by: a field annotated
//
//	//dps:owned-by=<domain>
//
// is single-writer protocol state — the sender-private cursors of a
// thread, a claimed ring's consume cursor, the redial loop's jitter seed
// — and may be plainly read or written only inside functions belonging
// to that domain. A function's domain is declared with //dps:domain=<n>
// on its doc comment or inferred by reachability: every domain whose
// annotated roots reach the function through same-goroutine call edges
// (edges through `go` statements are domain boundaries; declared domains
// are propagation barriers). An access from the wrong domain, from a
// function no domain reaches, or from a function reachable from several
// domains must carry a line-scoped
//
//	//dps:owner-ok <why>
//
// suppression. Suppressions must be justified and must suppress
// something — a stale //dps:owner-ok is itself a diagnostic, so deleting
// an annotation out from under its suppressions fails the lint.
func owner(m *Module) []Diagnostic {
	const rule = "owner"
	var diags []Diagnostic

	owned := structFieldMarkers(m, "owned-by")
	for v, domain := range owned {
		if domain == "" {
			delete(owned, v) // malformed; the marker rule reports it
		}
	}
	if len(owned) == 0 {
		return nil
	}
	di := buildDomains(m)

	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ok := newSuppressions(m.Fset, f, "owner-ok")
			for _, d := range f.Decls {
				fd, isFn := d.(*ast.FuncDecl)
				if !isFn || fd.Body == nil {
					continue
				}
				fn := funcDeclObj(pkg, fd)
				lits := goLaunchedLits(fd.Body)
				walkParents(fd.Body, func(c cursor) bool {
					sel, isSel := c.node.(*ast.SelectorExpr)
					if !isSel {
						return true
					}
					s, found := pkg.Info.Selections[sel]
					if !found || s.Kind() != types.FieldVal {
						return true
					}
					field, isVar := s.Obj().(*types.Var)
					if !isVar {
						return true
					}
					domain, marked := owned[field.Origin()]
					if !marked {
						return true
					}
					var have []string
					if !inGoroutineLit(c, lits) {
						have = di.domainsOf(fn)
					}
					if len(have) == 1 && have[0] == domain {
						return true
					}
					if ok.covers(m.Fset.Position(sel.Sel.Pos()).Line) {
						return true
					}
					msg := ""
					switch {
					case len(have) == 0:
						msg = fmt.Sprintf("field %s is owned by domain %q but %s has no ownership domain (declare //dps:domain or suppress with //dps:owner-ok)",
							field.Name(), domain, funcLabel(fd, c, lits))
					case len(have) == 1:
						msg = fmt.Sprintf("field %s is owned by domain %q but %s runs in domain %q",
							field.Name(), domain, funcLabel(fd, c, lits), have[0])
					default:
						msg = fmt.Sprintf("field %s is owned by domain %q but %s is reachable from domains %s",
							field.Name(), domain, funcLabel(fd, c, lits), strings.Join(have, ", "))
					}
					diags = append(diags, Diagnostic{
						Pos:  m.Fset.Position(sel.Sel.Pos()),
						Rule: rule,
						Msg:  msg,
					})
					return true
				})
			}
			diags = append(diags, ok.report(m.Fset, rule)...)
		}
	}
	return diags
}

// funcLabel names the access context for diagnostics: the enclosing
// function, or the goroutine literal it spawns.
func funcLabel(fd *ast.FuncDecl, c cursor, lits map[*ast.FuncLit]bool) string {
	if inGoroutineLit(c, lits) {
		return "a goroutine launched by " + funcName(fd)
	}
	return funcName(fd)
}
