package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hookguard enforces //dps:hook guard=G: the marked field is a hook that is
// always set (Runtime.tracer holds a no-op tracer when tracing is off), and
// every call through it must be dominated by a read of the sibling boolean
// field G, so a disabled hook costs one predictable branch instead of an
// interface call. An unguarded call changes nothing a test can observe; it
// only costs time on every operation, so this rule is the one guard that
// reports it. (Nilable hooks need no rule: an unguarded call through a nil
// chaos hook panics in every test that runs without chaos.)
//
// Recognized dominators, matched by selector path text (`t.rt.tracing`):
//
//	if x.G { ... x.hook.M() ... }
//	if !x.G { return };  x.hook.M()
//	x.G && x.hook.M()     (and `!x.G ||` for the disjunction)
func hookguard(m *Module) []Diagnostic {
	const rule = "hookguard"
	var diags []Diagnostic
	hooks := make(map[*types.Var]string) // field -> guard field name
	for v, args := range structFieldMarkers(m, "hook") {
		guard, ok := strings.CutPrefix(args, "guard=")
		if guard = strings.TrimSpace(guard); !ok || guard == "" {
			diags = append(diags, Diagnostic{
				Pos:  m.Fset.Position(v.Pos()),
				Rule: rule,
				Msg:  fmt.Sprintf("//dps:hook on %s needs guard=<boolean field>", v.Name()),
			})
			continue
		}
		hooks[v] = guard
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			walkParents(f, func(c cursor) bool {
				sel, ok := c.node.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pkg.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				field, ok := s.Obj().(*types.Var)
				if !ok {
					return true
				}
				guard, marked := hooks[field.Origin()]
				if !marked || !dereferencesHook(c, sel) {
					return true
				}
				guardPath := guard
				if base, ok := selectorPath(sel.X); ok && base != "" {
					guardPath = base + "." + guard
				}
				if dominatedByGuard(c, guardPath) {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:  m.Fset.Position(sel.Sel.Pos()),
					Rule: rule,
					Msg: fmt.Sprintf("call through hook field %s is not dominated by a check of %s (a disabled hook must cost one branch, not a call)",
						field.Name(), guardPath),
				})
				return true
			})
		}
	}
	return diags
}

// dereferencesHook reports whether this occurrence of the hook selector
// goes through the hook: it is called (x.hook(...)), or a member is
// reached through it (x.hook.M(...), x.hook.M). Reads and writes of the
// field value itself need no guard.
func dereferencesHook(c cursor, sel *ast.SelectorExpr) bool {
	switch p := c.parent(0).(type) {
	case *ast.CallExpr:
		return p.Fun == sel
	case *ast.SelectorExpr:
		return p.X == sel
	}
	return false
}

// dominatedByGuard walks the ancestor chain of the hook use looking for a
// dominating guard: an if/&&/|| whose condition reads the guard on the
// path reaching the use, or an earlier `if !guard { return }` in an
// enclosing block.
func dominatedByGuard(c cursor, guardPath string) bool {
	child := c.node
	for i := 0; ; i++ {
		p := c.parent(i)
		if p == nil {
			return false
		}
		switch p := p.(type) {
		case *ast.IfStmt:
			if ast.Node(p.Body) == child && condAsserts(p.Cond, guardPath) {
				return true
			}
			if p.Else == child && condRefutes(p.Cond, guardPath) {
				return true
			}
		case *ast.BinaryExpr:
			if p.Y == child && (p.Op == token.LAND && condAsserts(p.X, guardPath) ||
				p.Op == token.LOR && condRefutes(p.X, guardPath)) {
				return true
			}
		case *ast.BlockStmt:
			if stmt, ok := child.(ast.Stmt); ok && earlyReturnGuard(p, stmt, guardPath) {
				return true
			}
		}
		child = p
	}
}

// condAsserts reports whether cond being true proves the guard is set: a
// read of guardPath, or a conjunction containing one.
func condAsserts(cond ast.Expr, guardPath string) bool {
	if e, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok && e.Op == token.LAND {
		return condAsserts(e.X, guardPath) || condAsserts(e.Y, guardPath)
	}
	p, ok := selectorPath(ast.Unparen(cond))
	return ok && p == guardPath
}

// condRefutes reports whether cond being false proves the guard is set:
// `!guardPath`, or a disjunction containing it.
func condRefutes(cond ast.Expr, guardPath string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		return e.Op == token.LOR && (condRefutes(e.X, guardPath) || condRefutes(e.Y, guardPath))
	case *ast.UnaryExpr:
		return e.Op == token.NOT && condAsserts(e.X, guardPath)
	}
	return false
}

// earlyReturnGuard reports whether a statement before `at` in block is
// `if !guard { return / break / continue / panic }`, which makes every
// later statement guard-dominated.
func earlyReturnGuard(block *ast.BlockStmt, at ast.Stmt, guardPath string) bool {
	for _, stmt := range block.List {
		if stmt == at {
			return false
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if ok && ifs.Else == nil && condRefutes(ifs.Cond, guardPath) && terminates(ifs.Body) {
			return true
		}
	}
	return false
}

// terminates reports whether the block's final statement unconditionally
// leaves the enclosing function or loop iteration.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
