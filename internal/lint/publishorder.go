package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// publishorder mechanizes the publish-then-set discipline: in a function
// marked
//
//	//dps:publish
//
// the atomic store that makes a slot or burst visible — a store-like
// atomic operation on a field marked //dps:publishes, or a call to a
// function that performs one — must be the last write touching payload
// on every path. A plain memory write (anything but a function-local
// variable) sequenced after the publish is the reordering the protocol
// cannot survive: the consumer may already own the payload. Writes that
// are legal because ownership demonstrably returned (an await loop
// observed the toggle clear) carry a line-scoped
//
//	//dps:publish-ok <why>
//
// suppression, with the same justified/non-stale hygiene as owner-ok.
//
// The analysis is path-sensitive over if/switch/select (publication
// state no / maybe / yes, branches merged), and loop bodies are analyzed
// once from their entry state — a publish inside a loop scopes to that
// iteration's slot, which matches the send loops the rule guards.
// Bodies of `go` statements are skipped: a spawned goroutine is outside
// the publishing function's ordering obligations.
func publishorder(m *Module) []Diagnostic {
	const rule = "publishorder"
	var diags []Diagnostic

	marked := structFieldMarkers(m, "publishes")
	if len(marked) == 0 {
		return nil
	}
	fields := make(map[*types.Var]bool, len(marked))
	for v := range marked {
		fields[v] = true
	}

	// Pass 1 (module-wide): functions whose bodies directly perform a
	// publishing store. Calls to them count as publish events in marked
	// functions (this is what makes `s.Publish()` and `p.resolve(f)`
	// events at their call sites).
	pubFuncs := make(map[*types.Func]bool)
	for _, pkg := range m.Pkgs {
		funcBodies(pkg, func(fd *ast.FuncDecl, _ *ast.File) {
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok && directPublishStore(pkg.Info, call, fields) {
					found = true
					return false
				}
				return true
			})
			if found {
				if fn := funcDeclObj(pkg, fd); fn != nil {
					pubFuncs[fn] = true
				}
			}
		})
	}

	// Pass 2: flow analysis of every //dps:publish function.
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ok := newSuppressions(m.Fset, f, "publish-ok")
			for _, d := range f.Decls {
				fd, isFn := d.(*ast.FuncDecl)
				if !isFn || fd.Body == nil {
					continue
				}
				if _, has := findMarker("publish", fd.Doc); !has {
					continue
				}
				w := &poFlow{m: m, pkg: pkg, fields: fields, pubFuncs: pubFuncs, ok: ok}
				w.block(fd.Body.List, pubNo)
				if !w.sawPublish {
					w.diags = append(w.diags, Diagnostic{
						Pos:  m.Fset.Position(fd.Pos()),
						Rule: rule,
						Msg:  fmt.Sprintf("%s is marked //dps:publish but never publishes (no store to a //dps:publishes field, directly or via a publishing callee)", funcName(fd)),
					})
				}
				diags = append(diags, w.diags...)
			}
			diags = append(diags, ok.report(m.Fset, rule)...)
		}
	}
	return diags
}

// Publication state of one control-flow path.
const (
	pubNo    = 0 // nothing published yet
	pubMaybe = 1 // published on some path into here
	pubYes   = 2 // published on every path into here
)

func mergePub(a, b int) int {
	if a == b {
		return a
	}
	return pubMaybe
}

// storeLike are the sync/atomic method names that publish a value.
var storeLike = map[string]bool{
	"Store": true, "Swap": true, "Add": true, "Or": true, "And": true,
	"CompareAndSwap": true,
}

// directPublishStore reports whether call is an atomic store-like method
// call on a //dps:publishes field (x.f.Store(1)).
func directPublishStore(info *types.Info, call *ast.CallExpr, fields map[*types.Var]bool) bool {
	name, ok := atomicMethodName(info, call)
	if !ok || !storeLike[name] {
		return false
	}
	return publishesField(info, call.Fun.(*ast.SelectorExpr).X, fields)
}

// publishesField reports whether e denotes a //dps:publishes field.
func publishesField(info *types.Info, e ast.Expr, fields map[*types.Var]bool) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	v, ok := s.Obj().(*types.Var)
	return ok && fields[v.Origin()]
}

// poFlow is the per-function publish-order walker.
type poFlow struct {
	m          *Module
	pkg        *Package
	fields     map[*types.Var]bool
	pubFuncs   map[*types.Func]bool
	ok         *suppressions
	diags      []Diagnostic
	sawPublish bool
}

// block runs the statement list from state st; the bool result is true
// when the path terminated (return/branch/panic-shaped flow is folded
// into stmt handling).
func (w *poFlow) block(list []ast.Stmt, st int) (int, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *poFlow) stmt(s ast.Stmt, st int) (int, bool) {
	switch s := s.(type) {
	case nil:
		return st, false
	case *ast.BlockStmt:
		return w.block(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.ExprStmt:
		return w.scan(s.X, st), false
	case *ast.SendStmt:
		st = w.scan(s.Chan, st)
		return w.scan(s.Value, st), false
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.checkWrite(lhs, st)
		}
		for _, rhs := range s.Rhs {
			st = w.scan(rhs, st)
		}
		return st, false
	case *ast.IncDecStmt:
		w.checkWrite(s.X, st)
		return st, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = w.scan(v, st)
					}
				}
			}
		}
		return st, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.scan(r, st)
		}
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto: end of this path as far as ordering on
		// the fallthrough path is concerned.
		return st, true
	case *ast.DeferStmt:
		// The deferred call runs at return — after any publish this
		// function performs — so its body is analyzed as if published.
		def := st
		if w.sawPublishIn(s.Call) {
			def = pubMaybe
		}
		for _, a := range s.Call.Args {
			st = w.scan(a, st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.block(fl.Body.List, maxPub(def, pubNo))
		}
		return st, false
	case *ast.GoStmt:
		// A spawned goroutine is outside this function's ordering
		// obligations (and its own domain); skip it.
		return st, false
	case *ast.IfStmt:
		st, _ = w.stmt(s.Init, st)
		st = w.scan(s.Cond, st)
		t, tterm := w.block(s.Body.List, st)
		e, eterm := st, false
		if s.Else != nil {
			e, eterm = w.stmt(s.Else, st)
		}
		switch {
		case tterm && eterm:
			return st, true
		case tterm:
			return e, false
		case eterm:
			return t, false
		}
		return mergePub(t, e), false
	case *ast.ForStmt:
		st, _ = w.stmt(s.Init, st)
		st = w.scan(s.Cond, st)
		body, _ := w.block(s.Body.List, st)
		body, _ = w.stmt(s.Post, body)
		return mergePub(st, body), false
	case *ast.RangeStmt:
		st = w.scan(s.X, st)
		if s.Tok == token.ASSIGN {
			if s.Key != nil {
				w.checkWrite(s.Key, st)
			}
			if s.Value != nil {
				w.checkWrite(s.Value, st)
			}
		}
		body, _ := w.block(s.Body.List, st)
		return mergePub(st, body), false
	case *ast.SwitchStmt:
		st, _ = w.stmt(s.Init, st)
		st = w.scan(s.Tag, st)
		return w.clauses(s.Body, st, hasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		st, _ = w.stmt(s.Init, st)
		return w.clauses(s.Body, st, hasDefault(s.Body))
	case *ast.SelectStmt:
		return w.clauses(s.Body, st, true)
	default:
		return st, false
	}
}

// clauses merges the bodies of a switch/select's clauses. Without a
// default clause the entry state is one more path.
func (w *poFlow) clauses(body *ast.BlockStmt, st int, exhaustive bool) (int, bool) {
	out, seen, allTerm := st, false, true
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				st = w.scan(e, st)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				st, _ = w.stmt(c.Comm, st)
			}
			list = c.Body
		}
		b, term := w.block(list, st)
		if term {
			continue
		}
		allTerm = false
		if !seen {
			out, seen = b, true
		} else {
			out = mergePub(out, b)
		}
	}
	if !exhaustive {
		out, allTerm = mergePub(out, st), false
		seen = true
	}
	if !seen || allTerm {
		return st, allTerm && exhaustive
	}
	return out, false
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// scan walks an expression for publish events (direct publishing stores
// and calls to publishing functions) and returns the updated state.
// Function-literal bodies are not scanned: a closure's execution point
// is not this statement.
func (w *poFlow) scan(e ast.Expr, st int) int {
	if e == nil {
		return st
	}
	if w.sawPublishIn(e) {
		w.sawPublish = true
		return pubYes
	}
	return st
}

func (w *poFlow) sawPublishIn(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if directPublishStore(w.pkg.Info, call, w.fields) {
			found = true
			return false
		}
		if fn := calleeFunc(w.pkg.Info, call); fn != nil && w.pubFuncs[fn.Origin()] {
			found = true
			return false
		}
		return true
	})
	if found {
		w.sawPublish = true
	}
	return found
}

// checkWrite flags a plain memory write performed while the publish may
// already have happened. Writes to function-local variables are always
// fine; everything else — selector, deref, index, package-level var —
// is payload as far as the consumer is concerned.
func (w *poFlow) checkWrite(lhs ast.Expr, st int) {
	if st == pubNo {
		return
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := w.pkg.Info.Defs[id]
		if obj == nil {
			obj = w.pkg.Info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return // function-local (or receiver/param): private to this goroutine
			}
		}
	}
	pos := w.m.Fset.Position(lhs.Pos())
	if w.ok.covers(pos.Line) {
		return
	}
	msg := "payload write after the publish store (the consumer may already own this memory)"
	if st == pubMaybe {
		msg = "payload write may follow the publish store (published on some path into this write)"
	}
	w.diags = append(w.diags, Diagnostic{Pos: pos, Rule: "publishorder", Msg: msg})
}

func maxPub(a, b int) int {
	if a > b {
		return a
	}
	return b
}
