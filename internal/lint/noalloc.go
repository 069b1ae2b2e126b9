package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// noalloc enforces //dps:noalloc: the marked function must contain no
// allocating construct. The AllocsPerRun tests pin the delegation fast
// paths they drive to 0 allocs/op; this rule also covers the marked
// functions no pin reaches (the wire staging path, Flush, Ready, the stall
// sampler), names the construct, and points at the line.
//
// Flagged constructs: closures that may escape (a func literal that is not
// immediately invoked), go statements, map/slice literals, make, new,
// append, string concatenation and string<->[]byte conversions, calls into
// fmt or log, bound method values, and interface boxing of non-pointer
// values (assignments, call arguments, returns and conversions whose
// static target is an interface and whose operand is a value the runtime
// must heap-box).
//
// The rule is local by design: it does not chase callees. Callees on the
// fast path carry their own marker; "//dps:noalloc via F" records which
// pinned function's AllocsPerRun test also covers it at runtime.
//
// A construct the escape analyzer provably keeps off the heap can be
// suppressed with //dps:alloc-ok <why> on the same line or the line above.
func noalloc(m *Module) []Diagnostic {
	const rule = "noalloc"
	var diags []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			var okLines map[int]Marker // lazily built per file
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if _, marked := findMarker("noalloc", fd.Doc); !marked {
					continue
				}
				if okLines == nil {
					okLines = lineMarkers(m.Fset, f, "alloc-ok")
				}
				diags = append(diags, allocScan(m, pkg, fd, okLines)...)
			}
		}
	}
	return diags
}

// allocScan walks one marked function body and reports its allocating
// constructs.
func allocScan(m *Module, pkg *Package, fd *ast.FuncDecl, okLines map[int]Marker) []Diagnostic {
	var diags []Diagnostic
	info := pkg.Info
	flag := func(pos token.Pos, format string, args ...any) {
		p := m.Fset.Position(pos)
		if suppressedAt(okLines, p.Line) {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:  p,
			Rule: "noalloc",
			Msg:  fmt.Sprintf("//dps:noalloc function %s %s", fd.Name.Name, fmt.Sprintf(format, args...)),
		})
	}

	walkParents(fd.Body, func(c cursor) bool {
		switch n := c.node.(type) {
		case *ast.GoStmt:
			flag(n.Pos(), "starts a goroutine, which allocates")

		case *ast.FuncLit:
			if call, ok := c.parent(0).(*ast.CallExpr); !ok || call.Fun != n {
				flag(n.Pos(), "contains a closure that may escape and allocate (only immediately-invoked literals are allocation-free)")
			}

		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				flag(n.Pos(), "builds a map literal, which allocates")
			case *types.Slice:
				flag(n.Pos(), "builds a slice literal, which allocates")
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := info.TypeOf(n).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					flag(n.Pos(), "concatenates strings, which allocates")
				}
			}

		case *ast.SelectorExpr:
			if s, ok := info.Selections[n]; ok && s.Kind() == types.MethodVal {
				if call, ok := c.parent(0).(*ast.CallExpr); !ok || call.Fun != n {
					flag(n.Pos(), "binds method value %s, which allocates a closure", n.Sel.Name)
				}
			}

		case *ast.ValueSpec:
			if n.Type != nil {
				dst := info.TypeOf(n.Type)
				for _, v := range n.Values {
					if boxes(dst, info.TypeOf(v)) {
						flag(v.Pos(), "boxes a %s into interface %s, which allocates", info.TypeOf(v), dst)
					}
				}
			}

		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					dst, src := info.TypeOf(n.Lhs[i]), info.TypeOf(n.Rhs[i])
					if n.Tok == token.DEFINE {
						continue // inferred type: no interface target
					}
					if boxes(dst, src) {
						flag(n.Rhs[i].Pos(), "boxes a %s into interface %s, which allocates", src, dst)
					}
				}
			}

		case *ast.ReturnStmt:
			sig := enclosingSignature(info, c, fd)
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					if boxes(sig.Results().At(i).Type(), info.TypeOf(r)) {
						flag(r.Pos(), "boxes a %s into interface result %s, which allocates", info.TypeOf(r), sig.Results().At(i).Type())
					}
				}
			}

		case *ast.CallExpr:
			diagnoseCall(info, n, flag)
		}
		return true
	})
	return diags
}

// diagnoseCall flags the allocating call forms: builtins (make of
// map/slice/chan, new, append), string conversions, interface-boxing
// conversions, fmt/log calls, and arguments boxed into interface
// parameters.
func diagnoseCall(info *types.Info, call *ast.CallExpr, flag func(token.Pos, string, ...any)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				switch info.TypeOf(call).Underlying().(type) {
				case *types.Map, *types.Slice, *types.Chan:
					flag(call.Pos(), "calls make, which allocates")
				}
			case "new":
				flag(call.Pos(), "calls new, which allocates")
			case "append":
				flag(call.Pos(), "calls append, which may reallocate the backing array")
			}
			return
		}
	}
	// Conversion T(x)?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, info.TypeOf(call.Args[0])
		if boxes(dst, src) {
			flag(call.Pos(), "boxes a %s into interface %s, which allocates", src, dst)
			return
		}
		if stringSliceConv(dst, src) {
			flag(call.Pos(), "converts between string and slice, which allocates")
		}
		return
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log":
			flag(call.Pos(), "calls %s.%s, which allocates", fn.Pkg().Name(), fn.Name())
			return
		}
	}
	// Arguments boxed into interface parameters.
	sig, ok := info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < sig.Params().Len()-1 || !sig.Variadic():
			if i >= sig.Params().Len() {
				continue
			}
			param = sig.Params().At(i).Type()
		case call.Ellipsis != token.NoPos:
			param = sig.Params().At(sig.Params().Len() - 1).Type()
		default:
			sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().Underlying().(*types.Slice)
			if !ok {
				continue
			}
			param = sl.Elem()
		}
		if boxes(param, info.TypeOf(arg)) {
			flag(arg.Pos(), "boxes a %s into interface parameter %s, which allocates", info.TypeOf(arg), param)
		}
	}
}

// boxes reports whether assigning a src-typed value to a dst-typed
// location converts a concrete value to an interface in a way the runtime
// must heap-allocate: anything but a pointer-shaped value (pointer, chan,
// map, func, unsafe.Pointer) or an untyped nil.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil || !types.IsInterface(dst) || types.IsInterface(src) {
		return false
	}
	switch u := src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.UnsafePointer
	case *types.TypeParam:
		return false
	}
	return true
}

// stringSliceConv reports a string<->[]byte/[]rune conversion.
func stringSliceConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	_, dstSlice := dst.Underlying().(*types.Slice)
	_, srcSlice := src.Underlying().(*types.Slice)
	return (isStr(dst) && srcSlice) || (dstSlice && isStr(src))
}

// enclosingSignature finds the signature the return statement returns to:
// the nearest enclosing func literal, or the marked declaration itself.
func enclosingSignature(info *types.Info, c cursor, fd *ast.FuncDecl) *types.Signature {
	for i := 0; ; i++ {
		p := c.parent(i)
		if p == nil {
			break
		}
		if lit, ok := p.(*ast.FuncLit); ok {
			sig, _ := info.TypeOf(lit).(*types.Signature)
			return sig
		}
	}
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		return sig
	}
	return nil
}
