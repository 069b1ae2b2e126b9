package lint

import (
	"go/ast"
	"go/types"
)

// cursor is one node visited by walkParents, with its ancestor chain.
type cursor struct {
	node    ast.Node
	parents []ast.Node // parents[len-1] is the immediate parent
}

func (c cursor) parent(i int) ast.Node {
	if i >= len(c.parents) {
		return nil
	}
	return c.parents[len(c.parents)-1-i]
}

// walkParents walks the AST under root, calling fn with every node and its
// ancestor chain. fn returning false prunes the subtree.
func walkParents(root ast.Node, fn func(c cursor) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(cursor{node: n, parents: stack})
		stack = append(stack, n)
		if !keep {
			// Still push/pop symmetrically: Inspect will not descend, so
			// pop immediately.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// selectorPath renders a plain ident/selector chain (`t.rt.tracer`) as a
// dotted string. Chains through calls, indexing or other expressions have
// no stable textual identity and return false.
func selectorPath(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := selectorPath(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return selectorPath(e.X)
	}
	return "", false
}

// isAtomicPkg reports whether pkg is sync/atomic.
func isAtomicPkg(pkg *types.Package) bool {
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// atomicMethodName returns the method name when call is a method call on a
// sync/atomic type (x.Load(), x.CompareAndSwap(...)).
func atomicMethodName(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || !isAtomicPkg(fn.Pkg()) {
		return "", false
	}
	return fn.Name(), true
}

// calleeFunc resolves the *types.Func a call invokes, when it invokes a
// statically known function or method (not a func value or builtin).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if f, ok := s.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcBodies yields every function declaration in the package (named
// functions and methods) with its body; bodiless declarations are skipped.
func funcBodies(pkg *Package, fn func(decl *ast.FuncDecl, file *ast.File)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd, f)
			}
		}
	}
}

// funcName renders a declaration's name with its receiver type, matching
// how readers grep for it.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := selectorPath(recvBase(t)); ok {
		return s + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// recvBase strips pointer and generic decoration off a receiver type
// expression.
func recvBase(t ast.Expr) ast.Expr {
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		default:
			return t
		}
	}
}
