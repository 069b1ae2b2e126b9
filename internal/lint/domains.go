package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// domainInfo is the module-wide ownership-domain model behind the owner
// rule: which functions are pinned to a protocol domain via
// //dps:domain=<name>, and which domains every other function is
// reachable from through the static call graph. A "domain" is one
// logical actor of the delegation protocol — the sender thread, the
// serving side of a claimed ring, the redial loop, the shutdown sweeper
// — and a function's domain set answers "on whose goroutine can this
// body run?".
type domainInfo struct {
	// explicit holds declared domains. A declared domain is a
	// propagation barrier: callers' domains do not flow into an
	// annotated function (its annotation is the contract), but its own
	// domain flows onward into its callees.
	explicit map[*types.Func]string
	// reached holds the inferred domain sets of unannotated functions:
	// every domain whose annotated roots reach the function through
	// same-goroutine call edges.
	reached map[*types.Func]map[string]bool
}

// domainsOf returns fn's effective domain set, sorted: the declared
// domain when one exists, otherwise every domain inferred through the
// call graph. Empty means no annotated root reaches fn.
func (di *domainInfo) domainsOf(fn *types.Func) []string {
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	if d, ok := di.explicit[fn]; ok {
		return []string{d}
	}
	set := di.reached[fn]
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// funcDeclObj resolves a function declaration to its canonical (generic
// origin) *types.Func.
func funcDeclObj(pkg *Package, fd *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// goLaunchedLits returns the function literals under root that are
// launched as goroutines (`go func() { ... }()`). Their bodies run on a
// fresh goroutine, so they belong to no caller's domain.
func goLaunchedLits(root ast.Node) map[*ast.FuncLit]bool {
	lits := make(map[*ast.FuncLit]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
				lits[fl] = true
			}
		}
		return true
	})
	return lits
}

// inGoroutineLit reports whether the cursor's node sits inside a
// go-launched function literal (checked against the cursor's ancestors).
func inGoroutineLit(c cursor, lits map[*ast.FuncLit]bool) bool {
	for i := 0; ; i++ {
		p := c.parent(i)
		if p == nil {
			return false
		}
		if fl, ok := p.(*ast.FuncLit); ok && lits[fl] {
			return true
		}
	}
}

// buildDomains collects every //dps:domain annotation and propagates
// domains through the module's static call graph. Call edges crossing a
// `go` statement are excluded — a spawned goroutine is a domain boundary
// (it must declare its own domain to touch owned state). Calls through
// func values and interfaces are not resolvable and contribute no edge.
// Declared domains are propagation barriers, as domainInfo describes.
func buildDomains(m *Module) *domainInfo {
	di := &domainInfo{
		explicit: make(map[*types.Func]string),
		reached:  make(map[*types.Func]map[string]bool),
	}
	edges := make(map[*types.Func][]*types.Func)

	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := funcDeclObj(pkg, fd)
				if fn == nil {
					continue
				}
				if mk, ok := findMarker("domain", fd.Doc); ok && mk.Args != "" {
					di.explicit[fn] = mk.Args
				}
				if fd.Body == nil {
					continue
				}
				lits := goLaunchedLits(fd.Body)
				walkParents(fd.Body, func(c cursor) bool {
					call, ok := c.node.(*ast.CallExpr)
					if !ok {
						return true
					}
					// `go f(...)` runs f on a new goroutine: no edge.
					if g, ok := c.parent(0).(*ast.GoStmt); ok && g.Call == call {
						return true
					}
					// Calls inside a go-launched literal also run on the
					// new goroutine.
					if inGoroutineLit(c, lits) {
						return true
					}
					if callee := calleeFunc(pkg.Info, call); callee != nil {
						edges[fn] = append(edges[fn], callee.Origin())
					}
					return true
				})
			}
		}
	}

	// Propagate: BFS from every function that has any domain, stopping
	// at explicit annotations (the barrier).
	var work []*types.Func
	for fn := range di.explicit {
		work = append(work, fn)
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		var doms []string
		if d, ok := di.explicit[fn]; ok {
			doms = []string{d}
		} else {
			for d := range di.reached[fn] {
				doms = append(doms, d)
			}
		}
		for _, callee := range edges[fn] {
			if _, ok := di.explicit[callee]; ok {
				continue
			}
			set := di.reached[callee]
			if set == nil {
				set = make(map[string]bool)
				di.reached[callee] = set
			}
			grew := false
			for _, d := range doms {
				if !set[d] {
					set[d] = true
					grew = true
				}
			}
			if grew {
				work = append(work, callee)
			}
		}
	}
	return di
}

// structFieldMarkers collects, module-wide, the struct fields carrying
// the named field marker, mapped to the marker's argument string. Field
// objects are canonicalized to their generic origin so accesses through
// instantiated types resolve to the same key.
func structFieldMarkers(m *Module, name string) map[*types.Var]string {
	fields := make(map[*types.Var]string)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mk, ok := findMarker(name, field.Doc, field.Comment)
					if !ok {
						continue
					}
					for _, fname := range field.Names {
						if v, ok := pkg.Info.Defs[fname].(*types.Var); ok {
							fields[v.Origin()] = mk.Args
						}
					}
				}
				return true
			})
		}
	}
	return fields
}
