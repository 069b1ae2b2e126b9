package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a fully type-checked view of one Go module (or, via LoadDir, a
// single stand-alone package), shared by every analyzer rule.
type Module struct {
	Fset *token.FileSet
	// Pkgs holds every loaded module-local package, sorted by import path.
	// Imported standard-library packages are type-checked but not listed:
	// rules analyze module source only.
	Pkgs []*Package
}

// Package is one loaded module-local package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	TPkg  *types.Package
	Info  *types.Info
}

// loader resolves imports for the module being analyzed: module-local
// packages are parsed and type-checked from source in place, each the
// first time it is imported; everything else (the standard library) goes
// through go/importer's source importer, which shares the loader's FileSet
// and caches across packages.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer over both halves of the package space.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.loadLocal(path)
		if err != nil {
			return nil, err
		}
		return p.TPkg, nil
	}
	return l.std.Import(path)
}

// loadLocal parses and type-checks one module-local package by import path.
func (l *loader) loadLocal(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
	p, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadDir parses and type-checks the non-test .go files of one directory.
// Files excluded from the host platform's build by constraints (//go:build
// lines or GOOS/GOARCH filename suffixes) are skipped, so platform-variant
// pairs — e.g. a Linux implementation beside its stub — don't collide in
// the typechecker; lint analyzes the build `go build` would produce here.
func (l *loader) loadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Files: files,
		TPkg:  tpkg,
		Info:  info,
	}, nil
}

// LoadModule loads every package of the module rooted at (or above) dir.
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped, mirroring the go tool's walk rules.
func LoadModule(dir string) (*Module, error) {
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)
	var paths []string
	seenPath := map[string]bool{}
	err = filepath.WalkDir(modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != modRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(modRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		// A subdirectory's files interleave with its parent's in walk
		// order, so consecutive dedup is not enough.
		if !seenPath[ip] {
			seenPath[ip] = true
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, ip := range paths {
		if _, err := l.loadLocal(ip); err != nil {
			return nil, err
		}
	}
	return l.module(), nil
}

// LoadDir loads a single directory as a stand-alone package — the entry
// point the golden-file tests use for the seeded testdata packages, which
// live outside the module graph.
func LoadDir(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := "dpslint.test/" + filepath.Base(abs)
	l := newLoader(abs, path)
	p, err := l.loadDir(abs, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return l.module(), nil
}

func (l *loader) module() *Module {
	m := &Module{Fset: l.fset}
	for _, p := range l.pkgs {
		m.Pkgs = append(m.Pkgs, p)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
		d = parent
	}
}
