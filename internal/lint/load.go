package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of one module plus their imports.
// Module-local imports resolve by mapping import paths under the module
// root; everything else (the standard library) resolves through go/importer's
// source importer, so no compiled export data or external tooling is needed.
type Loader struct {
	// Module is the module path from go.mod (e.g. "repro").
	Module string
	// Root is the module root directory.
	Root string
	// Fset is shared by all parsed files.
	Fset *token.FileSet

	std   types.ImporterFrom
	pkgs  map[string]*Package       // loaded source packages by import path
	typed map[string]*types.Package // type-check results (incl. stdlib) by path
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Module: module,
		Root:   root,
		Fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*Package{},
		typed:  map[string]*types.Package{},
	}
}

// FindModule walks upward from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load loads (and caches) the package with the given module import path.
func (l *Loader) Load(path string) (*Package, error) {
	if !l.inModule(path) {
		return nil, fmt.Errorf("lint: %q is not under module %q", path, l.Module)
	}
	return l.loadDir(l.dirFor(path), path)
}

// LoadDirAs loads the package in dir under an explicit import path. Used for
// test fixtures and for directory arguments to the driver.
func (l *Loader) LoadDirAs(dir, path string) (*Package, error) {
	return l.loadDir(dir, path)
}

func (l *Loader) inModule(path string) bool {
	return path == l.Module || strings.HasPrefix(path, l.Module+"/")
}

func (l *Loader) dirFor(path string) string {
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module)))
}

// PathFor maps a directory under the module root to its import path.
func (l *Loader) PathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the non-test sources of one directory.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}

	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	for _, n := range names {
		full := filepath.Join(dir, n)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if pkg.Name != f.Name.Name {
			return nil, fmt.Errorf("lint: %s contains packages %q and %q", dir, pkg.Name, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.collectAllows(f, src)
	}

	pkg.TypesInfo = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // keep going; first error recorded below
	}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.TypesInfo)
	pkg.Types = tpkg
	pkg.TypeError = err
	l.pkgs[path] = pkg
	if tpkg != nil {
		l.typed[path] = tpkg
	}
	return pkg, nil
}

// Import implements types.Importer for the type checker: module-local paths
// load through this loader, everything else through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.typed[path]; ok {
		return p, nil
	}
	if l.inModule(path) {
		pkg, err := l.loadDir(l.dirFor(path), path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, pkg.TypeError
		}
		return pkg.Types, nil
	}
	p, err := l.std.ImportFrom(path, dir, mode)
	if err == nil {
		l.typed[path] = p
	}
	return p, err
}

// Expand resolves driver arguments to import paths. Supported forms:
//
//	./...           every package under the module root
//	./dir/...       every package under dir
//	./dir or dir    a single directory
//	module/path     a single import path
//
// Walks skip testdata, hidden and underscore-prefixed directories, matching
// the go tool's convention, so analyzer fixtures are not swept into CI runs.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			if base == "." || base == "" {
				base = l.Root
			}
			paths, err := l.walk(base)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasPrefix(pat, "./") || pat == ".":
			p, err := l.PathFor(pat)
			if err != nil {
				return nil, err
			}
			add(p)
		case l.inModule(pat):
			add(pat)
		default:
			// A bare directory path.
			p, err := l.PathFor(pat)
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	return out, nil
}

// walk finds every directory under base containing non-test Go sources.
func (l *Loader) walk(base string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != base && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			ip, err := l.PathFor(filepath.Dir(p))
			if err == nil && (len(out) == 0 || out[len(out)-1] != ip) {
				out = append(out, ip)
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// LoadAll loads every package named by the expanded patterns into a Program.
// A package that fails to load is reported in the returned error slice and
// skipped; the rest of the program still loads and is analyzed, so one broken
// directory cannot suppress findings collected everywhere else. The driver
// must treat a non-empty error slice as a failed run even when the surviving
// packages lint clean.
func (l *Loader) LoadAll(paths []string) (*Program, []error) {
	prog := &Program{Fset: l.Fset}
	var errs []error
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			errs = append(errs, fmt.Errorf("lint: loading %s: %w", p, err))
			continue
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, errs
}
