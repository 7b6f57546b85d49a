package analysis

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

// Package is one analysis unit: either a package's library+in-package
// test files, or the external _test package sharing its directory.
type Package struct {
	// ImportPath is the directory-based import path. The external test
	// unit of a directory reports the same ImportPath with ExternalTest
	// set, so scope predicates treat both alike.
	ImportPath   string
	ExternalTest bool
	Fset         *token.FileSet
	Files        []*ast.File
	Types        *types.Package
	TypesInfo    *types.Info
	// Errors holds type-checking problems. Analyzers still run on a
	// package with errors (type info is partial), but callers should
	// surface them: an unsound load must not masquerade as a clean run.
	Errors []error
}

// Loader parses and type-checks packages of a single module without
// shelling out to the go tool. Standard-library imports are resolved
// by the compiler's source importer; module-local imports are resolved
// from the module tree itself.
type Loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string
	base    string
	std     types.ImporterFrom
	cache   map[string]*types.Package
	loading map[string]bool
}

// NewLoader returns a Loader anchored at dir, which must live inside a
// module (a go.mod is searched for upward from dir).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		fset:    fset,
		modPath: modPath,
		modRoot: root,
		base:    abs,
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	l.std = std
	return l, nil
}

// Fset returns the file set shared by every package this loader loads.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves patterns relative to the loader's base directory and
// returns every analysis unit they name. Supported patterns are a
// directory path or a "dir/..." wildcard ("./..." loads the whole
// tree below the base directory). testdata, hidden, and underscore
// directories are skipped, matching go tool conventions.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirSet := map[string]bool{}
	for _, orig := range patterns {
		pat := orig
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.base, dir)
		}
		matched := 0
		if !recursive {
			if hasGoFiles(dir) {
				dirSet[dir] = true
				matched++
			}
		} else {
			err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					dirSet[p] = true
					matched++
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		// A pattern that names nothing is almost always a typo; a lint
		// gate that silently checks zero packages would green-light CI
		// while linting nothing.
		if matched == 0 {
			return nil, fmt.Errorf("analysis: pattern %q matched no Go packages", orig)
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.LoadDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// LoadDir parses and type-checks the directory dir as importPath,
// returning one unit for the package itself (library plus in-package
// test files) and, when present, a second unit for the external _test
// package.
func (l *Loader) LoadDir(dir, importPath string) ([]*Package, error) {
	files, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	baseName := ""
	for _, f := range files {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			baseName = f.Name.Name
			break
		}
	}
	var base, external []*ast.File
	for _, f := range files {
		if baseName == "" || f.Name.Name == baseName {
			base = append(base, f)
		} else {
			external = append(external, f)
		}
	}
	var units []*Package
	if len(base) > 0 {
		// Note: this unit (library + in-package tests) is checked
		// fresh and deliberately NOT cached as the importable form of
		// importPath — importers (including the external test unit
		// below) must all see the one library-only package that
		// l.Import builds, or type identities fork.
		units = append(units, l.check(importPath, base))
	}
	if len(external) > 0 {
		ext := l.check(importPath, external)
		ext.ExternalTest = true
		units = append(units, ext)
	}
	return units, nil
}

func (l *Loader) parseDir(dir string, includeTests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor GOOS/GOARCH file suffixes and //go:build lines, as the
		// compiler does: a package may declare one symbol per platform.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(importPath string, files []*ast.File) *Package {
	pkg := &Package{
		ImportPath: importPath,
		Fset:       l.fset,
		Files:      files,
		TypesInfo: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, pkg.TypesInfo)
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
	pkg.Types = tpkg
	return pkg
}

// Import resolves one import path for the type checker: module-local
// packages are type-checked from source (library files only), anything
// else is delegated to the standard library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modRoot, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if l.loading[path] {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		pdir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
		files, err := l.parseDir(pdir, false)
		if err != nil {
			return nil, fmt.Errorf("analysis: importing %s: %w", path, err)
		}
		pkg := l.check(path, files)
		if len(pkg.Errors) > 0 {
			return nil, fmt.Errorf("analysis: importing %s: %v", path, pkg.Errors[0])
		}
		l.cache[path] = pkg.Types
		return pkg.Types, nil
	}
	p, err := l.std.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}
