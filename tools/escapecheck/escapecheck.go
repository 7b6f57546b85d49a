// Package escapecheck proves the repository's hot-path annotations
// against the compiler rather than against a model of it. It rebuilds
// internal/blas, internal/checksum, internal/mat and internal/fault with
// `-gcflags='-m -m -d=ssa/check_bce,ssa/intrinsics/debug=1'` (escape
// analysis, inlining decisions, bounds checks and intrinsic
// substitutions) and checks two markers in function doc comments:
//
//	// abft:hotpath       — on every hot line of the body:
//	                        (a) no value escapes to or is moved to the
//	                            heap, an inlined helper's escapes
//	                            included (the compiler reports them at
//	                            the call);
//	                        (b) every call is a builtin or a conversion,
//	                            inlined or intrinsified from a checked
//	                            package or math, a static call to another
//	                            abft:hotpath function, a bodiless
//	                            assembly leaf, or sync.Pool Get/Put
//	                            outside any loop;
//	                        (c) no defer, go, select, channel send or
//	                            receive, or map range
//	// abft:bce checks=N  — the compiler emits exactly N bounds checks
//	                        (IsInBounds + IsSliceInBounds) on hot lines
//
// A line is cold, and exempt from both, when it belongs to a panic(...)
// call or to an if-body that ends in a panic or in a return whose error
// result is not nil: the fail-stop paths, where an escaping error value
// or a fmt.Sprintf costs nothing on the path the factorization takes.
// An if-body that ends in a bare return stays hot.
//
// The bce count is a ratchet, not a target of zero: column-major
// kernels keep once-per-column slice-formation checks and strided
// scalar reads. Pinning the exact count makes a rewrite that
// re-introduces a per-element check in an inner loop a FAIL.
//
// Its runner is TestRepositoryAnnotations, part of `go test ./...`:
//
//	go test -v -run '^TestRepositoryAnnotations$' ./tools/escapecheck
//
// logs one PASS or FAIL line per claim, each FAIL followed by its
// violations, and fails on any FAIL.
package escapecheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"abftchol/tools/analyzers/analysis"
)

// packages is the hot-path scope, in report order.
var packages = []string{
	"internal/blas",
	"internal/checksum",
	"internal/mat",
	"internal/fault",
}

const gcflags = "-m -m -d=ssa/check_bce,ssa/intrinsics/debug=1"

// fn is one annotated function.
type fn struct {
	file string // module-relative path
	name string // Name or Type.Method
	decl *ast.FuncDecl
	info *types.Info
	hot  bool
	bce  int // declared bounds checks; -1 without abft:bce
}

// checker holds what the verdicts need: the annotated functions, the
// callees a hot function may call without inlining, and the
// compiler's diagnostics.
type checker struct {
	root   string
	fset   *token.FileSet
	fns    []*fn
	hot    map[string]bool // FullName of every abft:hotpath function
	asm    map[string]bool // FullName of every bodiless function
	scope  map[string]bool // import paths whose calls may be inlined
	diags  map[string][]diag
	folded map[string]bool // "file:line:col:name" of every inlined or intrinsified call
}

// diag is one escape or bounds-check diagnostic.
type diag struct {
	line int
	msg  string // empty for a bounds check
}

var bceRe = regexp.MustCompile(`^abft:bce\s+checks=(\d+)$`)

// check loads, compiles and judges the packages (paths relative to
// root, which must be the module root) and renders the report.
func check(root string, pkgs []string) (string, int, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return "", 0, err
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		return "", 0, err
	}
	c := &checker{root: root, fset: l.Fset(), hot: map[string]bool{}, asm: map[string]bool{},
		scope: map[string]bool{"math": true}, diags: map[string][]diag{}, folded: map[string]bool{}}
	for _, pkg := range pkgs {
		units, err := l.Load("./" + pkg)
		if err != nil {
			return "", 0, err
		}
		u := units[0] // the library unit, with in-package tests
		if len(u.Errors) > 0 {
			return "", 0, fmt.Errorf("type-check %s: %v", pkg, u.Errors[0])
		}
		c.scope[u.ImportPath] = true
		c.collect(u)
		if err := c.compile(u.ImportPath, pkg); err != nil {
			return "", 0, err
		}
	}

	var b strings.Builder
	claims, nfail := 0, 0
	verdict := func(f *fn, claim string, bad []string) {
		claims++
		if len(bad) == 0 {
			fmt.Fprintf(&b, "PASS %s:%s %s\n", f.file, f.name, claim)
			return
		}
		nfail++
		fmt.Fprintf(&b, "FAIL %s:%s %s\n", f.file, f.name, claim)
		for _, v := range bad {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	for _, f := range c.fns {
		cold := coldLines(c.fset, f.info, f.decl)
		if f.hot {
			verdict(f, "hotpath", c.hotViolations(f, cold))
		}
		if f.bce >= 0 {
			got := 0
			for _, d := range c.span(f) {
				if d.msg == "" && !cold[d.line] {
					got++
				}
			}
			var bad []string
			if got != f.bce {
				bad = append(bad, fmt.Sprintf("%s:%d: abft:bce declares checks=%d, the compiler emitted %d",
					f.file, c.line(f.decl.Pos()), f.bce, got))
			}
			verdict(f, fmt.Sprintf("bce checks=%d", f.bce), bad)
		}
	}
	fmt.Fprintf(&b, "# %d claim(s), %d FAIL\n", claims, nfail)
	return b.String(), nfail, nil
}

// collect records the annotated functions of one package, and every
// hot or bodiless function for the call rule.
func (c *checker) collect(u *analysis.Package) {
	for _, file := range u.Files {
		path := c.rel(file.Pos())
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := u.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			if fd.Body == nil {
				c.asm[obj.FullName()] = true
				continue
			}
			f := &fn{file: path, name: funcName(fd), decl: fd, info: u.TypesInfo, bce: -1}
			if fd.Doc != nil {
				for _, cm := range fd.Doc.List {
					text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
					if text == "abft:hotpath" {
						f.hot = true
					}
					if m := bceRe.FindStringSubmatch(text); m != nil {
						f.bce, _ = strconv.Atoi(m[1])
					}
				}
			}
			if f.hot {
				c.hot[obj.FullName()] = true
			}
			if f.hot || f.bce >= 0 {
				c.fns = append(c.fns, f)
			}
		}
	}
}

var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// compile rebuilds one package with gcflags and files its
// diagnostics. The go build cache replays them on repeated identical
// invocations, so this is cheap after the first run.
func (c *checker) compile(importPath, dir string) error {
	cmd := exec.Command("go", "build", "-gcflags="+importPath+"="+gcflags, "./"+dir)
	cmd.Dir = c.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %s: %v\n%s", dir, err, out)
	}
	seen := map[string]bool{} // -m -m repeats each escape as "…escapes to heap:" before its flow
	for _, line := range strings.Split(string(out), "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := filepath.ToSlash(m[1])
		n, _ := strconv.Atoi(m[2])
		msg := m[4]
		switch {
		case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
			c.diags[file] = append(c.diags[file], diag{line: n})
		case strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap"):
			msg = strings.TrimSuffix(msg, ":")
			if key := file + ":" + m[2] + ":" + msg; !seen[key] {
				seen[key] = true
				c.diags[file] = append(c.diags[file], diag{line: n, msg: msg})
			}
		default:
			if name, ok := foldedCallee(msg); ok {
				c.folded[file+":"+m[2]+":"+m[3]+":"+name] = true
			}
		}
	}
	return nil
}

// foldedCallee returns the bare name of the callee of a call the
// compiler inlined ("inlining call to mat.(*Matrix).Col") or replaced
// with an intrinsic ("intrinsic substitution for FMA with …").
func foldedCallee(msg string) (string, bool) {
	name, ok := strings.CutPrefix(msg, "inlining call to ")
	if !ok {
		if name, ok = strings.CutPrefix(msg, "intrinsic substitution for "); !ok {
			return "", false
		}
		name, _, _ = strings.Cut(name, " ")
	}
	if strings.HasSuffix(name, "]") { // a generic instance
		name = name[:strings.Index(name, "[")]
	}
	return name[strings.LastIndex(name, ".")+1:], true
}

// hotViolations lists what breaks f's abft:hotpath claim on hot lines.
func (c *checker) hotViolations(f *fn, cold lineSet) []string {
	var bad []string
	for _, d := range c.span(f) {
		if d.msg != "" && !cold[d.line] {
			bad = append(bad, fmt.Sprintf("%s:%d: %s", f.file, d.line, d.msg))
		}
	}
	var loops []*ast.BlockStmt
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, s.Body)
		case *ast.RangeStmt:
			loops = append(loops, s.Body)
		}
		return true
	})
	inLoop := func(p token.Pos) bool {
		for _, b := range loops {
			if b.Pos() <= p && p < b.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		if n == nil || cold[c.line(n.Pos())] {
			return true
		}
		why := ""
		switch n := n.(type) {
		case *ast.DeferStmt:
			why = "defer"
		case *ast.GoStmt:
			why = "go statement"
		case *ast.SelectStmt:
			why = "select"
		case *ast.SendStmt:
			why = "channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				why = "channel receive"
			}
		case *ast.RangeStmt:
			switch f.info.TypeOf(n.X).Underlying().(type) {
			case *types.Map:
				why = "map range"
			case *types.Chan:
				why = "channel receive (range over a channel)"
			}
		case *ast.CallExpr:
			why = c.callViolation(f.info, n, inLoop(n.Pos()))
		}
		if why != "" {
			bad = append(bad, fmt.Sprintf("%s:%d: %s", f.file, c.line(n.Pos()), why))
		}
		return true
	})
	return bad
}

// callViolation says why call may not appear on a hot line, or returns
// "" when it may.
func (c *checker) callViolation(info *types.Info, call *ast.CallExpr, inLoop bool) string {
	if tv, ok := info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return ""
	}
	callee := analysis.CalleeOf(info, call)
	if callee == nil {
		return "dynamic call through a func value"
	}
	if recv := callee.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return "dynamic call of interface method " + callee.Name()
	}
	callee = callee.Origin()
	name := callee.FullName()
	if c.hot[name] || c.asm[name] {
		return ""
	}
	if name == "(*sync.Pool).Get" || name == "(*sync.Pool).Put" {
		if inLoop {
			return "sync.Pool " + callee.Name() + " inside a loop"
		}
		return ""
	}
	p := c.fset.Position(call.Lparen)
	if c.scope[callee.Pkg().Path()] && c.folded[fmt.Sprintf("%s:%d:%d:%s", c.rel(call.Lparen), p.Line, p.Column, callee.Name())] {
		return ""
	}
	return "call to " + name + " is neither inlined from a checked package or math, nor abft:hotpath, nor an assembly leaf"
}

// span returns the diagnostics on f's lines.
func (c *checker) span(f *fn) []diag {
	lo, hi := c.line(f.decl.Pos()), c.line(f.decl.End())
	var out []diag
	for _, d := range c.diags[f.file] {
		if d.line >= lo && d.line <= hi {
			out = append(out, d)
		}
	}
	return out
}

func (c *checker) line(p token.Pos) int { return c.fset.Position(p).Line }

// rel is p's file relative to the module root, as the compiler prints
// it when run from there.
func (c *checker) rel(p token.Pos) string {
	name := c.fset.Position(p).Filename
	if r, err := filepath.Rel(c.root, name); err == nil {
		name = r
	}
	return filepath.ToSlash(name)
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

type lineSet map[int]bool

// coldLines returns the lines of fd's body that only fail-stop paths
// run: every line of a panic(...) call, and every line of an if-body
// whose last statement is a panic or a return of a non-nil error. A
// function literal's returns are judged by its own signature.
func coldLines(fset *token.FileSet, info *types.Info, fd *ast.FuncDecl) lineSet {
	cold := lineSet{}
	mark := func(lo, hi token.Pos) {
		for l := fset.Position(lo).Line; l <= fset.Position(hi).Line; l++ {
			cold[l] = true
		}
	}
	var walk func(body *ast.BlockStmt, errResult bool)
	walk = func(body *ast.BlockStmt, errResult bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body, returnsError(info, n.Type))
				return false
			case *ast.CallExpr:
				if isPanic(info, n) {
					mark(n.Pos(), n.End())
				}
			case *ast.IfStmt:
				list := n.Body.List
				if len(list) > 0 && endsCold(info, list[len(list)-1], errResult) {
					mark(list[0].Pos(), list[len(list)-1].End())
				}
			}
			return true
		})
	}
	walk(fd.Body, returnsError(info, fd.Type))
	return cold
}

// endsCold reports whether s panics or returns a non-nil error.
func endsCold(info *types.Info, s ast.Stmt, errResult bool) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isPanic(info, call)
	case *ast.ReturnStmt:
		if !errResult || len(s.Results) == 0 {
			return false
		}
		id, ok := ast.Unparen(s.Results[len(s.Results)-1]).(*ast.Ident)
		return !ok || id.Name != "nil"
	}
	return false
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

func returnsError(info *types.Info, ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) == 0 {
		return false
	}
	t := info.TypeOf(ft.Results.List[len(ft.Results.List)-1].Type)
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
