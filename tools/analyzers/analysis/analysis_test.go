package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func TestPathPredicates(t *testing.T) {
	in := PathIn("abftchol/internal/hetsim", "abftchol/internal/core")
	cases := []struct {
		path string
		want bool
	}{
		{"abftchol/internal/hetsim", true},
		{"abftchol/internal/hetsim/sub", true},
		{"abftchol/internal/hetsimx", false},
		{"abftchol/internal/core", true},
		{"abftchol/internal/mat", false},
		{"abftchol", false},
	}
	for _, c := range cases {
		if got := in(c.path); got != c.want {
			t.Errorf("PathIn(%q) = %v, want %v", c.path, got, c.want)
		}
		if got := PathNotIn("abftchol/internal/hetsim", "abftchol/internal/core")(c.path); got == c.want {
			t.Errorf("PathNotIn(%q) = %v, want %v", c.path, got, !c.want)
		}
	}
}

func parseOne(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: "x", Fset: fset, Files: []*ast.File{f}}
}

func TestNolintParsing(t *testing.T) {
	pkg := parseOne(t, `package x

func f() {
	_ = 1 //nolint:abftlint — whole suite, with justification
	_ = 2 //nolint:determinism,floateq — two analyzers
	_ = 3 //nolint
	_ = 4 // unrelated comment
	_ = 5 //nolint:matindex
}
`)
	lines := nolintLines(pkg)
	check := func(line int, name string, want bool) {
		t.Helper()
		got := lines[lineKey{"x.go", line}].allows(name)
		if got != want {
			t.Errorf("line %d allows(%q) = %v, want %v", line, name, got, want)
		}
	}
	check(4, "determinism", true) // abftlint silences every analyzer
	check(4, "floateq", true)
	check(5, "determinism", true)
	check(5, "floateq", true)
	check(5, "matindex", false)    // only the named analyzers
	check(6, "determinism", true)  // bare nolint silences everything
	check(7, "determinism", false) // ordinary comment
	check(8, "matindex", true)
	check(8, "floateq", false)
}

// TestRunSuppression wires a trivial always-firing analyzer through
// Run and checks that only the un-suppressed site survives.
func TestRunSuppression(t *testing.T) {
	pkg := parseOne(t, `package x

func a() {} //nolint:touchy — suppressed
func b() {}
`)
	touchy := &Analyzer{
		Name: "touchy",
		Doc:  "flags every function declaration",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok {
						pass.Reportf(fn.Pos(), "function %s", fn.Name.Name)
					}
				}
			}
			return nil
		},
	}
	findings, err := Run([]*Package{pkg}, []*Analyzer{touchy})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "function b") {
		t.Fatalf("findings = %v, want only function b", findings)
	}
}

// TestRunScope checks that AppliesTo gates the analyzer per package.
func TestRunScope(t *testing.T) {
	pkg := parseOne(t, "package x\n\nfunc a() {}\n")
	scoped := &Analyzer{
		Name:      "scoped",
		Doc:       "fires everywhere it applies",
		AppliesTo: PathIn("somewhere/else"),
		Run: func(pass *Pass) error {
			pass.Reportf(pass.Files[0].Pos(), "fired")
			return nil
		},
	}
	findings, err := Run([]*Package{pkg}, []*Analyzer{scoped})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("out-of-scope analyzer fired: %v", findings)
	}
}

func TestCalleeOf(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", `package p

type dev struct{}

func (dev) tick() {}

func mid(d dev) { d.tick() }
func top(d dev) { mid(d); f := func() {}; f() }
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: importer.Default()}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := CalleeOf(info, call); fn != nil {
				got[fn.Name()] = true
			} else {
				got["<dynamic>"] = true
			}
		}
		return true
	})
	if !got["tick"] || !got["mid"] || !got["<dynamic>"] || len(got) != 3 {
		t.Fatalf("callees = %v, want the method tick, the function mid, and one dynamic call", got)
	}
}

// TestLoaderSelf loads this very package and checks that units carry
// type information.
func TestLoaderSelf(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, p := range pkgs {
		if p.ImportPath != "abftchol/tools/analyzers/analysis" {
			t.Errorf("ImportPath = %q", p.ImportPath)
		}
		for _, e := range p.Errors {
			t.Errorf("type error: %v", e)
		}
		if p.Types == nil || p.TypesInfo == nil {
			t.Errorf("missing type info for %q (external test: %v)", p.ImportPath, p.ExternalTest)
		}
	}
}
