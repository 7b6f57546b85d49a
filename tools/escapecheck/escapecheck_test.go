package escapecheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repoRoot walks up from the test's working directory to the module
// root (where go.mod lives).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestRepositoryAnnotations requires every abft:hotpath and abft:bce
// claim in the hot packages to hold under the running toolchain.
func TestRepositoryAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("escapecheck rebuilds packages with -m; skipped in -short")
	}
	report, nfail, err := check(repoRoot(t), packages)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	t.Log("report:\n" + report)
	if nfail > 0 {
		t.Fatalf("%d claim(s) fail, each FAIL line above followed by its violations; rerun with `go test -v -run '^TestRepositoryAnnotations$' ./tools/escapecheck`", nfail)
	}
}

const fixture = "tools/escapecheck/testdata/hot"

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// TestFixture runs the checker over testdata/hot, compiled with the
// same gcflags, and requires exactly the reports its `// want` comments
// mark: a failing and a passing case for every rule.
func TestFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("escapecheck rebuilds packages with -m; skipped in -short")
	}
	root := repoRoot(t)
	report, _, err := check(root, []string{fixture})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	t.Logf("report:\n%s", report)

	src := filepath.Join(fixture, "hot.go")
	data, err := os.ReadFile(filepath.Join(root, src))
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]*regexp.Regexp{} // "file:line" → the reports it admits
	for i, line := range strings.Split(string(data), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			wants[src+":"+strconv.Itoa(i+1)] = regexp.MustCompile(strings.ReplaceAll(m[1], `\\`, `\`))
		}
	}
	got := map[string]bool{}
	for _, line := range strings.Split(report, "\n") {
		v, ok := strings.CutPrefix(line, "  ")
		if !ok {
			continue
		}
		file, rest, _ := strings.Cut(v, ": ")
		got[file] = true
		if re := wants[file]; re == nil || !re.MatchString(rest) {
			t.Errorf("unexpected report %s", v)
		}
	}
	for at, re := range wants {
		if !got[at] {
			t.Errorf("%s: no report matching %q", at, re)
		}
	}

	// Every annotated case must have been judged.
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, src), data, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil && strings.Contains(fd.Doc.Text(), "abft:") {
			if !strings.Contains(report, src+":"+fd.Name.Name+" ") {
				t.Errorf("annotated case %s missing from the report", fd.Name.Name)
			}
		}
	}
}

// TestColdLines pins the cold-line rule: a panic and an if-body ending
// in a non-nil error return are cold; an if-body ending in a nil or
// bare return is hot, and a function literal's returns are judged by
// its own signature.
func TestColdLines(t *testing.T) {
	src := `package p

type bad struct{}

func (bad) Error() string { return "bad" }

func f(n int, x []int) error {
	if n < 0 {
		panic(bad{})
	}
	if n == 0 {
		x[0] = 0
		return bad{}
	}
	if n == 1 {
		x[1] = 1
		return nil
	}
	g := func() {
		if n == 2 {
			x[2] = 2
			return
		}
	}
	g()
	return nil
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	fd := file.Decls[2].(*ast.FuncDecl)
	cold := coldLines(fset, info, fd)
	want := lineSet{9: true, 12: true, 13: true}
	for l := 7; l <= 27; l++ {
		if cold[l] != want[l] {
			t.Errorf("line %d: cold = %v, want %v", l, cold[l], want[l])
		}
	}
}
