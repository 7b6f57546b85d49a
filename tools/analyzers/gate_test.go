package analyzers_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"abftchol/tools/analyzers"
	"abftchol/tools/analyzers/analysis"
)

// These tests are the lint gate: `make lint` runs them by name, and
// `go test ./tools/analyzers` runs them with the rest of the tier-1
// suite.

// lintRun is one load of a module and every analyzer's findings on
// it, suppressed ones included.
type lintRun struct {
	pkgs     []*analysis.Package
	findings []analysis.Finding
	err      error
}

// lint loads, type-checks and lints every package below dir. A package
// that does not type-check is an error: analyzers on partial type
// information would pass a broken tree.
func lint(dir string) lintRun {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return lintRun{err: err}
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		return lintRun{err: err}
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			return lintRun{err: fmt.Errorf("%s: %v", pkg.ImportPath, pkg.Errors[0])}
		}
	}
	findings, err := analysis.RunAll(pkgs, analyzers.Suite)
	return lintRun{pkgs, findings, err}
}

// moduleRun lints the whole module once per test binary, the analyzers'
// own implementation included; TestRepositoryIsClean and
// TestNolintReport both read it.
var moduleRun = sync.OnceValue(func() lintRun { return lint("../..") })

func loadModule(t *testing.T) lintRun {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	run := moduleRun()
	if run.err != nil {
		t.Fatal(run.err)
	}
	return run
}

// TestRepositoryIsClean requires zero unsuppressed findings: the tree
// must lint clean, and intentional violations carry a justified
// //nolint. Each finding fails as `file:line:col: [analyzer] message`.
func TestRepositoryIsClean(t *testing.T) {
	for _, f := range loadModule(t).findings {
		if !f.Suppressed {
			t.Error(f)
		}
	}
}

// TestNolintReport audits every //nolint escape in the module. One
// without a justification is a silent hole in the invariant the
// suppressed analyzer guards; a stale one (no analyzer it names reports
// on its line anymore) outlived its violation and would silence a
// future, different one. `go test -v -run TestNolintReport` lists every
// escape with its justification.
func TestNolintReport(t *testing.T) {
	run := loadModule(t)
	// Which analyzers fired, per line. A directive is live only if it
	// suppresses at least one of them.
	fired := map[string]map[string]bool{}
	for _, f := range run.findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if fired[key] == nil {
			fired[key] = map[string]bool{}
		}
		fired[key][f.Analyzer.Name] = true
	}
	directives := analysis.NolintDirectives(run.pkgs)
	if len(directives) == 0 {
		t.Fatal("found no //nolint directives; internal/ carries known escapes")
	}
	for _, d := range directives {
		at := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		scope, live := "abftlint", len(fired[at]) > 0
		if !d.All {
			scope, live = strings.Join(d.Names, ","), false
			for _, n := range d.Names {
				live = live || fired[at][n]
			}
		}
		t.Logf("%s: nolint(%s): %s", at, scope, d.Justification)
		if d.Justification == "" {
			t.Errorf("%s: //nolint:%s carries no justification", at, scope)
		}
		if !live {
			t.Errorf("%s: stale //nolint:%s: no analyzer it names reports here; delete the directive", at, scope)
		}
	}
}

// TestSeededBugs runs the gate over a fixture module (module path
// abftchol, like the real one) that seeds one bug per analyzer rule
// shown below, and requires exactly those findings: the loader, the
// scopes and the suite fire end to end, not only in the analyzers'
// own analysistest units.
func TestSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the fixture module")
	}
	run := lint("testdata/lintmodule")
	if run.err != nil {
		t.Fatal(run.err)
	}
	want := []string{
		"internal/core/clock.go:9:9: [determinism] time.Now reads the wall clock",
		"internal/core/verify.go:10:8: [matindex] manual Data index arithmetic",
		"internal/core/verify.go:18:22: [floateq] raw float ==",
		"internal/obs/export.go:15:13: [determinism] emit inside a range over a map",
	}
	var got []string
	for _, f := range run.findings {
		got = append(got, f.String())
	}
	if len(got) != len(want) {
		t.Fatalf("the gate reports %d finding(s) on the seeded bugs, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if _, rest, ok := strings.Cut(got[i], "/lintmodule/"); !ok || !strings.HasPrefix(rest, w) {
			t.Errorf("finding %d = %s\nwant …/lintmodule/%s…", i, got[i], w)
		}
	}
}
