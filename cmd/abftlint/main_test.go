package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"abftchol/tools/analyzers"
	"abftchol/tools/analyzers/analysis"
)

// modulePkgs loads and type-checks the whole module once per test
// binary, the analyzers' own implementation and this driver included.
var modulePkgs = sync.OnceValue(func() []*analysis.Package {
	return load([]string{"../../..."})
})

// moduleLint runs the whole suite over the module once, exactly as CI
// does, in -json mode. TestRepositoryIsClean, TestSelfLint and
// TestJSONOutput each check one side of that single run, and
// TestNolintReport audits the same packages.
var moduleLint = sync.OnceValues(func() (int, string) {
	pkgs := modulePkgs()
	if pkgs == nil {
		return 2, ""
	}
	var sb strings.Builder
	code := run(&sb, pkgs, true)
	return code, sb.String()
})

// TestRepositoryIsClean requires the module run to exit 0: the tree
// must lint clean (intentional violations carry //nolint
// justifications).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	if code, _ := moduleLint(); code != 0 {
		t.Fatalf("abftlint exited %d on the repository; run 'go run ./cmd/abftlint ./...' for the findings", code)
	}
}

// TestSelfLint requires the module run to report no unsuppressed
// finding in the suite's own implementation — the analyzers, their
// framework, and this driver. Linting tools that do not survive their
// own gate are not trustworthy gates.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the tool packages")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	_, out := moduleLint()
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Scan() // suite header; TestJSONOutput checks its shape
	for sc.Scan() {
		var f jsonFinding
		if err := json.Unmarshal([]byte(sc.Text()), &f); err != nil {
			t.Fatalf("-json emitted a non-JSON line %q: %v", sc.Text(), err)
		}
		rel, err := filepath.Rel(root, f.File)
		if err != nil {
			t.Fatalf("finding outside the module: %s: %v", f.File, err)
		}
		rel = filepath.ToSlash(rel)
		if !f.Suppressed && (strings.HasPrefix(rel, "tools/") || strings.HasPrefix(rel, "cmd/")) {
			t.Errorf("abftlint reports an unsuppressed finding in its own implementation: %s:%d [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
		}
	}
}

// TestJSONOutput checks the -json shape of the module run: the first
// line must identify the suite revision, every following line must be
// a well-formed diagnostic object in (file, line, column, analyzer)
// order, and the deliberately suppressed findings must appear marked
// rather than vanish.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	code, out := moduleLint()
	if code != 0 {
		t.Fatalf("abftlint -json exited %d on the repository; run 'go run ./cmd/abftlint ./...' for the findings", code)
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	if !sc.Scan() {
		t.Fatal("-json emitted no output; want a suite header line")
	}
	var hdr jsonHeader
	if err := json.Unmarshal([]byte(sc.Text()), &hdr); err != nil {
		t.Fatalf("-json first line is not JSON: %q: %v", sc.Text(), err)
	}
	if hdr.Suite != "abftlint" || hdr.Version != analyzers.Version || hdr.Analyzers != len(analyzers.Suite) {
		t.Fatalf("-json header = %+v, want suite abftlint version %s with %d analyzers", hdr, analyzers.Version, len(analyzers.Suite))
	}
	if len(hdr.TimingsMS) != len(analyzers.Suite) {
		t.Fatalf("-json header timings cover %d analyzers, want every one of the %d", len(hdr.TimingsMS), len(analyzers.Suite))
	}
	sum := 0.0
	for _, a := range analyzers.Suite {
		ms, ok := hdr.TimingsMS[a.Name]
		if !ok || ms < 0 {
			t.Errorf("-json header timing for %s = %v ms (present %v), want a non-negative entry", a.Name, ms, ok)
		}
		sum += ms
	}
	if diff := hdr.TotalMS - sum; diff > 0.01 || diff < -0.01 {
		t.Errorf("-json header total_ms = %v, want the per-analyzer sum %v", hdr.TotalMS, sum)
	}
	var prev *jsonFinding
	for sc.Scan() {
		line := sc.Text()
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("-json emitted a non-JSON line %q: %v", line, err)
		}
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("-json diagnostic missing fields: %q", line)
		}
		if !f.Suppressed {
			t.Errorf("repository is clean yet -json emitted an unsuppressed finding: %q", line)
		}
		if prev != nil && findingLess(&f, prev) {
			t.Errorf("-json diagnostics out of (file, line, column, analyzer) order: %s:%d:%d [%s] after %s:%d:%d [%s]",
				f.File, f.Line, f.Column, f.Analyzer, prev.File, prev.Line, prev.Column, prev.Analyzer)
		}
		g := f
		prev = &g
	}
}

// findingLess is the CI artifact order: (file, line, column, analyzer).
func findingLess(a, b *jsonFinding) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Column != b.Column {
		return a.Column < b.Column
	}
	return a.Analyzer < b.Analyzer
}

// TestDriverOnSeededBugs points the driver at a self-contained fixture
// module carrying seeded bugs — a map-range streamed into a JSON
// encoder and a wall-clock read in the numeric core (determinism) —
// and asserts the end-to-end pipeline (loader, suite, driver
// formatting, exit code) reports every one of them.
func TestDriverOnSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the fixture module")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("testdata/lintmodule"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var sb strings.Builder
	pkgs := load([]string{"./..."})
	if pkgs == nil {
		t.Fatal("the seeded-bug module does not load")
	}
	if code := run(&sb, pkgs, false); code != 1 {
		t.Fatalf("driver exited %d on the seeded-bug module, want 1; output:\n%s", code, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"[determinism] emit inside a range over a map",
		"[determinism] time.Now reads the wall clock",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("driver output carries no %q finding on the seeded bug:\n%s", want, out)
		}
	}
}

// TestNolintReport audits the repository's escape hatches: the mode
// must list each directive and pass only while every one carries a
// justification. It audits the packages moduleLint loaded.
func TestNolintReport(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	pkgs := modulePkgs()
	if pkgs == nil {
		t.Fatal("the module does not load")
	}
	var sb strings.Builder
	if code := auditNolint(&sb, pkgs); code != 0 {
		t.Fatalf("abftlint -nolint-report exited %d:\n%s", code, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "nolint(") {
		t.Fatalf("-nolint-report listed no directives; internal/ carries known escapes:\n%s", out)
	}
	if strings.Contains(out, "MISSING JUSTIFICATION") {
		t.Fatalf("-nolint-report found unjustified escapes yet exited 0:\n%s", out)
	}
}
