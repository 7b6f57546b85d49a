// Package analysistest runs one analyzer over a testdata package and
// checks its diagnostics against `// want "regexp"` comments, the
// prysm-style expectation format of golang.org/x/tools'
// go/analysis/analysistest. A line may carry several expectations
// (`// want "a" "b"`); every diagnostic must match exactly one pending
// expectation on its line and every expectation must be consumed.
// Driver-level nolint filtering is applied, so testdata can (and
// should) also exercise the //nolint escape hatch: a flagged pattern
// carrying //nolint and no want comment passes only if suppression
// works.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"abftchol/tools/analyzers/analysis"
)

// An Option adjusts how Run loads the testdata package.
type Option func(*config)

type config struct {
	importPath string
}

// ImportAs loads the testdata package under the given import path, so
// analyzers scoped with AppliesTo see the path their invariant guards.
func ImportAs(path string) Option {
	return func(c *config) { c.importPath = path }
}

// Run loads the package rooted at dir (relative to the test's working
// directory, e.g. "testdata/src/coretest"), applies the analyzer,
// and reports mismatches against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string, opts ...Option) {
	t.Helper()
	cfg := config{importPath: "abftchol/" + filepath.ToSlash(dir)}
	for _, o := range opts {
		o(&cfg)
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkgs, err := loader.LoadDir(abs, cfg.importPath)
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			t.Errorf("analysistest: testdata does not type-check: %v", e)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	wants := collectWants(t, pkgs)
	for _, f := range findings {
		key := lineKey{f.Pos.Filename, f.Pos.Line}
		if !consume(wants[key], f.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re.String())
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func consume(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

var quoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func collectWants(t *testing.T, pkgs []*analysis.Package) map[lineKey][]*want {
	t.Helper()
	out := map[lineKey][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Slash)
					key := lineKey{pos.Filename, pos.Line}
					for _, q := range quoted.FindAllString(rest, -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						out[key] = append(out[key], &want{re: re})
					}
					if len(out[key]) == 0 {
						t.Fatalf("%s: want comment carries no quoted pattern", pos)
					}
				}
			}
		}
	}
	return out
}
