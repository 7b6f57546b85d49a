package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"abftchol/tools/analyzers"
)

// TestRepositoryIsClean runs the whole suite over the module exactly
// as CI does; the tree must lint clean (intentional violations carry
// //nolint justifications).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	if code := run(io.Discard, []string{"../../..."}, false); code != 0 {
		t.Fatalf("abftlint exited %d on the repository; run 'go run ./cmd/abftlint ./...' for the findings", code)
	}
}

// TestSelfLint runs the suite over its own implementation — the
// analyzers, their framework, and this driver. Linting tools that do
// not survive their own gate are not trustworthy gates.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the tool packages")
	}
	if code := run(io.Discard, []string{"../../tools/...", "../../cmd/..."}, false); code != 0 {
		t.Fatalf("abftlint exited %d on its own implementation", code)
	}
}

// TestJSONOutput checks the -json mode on the analyzer testdata trees:
// the first line must identify the suite revision, every following
// line must be a well-formed diagnostic object in (file, line, column,
// analyzer) order, and the deliberately suppressed findings must
// appear marked rather than vanish.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks testdata packages")
	}
	// The streamsync testdata package contains true positives and one
	// //nolint escape, but it only triggers when loaded in scope — the
	// repository run above proves the tree clean, so drive the JSON
	// path through the repository too and assert shape, not content.
	var sb strings.Builder
	if code := run(&sb, []string{"../../..."}, true); code != 0 {
		t.Fatalf("abftlint -json exited %d on the repository", code)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
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
// module carrying seeded bugs — an unguarded write to a guarded field
// (lockcheck), a leaked worker goroutine (goleak), a map-range streamed
// into a JSON encoder and a wall-clock read in the numeric core
// (determinism), a driver whose TRSM checksum update went missing and
// one that never verifies its TRSM's output under the post-write
// discipline (abftprotocol), a %v wrap severing a sentinel chain
// (errflow), and a handler minting context.Background() instead of
// inheriting the request context (ctxcheck) — and asserts the end-to-end pipeline (loader, suite,
// driver formatting, exit code) reports every one of them.
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
	if code := run(&sb, []string{"./..."}, false); code != 1 {
		t.Fatalf("driver exited %d on the seeded-bug module, want 1; output:\n%s", code, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"[lockcheck] write to r.counters without holding r.mu",
		"[goleak] goroutine has no join point",
		"[determinism] emit inside a range over a map",
		"[determinism] time.Now reads the wall clock",
		"[abftprotocol] TRSM panel solve can reach the next verification point without checksum.UpdateTRSM",
		"[abftprotocol] on the SchemeOnline path, trsm can reach the function exit without a subsequent verifyBlocks",
		"[errflow] fmt.Errorf without %w severs a classified error chain",
		"[ctxcheck] context.Background() in request-scoped code",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("driver output carries no %q finding on the seeded bug:\n%s", want, out)
		}
	}
}

// TestNolintReport audits the repository's escape hatches: the mode
// must list each directive and pass only while every one carries a
// justification.
func TestNolintReport(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	var sb strings.Builder
	if code := auditNolint(&sb, []string{"../../internal/..."}); code != 0 {
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
