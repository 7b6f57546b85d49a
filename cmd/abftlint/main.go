// Command abftlint runs the repository's custom static-analysis suite
// (tools/analyzers) over the packages named on the command line:
//
//	go run ./cmd/abftlint ./...
//
// It exits 0 when the tree is clean, 1 when any analyzer reports a
// finding, and 2 when the packages cannot be loaded or type-checked.
// Intentional violations are suppressed line-by-line with
// //nolint:abftlint (whole suite) or //nolint:<analyzer>, always with
// a trailing justification; see docs/LINTING.md.
//
// -json emits one JSON object per diagnostic (suppressed ones
// included, marked) for CI artifacts and tooling. -nolint-report
// audits the escape hatches instead of linting: it lists every
// //nolint directive and fails if one carries no justification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"abftchol/tools/analyzers"
	"abftchol/tools/analyzers/analysis"
)

func main() {
	printVersion := flag.String("V", "", "print version and exit (go vet handshake)")
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per diagnostic (suppressed findings included) on stdout")
	nolintReport := flag.Bool("nolint-report", false, "audit //nolint directives instead of linting; fail on missing justifications")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: abftlint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the abftchol static-analysis suite; 'abftlint ./...' checks the whole module.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *printVersion != "" {
		// Enough of the vet tool handshake to identify ourselves;
		// abftlint is driven standalone (this module vendors no
		// x/tools, so the full unitchecker protocol is out of reach).
		fmt.Println("abftlint version devel")
		return
	}
	if *list {
		for _, a := range analyzers.Suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs := load(patterns)
	if pkgs == nil {
		os.Exit(2)
	}
	if *nolintReport {
		os.Exit(auditNolint(os.Stdout, pkgs))
	}
	os.Exit(run(os.Stdout, pkgs, *jsonOut))
}

// load resolves the patterns into type-checked packages, or returns
// nil after printing why (the caller exits 2).
func load(patterns []string) []*analysis.Package {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "abftlint:", err)
		return nil
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abftlint:", err)
		return nil
	}
	broken := false
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			fmt.Fprintf(os.Stderr, "abftlint: %s: %v\n", pkg.ImportPath, e)
			broken = true
		}
	}
	if broken {
		return nil
	}
	return pkgs
}

// jsonHeader is the first line of -json output: it names the suite
// revision that produced the findings, so CI artifact diffs can tell
// a changed tree from a changed toolchain, and carries each analyzer's
// wall time so the artifact doubles as the suite's performance record
// (`tools/bench lint` gates them against a committed baseline).
// Findings follow, one object per line, sorted by (file, line, column,
// analyzer) — the order is deterministic regardless of package load
// order. The timings are the only nondeterministic bytes, and they
// stay confined to this line so a findings diff can skip it.
type jsonHeader struct {
	Suite     string `json:"suite"`
	Version   string `json:"version"`
	Analyzers int    `json:"analyzers"`
	// TimingsMS maps analyzer name → wall milliseconds spent across
	// every package in this run; TotalMS is their sum.
	TimingsMS map[string]float64 `json:"timings_ms,omitempty"`
	TotalMS   float64            `json:"total_ms,omitempty"`
}

// jsonFinding is the one-line-per-diagnostic wire format of -json.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// run lints the loaded packages, printing findings to out; it returns
// the process exit code.
func run(out io.Writer, pkgs []*analysis.Package, asJSON bool) int {
	findings, timings, err := analysis.RunAllTimed(pkgs, analyzers.Suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abftlint:", err)
		return 2
	}
	active := 0
	enc := json.NewEncoder(out)
	if asJSON {
		ms := make(map[string]float64, len(timings))
		total := 0.0
		for name, d := range timings {
			v := float64(d.Microseconds()) / 1000
			ms[name] = v
			total += v
		}
		enc.Encode(jsonHeader{
			Suite:     "abftlint",
			Version:   analyzers.Version,
			Analyzers: len(analyzers.Suite),
			TimingsMS: ms,
			TotalMS:   total,
		})
	}
	for _, f := range findings {
		if !f.Suppressed {
			active++
		}
		switch {
		case asJSON:
			enc.Encode(jsonFinding{
				Analyzer:   f.Analyzer.Name,
				File:       f.Pos.Filename,
				Line:       f.Pos.Line,
				Column:     f.Pos.Column,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
		case !f.Suppressed:
			fmt.Fprintln(out, f)
		}
	}
	if active > 0 {
		fmt.Fprintf(os.Stderr, "abftlint: %d finding(s)\n", active)
		return 1
	}
	return 0
}

// auditNolint lists every //nolint escape hatch in the packages and
// fails when one carries no justification — an escape without a reason
// is a silent hole in the invariant the suppressed analyzer guards —
// or when one is stale: no analyzer reports anything on its line
// anymore, so the directive outlived the violation it was written for
// and should be deleted before it silences a future, different one.
// It takes packages already loaded, so a caller that has just linted
// them audits them without loading the module again.
func auditNolint(out io.Writer, pkgs []*analysis.Package) int {
	findings, err := analysis.RunAll(pkgs, analyzers.Suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abftlint:", err)
		return 2
	}
	// Which analyzers actually fired, per annotated line. A directive is
	// live only if it suppresses at least one of them.
	fired := map[string]map[string]bool{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if fired[key] == nil {
			fired[key] = map[string]bool{}
		}
		fired[key][f.Analyzer.Name] = true
	}
	unjustified, stale := 0, 0
	for _, d := range analysis.NolintDirectives(pkgs) {
		scope := "suite"
		if !d.All {
			scope = ""
			for i, n := range d.Names {
				if i > 0 {
					scope += ","
				}
				scope += n
			}
		}
		live := false
		onLine := fired[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)]
		if d.All {
			live = len(onLine) > 0
		} else {
			for _, n := range d.Names {
				if onLine[n] {
					live = true
					break
				}
			}
		}
		just := d.Justification
		if just == "" {
			just = "MISSING JUSTIFICATION"
			unjustified++
		}
		if !live {
			just = "STALE (no analyzer reports here anymore — delete the directive): " + just
			stale++
		}
		fmt.Fprintf(out, "%s:%d: nolint(%s): %s\n", d.Pos.Filename, d.Pos.Line, scope, just)
	}
	if unjustified > 0 {
		fmt.Fprintf(os.Stderr, "abftlint: %d //nolint directive(s) without justification\n", unjustified)
	}
	if stale > 0 {
		fmt.Fprintf(os.Stderr, "abftlint: %d stale //nolint directive(s)\n", stale)
	}
	if unjustified+stale > 0 {
		return 1
	}
	return 0
}
