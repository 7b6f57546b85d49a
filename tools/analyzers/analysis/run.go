package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one post-attribution diagnostic, positioned and filtered.
type Finding struct {
	Analyzer *Analyzer
	Pos      token.Position
	Message  string
	// Suppressed marks a diagnostic silenced by a //nolint directive on
	// its line. Run drops suppressed findings; RunAll keeps them so the
	// //nolint audit (TestNolintReport) can tell a live escape from a
	// stale one.
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer.Name, f.Message)
}

// Run executes every applicable analyzer over every package and
// returns the surviving findings, sorted by position. Diagnostics on a
// line carrying a //nolint:abftlint or //nolint:<analyzer> comment are
// suppressed — the sanctioned escape hatch for intentional violations,
// which should always carry a justification after the directive.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	all, err := RunAll(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	findings := all[:0]
	for _, f := range all {
		if !f.Suppressed {
			findings = append(findings, f)
		}
	}
	return findings, nil
}

// RunAll is Run without the suppression filter: every diagnostic is
// returned, with Suppressed set on the ones a //nolint directive
// silences.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		suppressed := nolintLines(pkg)
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				ImportPath: pkg.ImportPath,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, d := range pass.diagnostics {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					Analyzer:   a,
					Pos:        pos,
					Message:    d.Message,
					Suppressed: suppressed[lineKey{pos.Filename, pos.Line}].allows(a.Name),
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer.Name != b.Analyzer.Name {
			return a.Analyzer.Name < b.Analyzer.Name
		}
		// One analyzer may report twice at a position; the message
		// settles the order.
		return a.Message < b.Message
	})
	return findings, nil
}

type lineKey struct {
	file string
	line int
}

// suppression records which analyzer names a nolint comment silences;
// the suite-wide name "abftlint" (or a bare //nolint) silences all.
type suppression struct {
	all   bool
	names map[string]bool
}

func (s suppression) allows(name string) bool {
	return s.all || s.names[name]
}

// nolintLines maps each annotated source line of a package to the
// analyzers its directive suppresses.
func nolintLines(pkg *Package) map[lineKey]suppression {
	out := map[lineKey]suppression{}
	for _, d := range NolintDirectives([]*Package{pkg}) {
		s := suppression{all: d.All, names: map[string]bool{}}
		for _, n := range d.Names {
			s.names[n] = true
		}
		out[lineKey{d.Pos.Filename, d.Pos.Line}] = s
	}
	return out
}

// NolintDirective is one //nolint escape comment, parsed.
type NolintDirective struct {
	Pos token.Position
	// All is set for a bare //nolint or //nolint:abftlint (the whole
	// suite); Names lists individually silenced analyzers otherwise.
	All   bool
	Names []string
	// Justification is the free text following the directive — the
	// human argument for why the invariant does not apply here. The
	// audit (tools/analyzers' TestNolintReport) fails on directives
	// that leave it empty.
	Justification string
}

// NolintDirectives scans every comment of the given packages and
// returns the parsed //nolint directives, sorted by position.
func NolintDirectives(pkgs []*Package) []NolintDirective {
	var out []NolintDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, "nolint")
					if !ok {
						continue
					}
					// The word must end here: "nolint", "nolint:…", or
					// "nolint — reason". An identifier that merely starts
					// with the letters (nolintLines) is not a directive.
					if rest != "" && rest[0] != ':' && rest[0] != ' ' && rest[0] != '\t' {
						continue
					}
					d := NolintDirective{Pos: pkg.Fset.Position(c.Slash)}
					rest = strings.TrimSpace(rest)
					if names, ok := strings.CutPrefix(rest, ":"); ok {
						// Everything after the first whitespace is the
						// human justification, not more analyzer names.
						just := ""
						if i := strings.IndexAny(names, " \t"); i >= 0 {
							just = names[i:]
							names = names[:i]
						}
						for _, n := range strings.Split(names, ",") {
							n = strings.TrimSpace(n)
							if n == "abftlint" {
								d.All = true
							} else if n != "" {
								d.Names = append(d.Names, n)
							}
						}
						d.Justification = trimJustification(just)
					} else {
						// A bare //nolint silences everything on the line.
						d.All = true
						d.Justification = trimJustification(rest)
					}
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// trimJustification strips the separating punctuation conventionally
// written between the directive and its rationale.
func trimJustification(s string) string {
	return strings.TrimLeft(strings.TrimSpace(s), "—–-: \t")
}
