package analyzers

import (
	"fmt"
	"strings"
)

// Markers delimiting the generated analyzer table in docs/LINTING.md.
// Everything between them is owned by `go generate ./tools/analyzers`
// (tools/gendoc); hand edits there are overwritten.
const (
	TableBegin = "<!-- BEGIN GENERATED ANALYZER TABLE (go generate ./tools/analyzers) -->"
	TableEnd   = "<!-- END GENERATED ANALYZER TABLE -->"
)

// AnalyzerTable renders the suite registry as the markdown table
// embedded in docs/LINTING.md. Generating the table from Suite (and
// asserting the embedding in suite_test.go) keeps the documentation
// and the registry from drifting: an analyzer added to one but not the
// other fails the build.
func AnalyzerTable() string {
	var b strings.Builder
	b.WriteString("| analyzer | scope | checks |\n")
	b.WriteString("|----------|-------|--------|\n")
	for _, a := range Suite {
		scope := a.Scope
		if scope == "" {
			scope = "all packages"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", a.Name, scope, a.Doc)
	}
	return b.String()
}
