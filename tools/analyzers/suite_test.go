package analyzers_test

import (
	"os"
	"sort"
	"strings"
	"testing"

	"abftchol/tools/analyzers"
)

// TestSuiteWellFormed pins the registry's contract: every analyzer is
// uniquely named and fully described, since names key the //nolint
// escape hatch and docs.
func TestSuiteWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analyzers.Suite {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing Name, Doc, or Run", a)
		}
		if a.Scope == "" {
			t.Errorf("analyzer %s has no Scope; the generated doc table needs one", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %s; //nolint:%s would be ambiguous", a.Name, a.Name)
		}
		seen[a.Name] = true
	}
}

// TestSuiteSorted pins the Suite literal to name order, which the
// generated table in docs/LINTING.md follows.
func TestSuiteSorted(t *testing.T) {
	if !sort.SliceIsSorted(analyzers.Suite, func(i, j int) bool {
		return analyzers.Suite[i].Name < analyzers.Suite[j].Name
	}) {
		names := make([]string, len(analyzers.Suite))
		for i, a := range analyzers.Suite {
			names[i] = a.Name
		}
		t.Fatalf("Suite is not sorted by name: %v", names)
	}
}

// TestDocTableCurrent requires docs/LINTING.md to document every
// registered analyzer in its own prose section. The generated table
// itself is drift-tested with the other generated docs by
// tools/gendoc's TestDocsCurrent.
func TestDocTableCurrent(t *testing.T) {
	data, err := os.ReadFile("../../docs/LINTING.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, a := range analyzers.Suite {
		if !strings.Contains(doc, "## "+a.Name+" — ") {
			t.Errorf("docs/LINTING.md has no `## %s — ...` section; document the invariant, rationale, failing example, and escape hatch", a.Name)
		}
	}
}
