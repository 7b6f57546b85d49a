package obs

import (
	"sort"
	"strings"
	"testing"
)

// TestCatalogWellFormed pins the catalog's contract: unique,
// lowercase dotted names, each with a description, since names key
// the registry and the generated docs.
func TestCatalogWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Catalog {
		if m.Name == "" || m.Help == "" {
			t.Errorf("metric %+v is missing Name or Help", m)
		}
		if seen[m.Name] {
			t.Errorf("duplicate metric name %s", m.Name)
		}
		seen[m.Name] = true
		if m.Name != strings.ToLower(m.Name) || strings.ContainsAny(m.Name, " \t") {
			t.Errorf("metric name %q is not a lowercase dotted identifier", m.Name)
		}
	}
}

// TestDocCatalogMatchesLiveRegistry closes the loop from the other
// side: every name a live registry accepts appears in the documented
// catalog table, and nothing else does.
func TestDocCatalogMatchesLiveRegistry(t *testing.T) {
	var fromCatalog []string
	for _, m := range Catalog {
		fromCatalog = append(fromCatalog, m.Name)
	}
	sort.Strings(fromCatalog)
	live := NewRegistry().Names()
	if len(live) != len(fromCatalog) {
		t.Fatalf("registry holds %d names, catalog declares %d", len(live), len(fromCatalog))
	}
	for i := range live {
		if live[i] != fromCatalog[i] {
			t.Fatalf("registry name %q != catalog name %q at position %d", live[i], fromCatalog[i], i)
		}
	}
}
