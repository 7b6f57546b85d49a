package abftprotocol_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"abftchol/tools/analyzers/abftprotocol"
	"abftchol/tools/analyzers/analysis"
	"abftchol/tools/analyzers/analysistest"
)

// TestAbftprotocolOrdering runs the verification-ordering fixture,
// loaded under an internal/core child path so AppliesTo admits it.
func TestAbftprotocolOrdering(t *testing.T) {
	analysistest.Run(t, abftprotocol.Analyzer, "testdata/src/orderingtest",
		analysistest.ImportAs("abftchol/internal/core/orderingtest"))
}

// TestAbftprotocolPairing runs the checksum-pairing and call-site
// fixture, loaded the same way.
func TestAbftprotocolPairing(t *testing.T) {
	analysistest.Run(t, abftprotocol.Analyzer, "testdata/src/pairingtest",
		analysistest.ImportAs("abftchol/internal/core/pairingtest"))
}

// The tables the ordering check hard-coded before the abft:protocol
// annotations existed (PR 2). The drift test pins the
// annotation-derived tables to them byte for byte, so moving the
// protocol into internal/core cannot silently change what is checked.
var legacyProtocol = map[string][]string{
	"runOnce":      {"syrk", "gemm", "potf2", "trsm"},
	"runOnceRight": {"potf2", "trsm", "trailingUpdate"},
}

var legacySpecs = []struct {
	scheme  string
	ft      bool
	preRead bool
}{
	{scheme: "SchemeEnhanced", ft: true, preRead: true},
	{scheme: "SchemeOnline", ft: true, preRead: false},
}

func loadCoreProtocol(t *testing.T) *analysis.Protocol {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../../../internal/core", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	byName := map[string]*ast.File{}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			names = append(names, name)
			byName[name] = f
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		files = append(files, byName[name])
	}
	p := analysis.ParseProtocol(files)
	for _, e := range p.Errors {
		t.Errorf("internal/core protocol annotation error at %s: %s", fset.Position(e.Pos), e.Message)
	}
	return p
}

func renderStepTable(table map[string][]string) string {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s: %s\n", name, strings.Join(table[name], ","))
	}
	return b.String()
}

// TestProtocolTableMatchesLegacy proves the annotation-derived driver
// table equals the historical hard-coded one.
func TestProtocolTableMatchesLegacy(t *testing.T) {
	p := loadCoreProtocol(t)
	got, want := renderStepTable(p.StepTable()), renderStepTable(legacyProtocol)
	if got != want {
		t.Errorf("annotation-derived protocol table drifted from the legacy table:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestProtocolSpecsMatchLegacy proves the annotation-derived scheme
// disciplines reproduce the two hard-coded specs — and introduce no
// additional statically-checked discipline, so historical findings are
// reproduced exactly.
func TestProtocolSpecsMatchLegacy(t *testing.T) {
	p := loadCoreProtocol(t)
	for _, ls := range legacySpecs {
		s, ok := p.Scheme(ls.scheme)
		if !ok {
			t.Errorf("no abft:protocol scheme annotation for %s", ls.scheme)
			continue
		}
		if s.FT != ls.ft {
			t.Errorf("%s: ft = %v, legacy %v", ls.scheme, s.FT, ls.ft)
		}
		if got := s.Verify == analysis.VerifyPreRead; got != ls.preRead {
			t.Errorf("%s: preRead = %v (verify=%s), legacy %v", ls.scheme, got, s.Verify, ls.preRead)
		}
	}
	var active []string
	for _, s := range p.Schemes {
		if s.Verify == analysis.VerifyPreRead || s.Verify == analysis.VerifyPostWrite {
			active = append(active, s.Name)
		}
	}
	sort.Strings(active)
	if want := []string{"SchemeEnhanced", "SchemeOnline"}; strings.Join(active, ",") != strings.Join(want, ",") {
		t.Errorf("statically-checked schemes = %v, legacy %v", active, want)
	}
}
