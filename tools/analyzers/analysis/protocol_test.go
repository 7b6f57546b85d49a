package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func parseProtocolSrc(t *testing.T, src string) *Protocol {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return ParseProtocol([]*ast.File{f})
}

func TestParseProtocol(t *testing.T) {
	p := parseProtocolSrc(t, `package p

// abft:protocol scheme SchemeOnline ft verify=post-write

// abft:protocol scheme SchemeNone verify=none

// runOnce is the left-looking driver.
//
// abft:protocol driver steps=syrk,gemm,potf2,trsm
func runOnce() {}

// runOnceRight is the right-looking variant.
//
// abft:protocol driver steps=potf2,trsm,trailingUpdate
func runOnceRight() {}
`)
	if len(p.Errors) != 0 {
		t.Fatalf("unexpected errors: %+v", p.Errors)
	}
	want := map[string][]string{
		"runOnce":      {"syrk", "gemm", "potf2", "trsm"},
		"runOnceRight": {"potf2", "trsm", "trailingUpdate"},
	}
	if got := p.StepTable(); !reflect.DeepEqual(got, want) {
		t.Errorf("StepTable = %v, want %v", got, want)
	}
	online, ok := p.Scheme("SchemeOnline")
	if !ok || !online.FT || online.Verify != VerifyPostWrite {
		t.Errorf("SchemeOnline = %+v, %v", online, ok)
	}
	none, ok := p.Scheme("SchemeNone")
	if !ok || none.FT || none.Verify != VerifyNone {
		t.Errorf("SchemeNone = %+v, %v", none, ok)
	}
}

func TestParseProtocolErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of the expected error
	}{
		{"package p\n\n// abft:protocol driver steps=a\nvar x int\n", "not attached to a function declaration"},
		{"package p\n\n// abft:protocol flavor x\n", "unknown abft:protocol directive"},
		{"package p\n\n// abft:protocol driver steps=\nfunc f() {}\n\nfunc g() {}\n", "empty step name"},
		{"package p\n\n// abft:protocol driver\nfunc f() {}\n", "declares no steps"},
		{"package p\n\n// abft:protocol driver bogus=1\nfunc f() {}\n", "unknown field"},
		{"package p\n\n// abft:protocol scheme\n", "needs a scheme constant name"},
		{"package p\n\n// abft:protocol scheme S ft\n", "declares no verify="},
		{"package p\n\n// abft:protocol scheme S verify=later\n", "unknown verify discipline"},
		{"package p\n\n// abft:protocol scheme S bogus verify=none\n", "unknown field"},
		{"package p\n\n// abft:protocol scheme S verify=none\n\n// abft:protocol scheme S verify=none\n", "duplicate abft:protocol scheme"},
		{"package p\n\n// abft:protocol driver steps=a\n// abft:protocol driver steps=b\nfunc f() {}\n", "duplicate abft:protocol driver"},
	}
	for _, c := range cases {
		p := parseProtocolSrc(t, c.src)
		found := false
		for _, e := range p.Errors {
			if strings.Contains(e.Message, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("source %q: no error containing %q (got %+v)", c.src, c.want, p.Errors)
		}
	}
}

// TestParseProtocolIgnoresProse pins that ordinary comments mentioning
// the marker mid-sentence are not parsed as directives.
func TestParseProtocolIgnoresProse(t *testing.T) {
	p := parseProtocolSrc(t, `package p

// The abft:protocol convention is documented in docs/LINTING.md; this
// sentence is prose, not a directive, because the marker is not at the
// start of the line... except it is here, so keep markers flush-left
// only in real directives.
func f() {}
`)
	if len(p.Errors) != 0 || len(p.Drivers) != 0 || len(p.Schemes) != 0 {
		t.Errorf("prose comment parsed as directive: %+v", p)
	}
}
