// Package analyzers registers the abftlint suite: the static passes
// that keep the repository's fault-tolerance invariants machine
// checked. See docs/LINTING.md for the invariant each pass guards and
// the sanctioned //nolint escape hatch. The gate runs as this
// package's tests (gate_test.go): `go test ./tools/analyzers`.
//
//go:generate go run abftchol/tools/gendoc linting
package analyzers

import (
	"abftchol/tools/analyzers/analysis"
	"abftchol/tools/analyzers/determinism"
	"abftchol/tools/analyzers/floateq"
	"abftchol/tools/analyzers/matindex"
)

// Suite lists every analyzer the gate runs, in name order: the
// generated table in docs/LINTING.md follows it.
var Suite = []*analysis.Analyzer{
	determinism.Analyzer,
	floateq.Analyzer,
	matindex.Analyzer,
}
