// Package analyzers registers the abftlint suite: the static passes
// that keep the repository's fault-tolerance invariants machine
// checked. See docs/LINTING.md for the invariant each pass guards and
// the sanctioned //nolint escape hatch.
//
//go:generate go run abftchol/tools/gendoc linting
package analyzers

import (
	"sort"

	"abftchol/tools/analyzers/analysis"
	"abftchol/tools/analyzers/determinism"
	"abftchol/tools/analyzers/floateq"
	"abftchol/tools/analyzers/matindex"
)

// Version identifies the suite revision in machine-readable output
// (abftlint -json emits it in the header line). Bump it whenever the
// analyzer set, a diagnostic format, or the JSON wire format changes,
// so CI artifact consumers can detect incomparable runs.
const Version = "0.18.0"

// Suite lists every analyzer the abftlint driver runs. The order is
// load-bearing — it fixes the sequence of findings in -json output and
// therefore the CI artifact — so registration is normalized to name
// order at init and pinned by a drift test, keeping the artifact
// stable as analyzers are added.
var Suite = []*analysis.Analyzer{
	determinism.Analyzer,
	floateq.Analyzer,
	matindex.Analyzer,
}

func init() {
	sort.Slice(Suite, func(i, j int) bool { return Suite[i].Name < Suite[j].Name })
}
