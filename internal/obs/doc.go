// Package obs is the repository's observability layer: it turns a
// run of the simulated ABFT Cholesky factorization into artifacts a
// human (or a regression harness) can inspect after the fact.
//
// Two surfaces, both deterministic:
//
//   - A trace exporter (WriteChromeTrace, WriteJSONL) that serializes
//     a hetsim.Trace — every kernel, transfer, stream, slot
//     assignment, and instant mark — to the Chrome trace-event JSON
//     format loadable in Perfetto (https://ui.perfetto.dev) or
//     chrome://tracing, plus a compact one-object-per-line JSONL form
//     for ad-hoc scripting.
//
//   - A metrics registry (NewRegistry) of counters, float
//     accumulators, and log-bucketed histograms covering kernel
//     launches by class, checksum verifications, faults
//     injected/detected/corrected, restarts, bytes moved, and slot
//     contention. The metric set is closed: every name is declared in
//     Catalog, the registry rejects unknown names, and
//     docs/OBSERVABILITY.md's catalog table is drift-tested against
//     Catalog (regenerate with `go generate ./internal/obs`).
//
// Everything here is pure-function-of-the-run: same seed, same
// options, byte-identical snapshot and trace. That property is what
// lets tests assert on exported artifacts and what makes a metrics
// diff between two commits meaningful. The package is in the determinism
// analyzer's scope (see docs/LINTING.md), so wall-clock reads and
// ambient randomness are rejected at lint time.
//
// Wiring: core.Options.Metrics accepts a *Registry and
// core.Options.Trace a bool; cmd/abftchol exposes both as
// -metrics-out and -trace-out, and internal/experiments aggregates
// whole experiment sweeps through the same registry via Config.Obs.
package obs

//go:generate go run ../../tools/gendoc observability
