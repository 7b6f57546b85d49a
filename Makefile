# Single source of truth for the verification gates. CI
# (.github/workflows/ci.yml) runs exactly these targets, so a green
# `make ci` locally means a green pipeline.

GO ?= go

.PHONY: build test race lint lint-bench perfbench-check ci fmt bench trace-demo serve-smoke campaign-smoke

# The arm64 vet pass type-checks the tree without the amd64 assembly,
# so the portable micro-kernel (internal/blas/kern_other.go) keeps
# compiling where kern_amd64.s does not apply.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test ./...

# The race gate takes a while (internal/core re-runs the factorization
# property tests under the detector); it is still part of `make ci`.
race:
	$(GO) test -race ./...

# lint = formatting + go vet + the repository's own analyzer suite
# (cmd/abftlint — see docs/LINTING.md for the current roster; the
# `./...` pattern covers internal/, cmd/, and tools/, so the analyzers
# lint their own implementation too). The -nolint-report pass audits
# every //nolint escape and fails on missing justifications.
# escapecheck rebuilds internal/blas, checksum and mat with the
# compiler's escape, inlining and bounds-check diagnostics and fails on
# any abft:hotpath or abft:bce claim they contradict.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/abftlint ./...
	$(GO) run ./cmd/abftlint -nolint-report ./...
	$(GO) run ./tools/escapecheck

# Time the analyzer suite itself: one full module load/type-check
# (BenchmarkLoadRepo) and one pass of all registered analyzers over it
# (BenchmarkSuite). The current figures live in docs/LINTING.md; rerun
# this when adding an analyzer to keep them honest. `tools/bench -check
# lint` then gates the load and per-analyzer times against the
# committed BENCH_lint.json (fail past 3x, or on a changed suite version
# or analyzer roster): a suite that quietly tripled its own cost is a
# regression, not noise. Re-record with `go run ./tools/bench lint`
# when the roster changes. The gate is not piped through tee, which
# would hide its exit status; the fresh report is
# artifacts/BENCH_lint.json.
lint-bench:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench 'BenchmarkLoadRepo|BenchmarkSuite|BenchmarkSummaries' -benchmem \
		./tools/analyzers/analysis | tee artifacts/lint-bench.txt
	$(GO) run ./tools/bench -check lint

# perfbench (BENCHMARK.json's benchmark) is a Go module of its own
# that calls the blas, checksum and core APIs directly; `./...` above
# never loads it, so this is where a signature change breaks the build
# instead of the benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Rewrite files in place to satisfy the formatting gate.
fmt:
	gofmt -w .

# Benchmarks plus a deterministic metrics snapshot of the full
# experiment sweep, so a perf investigation always has the matching
# kernel/verification counters next to the timings. tools/bench then
# re-records every committed BENCH_<name>.json at the repo root in its
# one schema (environment, timed entries with reps/median/min, rates,
# exact values): blas times the BLAS3 kernels plain vs fused with their
# checksum update; sweep times the full `-exp all` sweep serial-cold vs
# parallel-cold vs warm-cache (verifying byte-identity, and writing the
# warm pass's cache-hit metrics to artifacts/sweep-cache-metrics.json);
# reliability runs the default fault-injection campaign grid serial vs
# parallel and keeps its coverage report; lint times the analyzer suite.
# CI gates each file with `go run ./tools/bench -check <name>`.
bench:
	mkdir -p artifacts
	$(GO) test -bench=. -benchmem ./... | tee artifacts/bench.txt
	$(GO) run ./cmd/abftchol -exp all -quick -metrics-out artifacts/bench-metrics.json > /dev/null
	$(GO) run ./tools/bench sweep
	$(GO) run ./tools/bench blas
	$(GO) run ./tools/bench reliability
	$(GO) run ./tools/bench lint

# End-to-end check of the job daemon (docs/SERVICE.md): build abftd,
# boot it on a random port, drive a submit → poll → fetch session,
# prove dedup and warm-cache submissions execute zero kernels, and
# SIGTERM through a graceful drain — twice, restarting against the
# same result store. The transcript lands in artifacts/serve-smoke.txt
# (CI uploads it).
serve-smoke:
	mkdir -p artifacts
	$(GO) run ./tools/smoke serve

# Kill-and-resume check of the reliability campaign engine
# (docs/RELIABILITY.md): build abftchol, run a reference campaign to
# completion, SIGKILL an identical journaled campaign mid-shard, resume
# from the torn journal, and prove the resumed report is byte-identical
# to the uninterrupted one. The transcript lands in
# artifacts/campaign-smoke.txt (CI uploads it).
campaign-smoke:
	mkdir -p artifacts
	$(GO) run ./tools/smoke campaign

# The observability artifacts CI uploads: a Perfetto-loadable Chrome
# trace of the fig8 sweep's last run plus the sweep's metrics
# snapshot (see docs/OBSERVABILITY.md for how to read both).
trace-demo:
	mkdir -p artifacts
	$(GO) run ./cmd/abftchol -exp fig8 -quick \
		-trace-out artifacts/fig8-trace.json \
		-metrics-out artifacts/fig8-metrics.json > artifacts/fig8.txt
	@echo "wrote artifacts/fig8-trace.json artifacts/fig8-metrics.json artifacts/fig8.txt"

ci: build lint perfbench-check race
