# The verification gates. `make ci` is the whole pipeline: build, lint,
# perfbench-check, race, fuzz and bench-check. CI
# (.github/workflows/ci.yml) runs `make ci`, then `make trace-demo`,
# and uploads the artifacts both leave, so a green `make ci` locally is
# a green gate. The end-to-end sessions (the daemon's drain and metrics
# flush, the campaign's SIGKILL-and-resume) and the benches' exact
# values are tests, so `test` and `race` run them.

GO ?= go

.PHONY: build test race fuzz lint perfbench-check bench-check ci fmt bench trace-demo

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

# Native fuzzing of the trust boundaries (the campaign journal, the
# result cache's entry decoder, the daemon's submit decoders,
# fingerprints), the checksum verifier and
# the GEMM micro-kernels (the one chosen at init against the Go one),
# 10 s per target (`go test -fuzz` takes one package and one target per
# run). `go test ./...` already replays every seed and every
# committed testdata/fuzz regression input; this searches for new ones.
# A failure leaves the crashing input under the package's
# testdata/fuzz/<target>/, which is where its regression seed belongs.
# Minimizing a new input is capped at 100 execs: at Go's default (60 s)
# a target whose execs are slow, such as FuzzJournalLoad with one
# fsynced journal per exec, spends its whole 10 s shrinking the first
# input it finds and fuzzes nothing after it.
FUZZ = -run '^$$' -fuzztime 10s -fuzzminimizetime 100x

fuzz:
	$(GO) test ./internal/checksum $(FUZZ) -fuzz '^FuzzVerifyAndCorrect$$'
	$(GO) test ./internal/fault $(FUZZ) -fuzz '^FuzzCampaignInvariants$$'
	$(GO) test ./internal/reliability/campaign $(FUZZ) -fuzz '^FuzzJournalLoad$$'
	$(GO) test ./internal/experiments $(FUZZ) -fuzz '^FuzzFingerprint$$'
	$(GO) test ./internal/experiments $(FUZZ) -fuzz '^FuzzCacheLoad$$'
	$(GO) test ./internal/blas $(FUZZ) -fuzz '^FuzzGemmKernels$$'
	$(GO) test ./internal/server $(FUZZ) -fuzz '^FuzzSubmitBodies$$'

# lint = formatting + go vet + the repository's own analyzer suite
# (tools/analyzers — see docs/LINTING.md for the current roster). Its
# gate tests load the whole module once: TestRepositoryIsClean fails on
# each unsuppressed finding in internal/, cmd/ and tools/ (the analyzers
# lint their own implementation too), TestNolintReport fails on a
# //nolint escape without a justification or on a stale one, and
# TestSeededBugs shows every analyzer firing on a fixture module.
# The hot-path prover is not here: tools/escapecheck's
# TestRepositoryAnnotations, which `test` and `race` run, rebuilds
# internal/blas, checksum, mat and fault with the compiler's escape,
# inlining and bounds-check diagnostics and fails on any abft:hotpath or
# abft:bce claim they contradict.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) test -count=1 -run '^(TestRepositoryIsClean|TestNolintReport|TestSeededBugs)$$' ./tools/analyzers

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
# parallel and keeps its coverage report. TestExactValues
# (`go test ./tools/bench`) holds each file's exact values; bench-check
# gates its medians.
bench:
	mkdir -p artifacts
	$(GO) test -bench=. -benchmem ./... | tee artifacts/bench.txt
	$(GO) run ./cmd/abftchol -exp all -quick -metrics-out artifacts/bench-metrics.json > /dev/null
	$(GO) run ./tools/bench sweep
	$(GO) run ./tools/bench blas
	$(GO) run ./tools/bench reliability

# Each gate re-measures one committed BENCH_<name>.json into
# artifacts/ (with the sweep's cache-hit metrics) and fails on an entry
# on one side only or a median past 3x the committed one.
bench-check:
	$(GO) run ./tools/bench -check sweep
	$(GO) run ./tools/bench -check blas
	$(GO) run ./tools/bench -check reliability

# The observability artifacts CI uploads: a Perfetto-loadable Chrome
# trace of the fig8 sweep's last run plus the sweep's metrics
# snapshot (see docs/OBSERVABILITY.md for how to read both).
trace-demo:
	mkdir -p artifacts
	$(GO) run ./cmd/abftchol -exp fig8 -quick \
		-trace-out artifacts/fig8-trace.json \
		-metrics-out artifacts/fig8-metrics.json > artifacts/fig8.txt
	@echo "wrote artifacts/fig8-trace.json artifacts/fig8-metrics.json artifacts/fig8.txt"

ci: build lint perfbench-check race fuzz bench-check
