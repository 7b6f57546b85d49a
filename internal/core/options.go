// Package core implements the paper's contribution: MAGMA-style
// hybrid Cholesky decomposition (Algorithm 1) on a heterogeneous
// CPU+GPU platform, protected by three algorithm-based fault-tolerance
// schemes —
//
//   - Offline-ABFT (Huang & Abraham): encode once, maintain checksums,
//     verify only when the factorization finishes;
//   - Online-ABFT (Davies & Chen / FT-ScaLAPACK): verify every block
//     right after it is updated;
//   - Enhanced Online-ABFT (this paper): verify every block right
//     before it is read, which additionally catches storage errors that
//     strike between a block's last verification and its next use —
//
// plus the paper's three overhead optimizations: concurrent checksum
// recalculation on GPU streams (Opt 1), model-driven CPU/GPU placement
// of checksum updates (Opt 2), and verifying GEMM/TRSM inputs only
// every K iterations (Opt 3).
//
// One implementation serves two execution planes. When Options.Data is
// set, all kernels run real float64 arithmetic and fault injection
// flips real bits (used by tests and examples at modest n). When Data
// is nil, kernels carry only their cost model and fault effects are
// tracked symbolically in a ledger — this is how the paper-scale
// (20480²-30720²) experiments run. Timing comes from the hetsim
// discrete-event platform in both planes.
//
// Every run is observable: Options.Trace records the full kernel and
// transfer timeline for export, and Options.Metrics streams launch,
// verification, fault, and recovery counters into an
// internal/obs.Registry (see docs/OBSERVABILITY.md for the hook
// points and artifact formats).
package core

import (
	"fmt"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
	"abftchol/internal/obs"
)

// Scheme selects the fault-tolerance variant.
type Scheme int

// Each scheme is a verification discipline: the interpreter
// (exec.step in driver.go) places its checks around the steps of the
// variant's table (variant.go).
const (
	// SchemeNone is plain MAGMA Algorithm 1: no checksums at all.
	SchemeNone Scheme = iota
	// SchemeCULA is the vendor-library baseline of Figs 16-17: the
	// same hybrid algorithm executed at CULA R18's lower efficiency.
	SchemeCULA
	// SchemeOffline verifies checksums once, after the factorization.
	SchemeOffline
	// SchemeOnline verifies each block immediately after updating it.
	SchemeOnline
	// SchemeEnhanced verifies each block immediately before reading it
	// (the paper's contribution).
	SchemeEnhanced
	// SchemeOnlineScrub is Online-ABFT plus a periodic memory scrub:
	// every K iterations, every still-live block is re-verified. It is
	// the natural alternative the paper's reference [28] suggests for
	// catching storage errors without pre-read verification; the
	// ext-scrub experiment compares it against the enhanced scheme.
	SchemeOnlineScrub
)

var schemeNames = map[Scheme]string{
	SchemeNone:        "magma",
	SchemeCULA:        "cula",
	SchemeOffline:     "offline-abft",
	SchemeOnline:      "online-abft",
	SchemeEnhanced:    "enhanced-online-abft",
	SchemeOnlineScrub: "online-abft+scrub",
}

func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// FaultTolerant reports whether the scheme maintains checksums.
func (s Scheme) FaultTolerant() bool { return s >= SchemeOffline }

// Placement says where checksum updates run (Optimization 2).
type Placement int

const (
	// PlaceAuto applies the paper's §V-B decision model.
	PlaceAuto Placement = iota
	// PlaceGPU runs checksum updates on a dedicated GPU stream.
	PlaceGPU
	// PlaceCPU runs checksum updates on the otherwise-idle host.
	PlaceCPU
	// PlaceInline runs checksum updates on the GPU compute stream,
	// fully serialized — the unoptimized baseline Figs 10-11 compare
	// against.
	PlaceInline
)

func (p Placement) String() string {
	switch p {
	case PlaceAuto:
		return "auto"
	case PlaceGPU:
		return "gpu"
	case PlaceCPU:
		return "cpu"
	case PlaceInline:
		return "inline"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Options configures one factorization run.
type Options struct {
	// Profile is the machine to simulate (hetsim.Tardis(), ...).
	Profile hetsim.Profile
	// N is the matrix dimension; must be a multiple of the block size.
	N int
	// BlockSize overrides the profile's MAGMA block size when > 0.
	BlockSize int
	// Scheme picks the fault-tolerance variant.
	Scheme Scheme
	// Variant selects the blocked formulation: LeftLooking (MAGMA's
	// inner-product Algorithm 1, the paper's choice, default) or
	// RightLooking (the outer-product form, provided as an ablation).
	Variant Variant
	// K is Optimization 3's verification interval for GEMM/TRSM inputs
	// (Enhanced only). K <= 1 verifies every iteration.
	K int
	// ChecksumVectors is the number of weighted checksum vectors per
	// block (default 2, the paper's implementation). Larger even
	// values buy multi-error correction — m vectors repair up to m/2
	// wrong elements per block column (§IV's generalization) — at
	// proportionally higher encode/update/verify cost.
	ChecksumVectors int
	// ConcurrentRecalc enables Optimization 1: checksum recalculations
	// fan out over the device's concurrent-kernel streams instead of
	// serializing on the compute stream.
	ConcurrentRecalc bool
	// Placement is Optimization 2's choice for checksum updates.
	Placement Placement
	// Scenarios are the soft errors to inject.
	Scenarios []fault.Scenario
	// Data, when non-nil, holds the SPD input for a real-arithmetic
	// run; it is not modified (the executor works on a copy). When
	// nil the run is cost-model only.
	Data *mat.Matrix
	// MaxAttempts bounds the restart loop when recovery requires
	// redoing the factorization (default 3).
	MaxAttempts int
	// Trace records the full kernel/transfer timeline in Result.Trace
	// (costs memory proportional to the kernel count; meant for small
	// runs and schedule assertions). Export it with
	// obs.WriteChromeTrace / obs.WriteJSONL.
	Trace bool
	// Metrics, when non-nil, receives the run's observability
	// counters and histograms (see internal/obs's catalog and
	// docs/OBSERVABILITY.md): kernel launches and durations by class,
	// transfers, verifications, fault accounting, restarts, slot
	// contention. The same registry may accumulate several runs.
	Metrics *obs.Registry
}

// normalize fills defaults and validates; it returns the block count.
func (o *Options) normalize() (nb int, err error) {
	if o.Profile.BlockSize == 0 {
		return 0, fmt.Errorf("core: Options.Profile is required")
	}
	if o.BlockSize <= 0 {
		o.BlockSize = o.Profile.BlockSize
	}
	if o.N <= 0 || o.N%o.BlockSize != 0 {
		return 0, fmt.Errorf("core: N=%d must be a positive multiple of the block size %d", o.N, o.BlockSize)
	}
	if o.K < 1 {
		o.K = 1
	}
	if o.ChecksumVectors == 0 {
		o.ChecksumVectors = 2
	}
	if o.ChecksumVectors < 2 {
		return 0, fmt.Errorf("core: ChecksumVectors=%d, need at least 2", o.ChecksumVectors)
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Data != nil && (o.Data.Rows != o.N || o.Data.Cols != o.N) {
		return 0, fmt.Errorf("core: Data is %dx%d, want %dx%d", o.Data.Rows, o.Data.Cols, o.N, o.N)
	}
	nb = o.N / o.BlockSize
	for i, sc := range o.Scenarios {
		if err := checkScenario(sc, nb, o.BlockSize); err != nil {
			return 0, fmt.Errorf("core: Scenarios[%d]: %w", i, err)
		}
	}
	return nb, nil
}

// checkScenario rejects a fault the factorization cannot host: a
// block outside the lower block triangle, an element outside the
// block, a bit outside the float64, or a kind or iteration the
// injector never fires. Left unchecked, the real plane panics on such
// input, the model plane "corrects" elements that do not exist, and a
// scenario that never fires reports a clean run with no injection.
func checkScenario(sc fault.Scenario, nb, b int) error {
	if sc.Kind != fault.Storage && sc.Kind != fault.Computation {
		return fmt.Errorf("kind %v, want storage or computation", sc.Kind)
	}
	if sc.Iter < 0 || sc.Iter >= nb {
		return fmt.Errorf("iteration %d outside 0..%d", sc.Iter, nb-1)
	}
	if sc.Kind == fault.Storage && (sc.BI < 0 || sc.BJ < 0) && sc.Iter == 0 {
		return fmt.Errorf("default-placed storage fault at iteration 0, before any block is factored")
	}
	if sc.BI >= 0 && sc.BJ >= 0 && (sc.BJ > sc.BI || sc.BI >= nb) {
		return fmt.Errorf("block (%d,%d) outside the lower triangle of %dx%d blocks", sc.BI, sc.BJ, nb, nb)
	}
	if sc.Row < 0 || sc.Row >= b || sc.Col < 0 || sc.Col >= b {
		return fmt.Errorf("element (%d,%d) outside a %dx%d block", sc.Row, sc.Col, b, b)
	}
	if sc.Delta == 0 && (sc.Bit < 0 || sc.Bit > 63) {
		return fmt.Errorf("bit %d outside a float64's 0..63", sc.Bit)
	}
	return nil
}

// Result reports one factorization run.
type Result struct {
	Scheme    Scheme
	Variant   Variant
	N, B, K   int
	Placement Placement // resolved placement (Auto -> CPU or GPU)

	// Time is the simulated wall-clock of the whole run including any
	// restarts; GFLOPS is n³/3 divided by it.
	Time   float64
	GFLOPS float64

	// Attempts is 1 plus the number of restarts; Corrections counts
	// repaired elements; VerifiedBlocks counts checksum verifications.
	Attempts       int
	Corrections    int
	VerifiedBlocks int
	// FailStop counts POTF2 positive-definiteness failures hit.
	FailStop int
	// Failure is the class of the failure Run returned (its last
	// attempt's), FailureNone when Run returned nil or an options error.
	Failure Failure

	// Injections is everything the injector fired (all attempts).
	Injections []fault.Injection
	// PropagationEvents counts reads of corrupted blocks by update
	// kernels — how far wrongness spread before (or instead of) being
	// repaired. Zero means every error was caught before any use.
	PropagationEvents int

	// DataBytes is the input matrix footprint in device memory and
	// ChecksumBytes the checksum matrix on top of it — Table VI §5's
	// space overhead is ChecksumBytes/DataBytes = m/B.
	DataBytes     float64
	ChecksumBytes float64

	// GPUStats and CPUStats give per-class kernel accounting.
	GPUStats hetsim.Stats
	CPUStats hetsim.Stats

	// L is the computed factor (real plane only). It is the run's own
	// matrix: it shares no storage with Options.Data. Its Stride is the
	// working copy's padded leading dimension, which may exceed N.
	L *mat.Matrix

	// Trace is the recorded timeline (only when Options.Trace is set).
	Trace *hetsim.Trace
}
