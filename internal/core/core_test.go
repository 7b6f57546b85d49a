package core

import (
	"errors"
	"strings"
	"testing"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// laptopOpts builds a real-plane configuration on the laptop profile
// (B=32) for an n x n SPD input.
func laptopOpts(n int, scheme Scheme) Options {
	return Options{
		Profile: hetsim.Laptop(),
		N:       n,
		Scheme:  scheme,
		Data:    mat.RandSPD(n, 12345),
	}
}

func mustRun(t *testing.T, o Options) Result {
	t.Helper()
	res, err := Run(o)
	if err != nil {
		t.Fatalf("%s run failed: %v", o.Scheme, err)
	}
	return res
}

func checkFactor(t *testing.T, o Options, res Result) {
	t.Helper()
	if res.L == nil {
		t.Fatal("no factor returned on real plane")
	}
	if r := mat.CholeskyResidual(o.Data, res.L); r > 1e-10 {
		t.Fatalf("%s residual %g", o.Scheme, r)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Options{N: 128}); err == nil {
		t.Fatal("missing profile accepted")
	}
	o := Options{Profile: hetsim.Laptop(), N: 100} // not a multiple of 32
	if _, err := Run(o); err == nil {
		t.Fatal("bad N accepted")
	}
	o = laptopOpts(64, SchemeNone)
	o.Data = mat.New(32, 32)
	if _, err := Run(o); err == nil {
		t.Fatal("mis-sized data accepted")
	}
}

func TestPlainHybridMatchesReference(t *testing.T) {
	for _, n := range []int{32, 64, 96, 256} {
		o := laptopOpts(n, SchemeNone)
		res := mustRun(t, o)
		checkFactor(t, o, res)
		if res.Attempts != 1 || res.VerifiedBlocks != 0 || res.Corrections != 0 {
			t.Fatalf("plain run bookkeeping: %+v", res)
		}
		if res.Time <= 0 || res.GFLOPS <= 0 {
			t.Fatal("missing timing")
		}
	}
}

func TestAllFTSchemesCorrectWithoutErrors(t *testing.T) {
	for _, sch := range []Scheme{SchemeOffline, SchemeOnline, SchemeEnhanced} {
		o := laptopOpts(160, sch)
		res := mustRun(t, o)
		checkFactor(t, o, res)
		if res.Attempts != 1 {
			t.Fatalf("%s: attempts=%d without errors", sch, res.Attempts)
		}
		if res.Corrections != 0 {
			t.Fatalf("%s: phantom corrections=%d", sch, res.Corrections)
		}
	}
}

func TestSchemeVerificationVolumes(t *testing.T) {
	// Table I: Enhanced verifies O(n²) blocks per GEMM iteration while
	// Online verifies O(n); over the run Enhanced must do far more
	// verification, and Offline exactly one pass over the triangle.
	n := 320 // N = 10 blocks
	off := mustRun(t, laptopOpts(n, SchemeOffline))
	on := mustRun(t, laptopOpts(n, SchemeOnline))
	enh := mustRun(t, laptopOpts(n, SchemeEnhanced))
	nb := n / 32
	if off.VerifiedBlocks != nb*(nb+1)/2 {
		t.Fatalf("offline verified %d blocks, want %d", off.VerifiedBlocks, nb*(nb+1)/2)
	}
	if on.VerifiedBlocks <= off.VerifiedBlocks {
		t.Fatal("online must verify more than offline")
	}
	if enh.VerifiedBlocks <= on.VerifiedBlocks {
		t.Fatalf("enhanced (%d) must verify more than online (%d)", enh.VerifiedBlocks, on.VerifiedBlocks)
	}
}

func TestEnhancedCorrectsStorageError(t *testing.T) {
	sc := fault.DefaultStorage(4)
	sc.Delta = 1e6
	o := laptopOpts(256, SchemeEnhanced)
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 1 {
		t.Fatalf("enhanced restarted (%d attempts) on a storage error it must correct in place", res.Attempts)
	}
	if res.Corrections == 0 {
		t.Fatal("no correction recorded")
	}
	if len(res.Injections) != 1 || res.Injections[0].Kind != fault.Storage {
		t.Fatalf("injections = %v", res.Injections)
	}
}

func TestEnhancedCorrectsComputationError(t *testing.T) {
	sc := fault.DefaultComputation(3)
	sc.Delta = 1e6
	o := laptopOpts(256, SchemeEnhanced)
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 1 {
		t.Fatalf("enhanced restarted (%d attempts) on a computation error", res.Attempts)
	}
	if res.Corrections == 0 {
		t.Fatal("no correction recorded")
	}
}

func TestEnhancedCorrectsBitFlipStorageError(t *testing.T) {
	sc := fault.DefaultStorage(5)
	sc.Bit = 58 // large exponent flip
	o := laptopOpts(256, SchemeEnhanced)
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 1 || res.Corrections == 0 {
		t.Fatalf("bit-flip not corrected in place: %+v", res)
	}
}

func TestOnlineCorrectsComputationError(t *testing.T) {
	sc := fault.DefaultComputation(3)
	sc.Delta = 1e6
	o := laptopOpts(256, SchemeOnline)
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 1 {
		t.Fatalf("online restarted (%d attempts) on a computation error it must correct", res.Attempts)
	}
	if res.Corrections == 0 {
		t.Fatal("no correction recorded")
	}
}

func TestOnlineRestartsOnStorageError(t *testing.T) {
	sc := fault.DefaultStorage(4)
	sc.Delta = 1e6
	o := laptopOpts(256, SchemeOnline)
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 2 {
		t.Fatalf("online attempts = %d, want 2 (storage errors force a redo)", res.Attempts)
	}
}

func TestOfflineRestartsOnComputationError(t *testing.T) {
	sc := fault.DefaultComputation(3)
	sc.Delta = 1e6
	o := laptopOpts(256, SchemeOffline)
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 2 {
		t.Fatalf("offline attempts = %d, want 2 (errors propagate past its end check)", res.Attempts)
	}
}

func TestOfflineRestartsOnStorageError(t *testing.T) {
	sc := fault.DefaultStorage(4)
	sc.Delta = 1e6
	o := laptopOpts(256, SchemeOffline)
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 2 {
		t.Fatalf("offline attempts = %d, want 2", res.Attempts)
	}
	if res.FailStop == 0 {
		t.Fatal("a large storage error through SYRK must break positive definiteness")
	}
}

func TestPlainSchemeSilentlyCorrupted(t *testing.T) {
	// Negative control: without ABFT the same storage error yields a
	// wrong factor and nobody notices.
	sc := fault.DefaultStorage(4)
	sc.Delta = 1e-2 // small enough to keep the matrix positive definite
	o := laptopOpts(256, SchemeNone)
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	if res.Attempts != 1 {
		t.Fatal("plain MAGMA cannot detect anything")
	}
	if r := mat.CholeskyResidual(o.Data, res.L); r < 1e-9 {
		t.Fatalf("residual %g suspiciously clean; injection missing?", r)
	}
}

func TestOfflineNonPropagatingErrorCases(t *testing.T) {
	// Classic Offline-ABFT can repair an error at its end check only
	// if the error never propagated. In the left-looking form that
	// window barely exists: every panel block (i, j) is re-read as the
	// row panel of iteration i, so even a last-GEMM error reaches the
	// final diagonal and forces a redo...
	nb := 256 / 32
	late := fault.DefaultComputation(nb - 2)
	late.Delta = 1e4
	o := laptopOpts(256, SchemeOffline)
	o.Scenarios = []fault.Scenario{late}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 2 {
		t.Fatalf("left-looking attempts = %d; everything propagates in Algorithm 1", res.Attempts)
	}
	// ...whereas the right-looking form retires blocks immediately, so
	// a storage error in finished data sits unread and the end check
	// repairs it in place.
	retired := fault.DefaultStorage(4) // block (4,3), retired at iteration 4
	retired.Delta = 1e4
	ro := laptopOpts(256, SchemeOffline)
	ro.Variant = RightLooking
	ro.Scenarios = []fault.Scenario{retired}
	rres := mustRun(t, ro)
	checkFactor(t, ro, rres)
	if rres.Attempts != 1 {
		t.Fatalf("right-looking attempts = %d; a retired-block error is offline-correctable", rres.Attempts)
	}
	if rres.Corrections == 0 {
		t.Fatal("end-of-run correction missing")
	}
}

func TestCULARealPlaneCorrect(t *testing.T) {
	o := laptopOpts(160, SchemeCULA)
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.VerifiedBlocks != 0 {
		t.Fatal("CULA baseline must not verify anything")
	}
}

func TestTRSMTargetedComputationError(t *testing.T) {
	sc := fault.DefaultComputation(3)
	sc.Op = fault.OpTRSM
	sc.Delta = 1e4
	for _, tc := range []struct {
		scheme   Scheme
		attempts int
	}{
		{SchemeEnhanced, 1}, // caught pre-SYRK when the block joins the row panel
		{SchemeOnline, 1},   // caught post-TRSM
	} {
		o := laptopOpts(256, tc.scheme)
		o.Scenarios = []fault.Scenario{sc}
		res := mustRun(t, o)
		checkFactor(t, o, res)
		if res.Attempts != tc.attempts {
			t.Fatalf("%s: attempts %d, want %d", tc.scheme, res.Attempts, tc.attempts)
		}
		if res.Corrections == 0 {
			t.Fatalf("%s: no corrections", tc.scheme)
		}
	}
}

func TestRestartGivesUpAfterMaxAttempts(t *testing.T) {
	// Two storage errors at different iterations: the first restart is
	// clean of scenario #1 but scenario #2 never fired... so make both
	// fire in attempt 1 and verify a clean second attempt succeeds;
	// then force failure exhaustion with MaxAttempts=1.
	sc := fault.DefaultStorage(4)
	sc.Delta = 1e6
	o := laptopOpts(256, SchemeOffline)
	o.Scenarios = []fault.Scenario{sc}
	o.MaxAttempts = 1
	_, err := Run(o)
	if err == nil {
		t.Fatal("expected failure with MaxAttempts=1")
	}
	if !strings.Contains(err.Error(), "after 1 attempts") {
		t.Fatalf("error = %v", err)
	}
}

func TestEnhancedWithKGateDelaysButRecovers(t *testing.T) {
	// With K=2 a computation error at an unverified iteration is
	// caught at the next gate via the row panel and still repaired
	// without a restart.
	sc := fault.DefaultComputation(3) // iteration 3 is not a gate when K=2
	sc.Delta = 1e4
	o := laptopOpts(256, SchemeEnhanced)
	o.K = 2
	o.Scenarios = []fault.Scenario{sc}
	res := mustRun(t, o)
	checkFactor(t, o, res)
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	if res.Corrections == 0 {
		t.Fatal("row-smear correction missing")
	}
}

func TestOptKReducesVerification(t *testing.T) {
	o1 := laptopOpts(320, SchemeEnhanced)
	o1.K = 1
	o5 := laptopOpts(320, SchemeEnhanced)
	o5.K = 5
	r1 := mustRun(t, o1)
	r5 := mustRun(t, o5)
	if r5.VerifiedBlocks >= r1.VerifiedBlocks {
		t.Fatalf("K=5 verified %d blocks, K=1 verified %d", r5.VerifiedBlocks, r1.VerifiedBlocks)
	}
	if r5.Time >= r1.Time {
		t.Fatalf("K=5 (%g s) not faster than K=1 (%g s)", r5.Time, r1.Time)
	}
	checkFactor(t, o5, r5)
}

func TestModelPlaneMatchesRealPlaneOutcomes(t *testing.T) {
	// The cost-model plane must reproduce the recovery behaviour of
	// the real plane: same attempt counts for every scheme/error
	// combination.
	type cse struct {
		scheme Scheme
		sc     func() fault.Scenario
	}
	mkComp := func() fault.Scenario { s := fault.DefaultComputation(3); s.Delta = 1e6; return s }
	mkStor := func() fault.Scenario { s := fault.DefaultStorage(4); s.Delta = 1e6; return s }
	cases := []cse{
		{SchemeEnhanced, mkComp}, {SchemeEnhanced, mkStor},
		{SchemeOnline, mkComp}, {SchemeOnline, mkStor},
		{SchemeOffline, mkComp}, {SchemeOffline, mkStor},
	}
	for _, c := range cases {
		real := laptopOpts(256, c.scheme)
		real.Scenarios = []fault.Scenario{c.sc()}
		rr := mustRun(t, real)

		model := real
		model.Data = nil
		model.Scenarios = []fault.Scenario{c.sc()}
		mr := mustRun(t, model)

		if rr.Attempts != mr.Attempts {
			t.Errorf("%s/%s: real attempts %d, model attempts %d",
				c.scheme, c.sc().Kind, rr.Attempts, mr.Attempts)
		}
		if mr.L != nil {
			t.Error("model plane returned a factor")
		}
	}
}

func TestModelPlaneNoErrorAgreesOnWork(t *testing.T) {
	// Without faults, the two planes issue the identical kernel
	// sequence: same verified-block counts and same simulated time.
	o := laptopOpts(256, SchemeEnhanced)
	rr := mustRun(t, o)
	o.Data = nil
	mr := mustRun(t, o)
	if rr.VerifiedBlocks != mr.VerifiedBlocks {
		t.Fatalf("verified: real %d model %d", rr.VerifiedBlocks, mr.VerifiedBlocks)
	}
	if rr.Time != mr.Time {
		t.Fatalf("time: real %g model %g", rr.Time, mr.Time)
	}
}

func TestDecisionModelMatchesPaper(t *testing.T) {
	// §VII-D: the model picks the CPU on Tardis and the GPU on
	// Bulldozer64, across the whole sweep.
	tar := hetsim.Tardis()
	for _, n := range tar.Sizes() {
		if p := DecideUpdatePlacement(tar, n, tar.BlockSize, 1); p != PlaceCPU {
			t.Fatalf("tardis n=%d chose %v, want cpu", n, p)
		}
	}
	bul := hetsim.Bulldozer64()
	for _, n := range bul.Sizes() {
		if p := DecideUpdatePlacement(bul, n, bul.BlockSize, 1); p != PlaceGPU {
			t.Fatalf("bulldozer64 n=%d chose %v, want gpu", n, p)
		}
	}
}

func TestDecisionTimesFormulas(t *testing.T) {
	// Spot-check the closed forms at easy numbers: n=B (single block).
	tGPU, tCPU := DecisionTimes(DecisionInputs{N: 1000, B: 1000, K: 1, PGPU: 1, PCPU: 1, R: 1})
	nCho := 1e9 / 3
	nUpd := 2e9 / (3 * 1000)
	wantGPU := (nCho + 2*nUpd) / 1e9
	if diff := tGPU - wantGPU; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("tGPU = %g, want %g", tGPU, wantGPU)
	}
	if tCPU <= 0 || tCPU >= tGPU {
		t.Fatalf("tCPU = %g vs tGPU = %g", tCPU, tGPU)
	}
}

func TestOpt1ReducesEnhancedOverhead(t *testing.T) {
	// Model plane at paper scale on Bulldozer64, where concurrency
	// buys the most (Fig. 9).
	o := Options{Profile: hetsim.Bulldozer64(), N: 10240, Scheme: SchemeEnhanced, Placement: PlaceGPU}
	serial := mustRun(t, o)
	o.ConcurrentRecalc = true
	conc := mustRun(t, o)
	if conc.Time >= serial.Time {
		t.Fatalf("opt1 did not help: %g >= %g", conc.Time, serial.Time)
	}
}

func TestOpt2PlacementChangesTime(t *testing.T) {
	o := Options{Profile: hetsim.Tardis(), N: 10240, Scheme: SchemeEnhanced, ConcurrentRecalc: true}
	o.Placement = PlaceInline
	inline := mustRun(t, o)
	o.Placement = PlaceCPU
	cpu := mustRun(t, o)
	if cpu.Time >= inline.Time {
		t.Fatalf("opt2 (cpu) did not beat inline on tardis: %g >= %g", cpu.Time, inline.Time)
	}
	if cpu.Placement != PlaceCPU || inline.Placement != PlaceInline {
		t.Fatal("placement not recorded")
	}
}

func TestCULASlowerThanMAGMA(t *testing.T) {
	for _, prof := range []hetsim.Profile{hetsim.Tardis(), hetsim.Bulldozer64()} {
		magma := mustRun(t, Options{Profile: prof, N: 10240, Scheme: SchemeNone})
		cula := mustRun(t, Options{Profile: prof, N: 10240, Scheme: SchemeCULA})
		if cula.GFLOPS >= magma.GFLOPS {
			t.Fatalf("%s: CULA (%g GF) not slower than MAGMA (%g GF)", prof.Name, cula.GFLOPS, magma.GFLOPS)
		}
	}
}

func TestEnhancedOverheadBounded(t *testing.T) {
	// Fig. 14/15: with all optimizations on (K=3 sweep point), the
	// enhanced scheme stays within single-digit percent of MAGMA.
	for _, prof := range []hetsim.Profile{hetsim.Tardis(), hetsim.Bulldozer64()} {
		n := prof.MaxN
		base := mustRun(t, Options{Profile: prof, N: n, Scheme: SchemeNone})
		enh := mustRun(t, Options{
			Profile: prof, N: n, Scheme: SchemeEnhanced,
			ConcurrentRecalc: true, Placement: PlaceAuto, K: 3,
		})
		ovh := enh.Time/base.Time - 1
		if ovh > 0.10 {
			t.Fatalf("%s: enhanced overhead %.1f%% exceeds 10%%", prof.Name, ovh*100)
		}
		if ovh < 0 {
			t.Fatalf("%s: enhanced faster than plain (%.1f%%)? cost model broken", prof.Name, ovh*100)
		}
	}
}

func TestSchemeAndPlacementStrings(t *testing.T) {
	if SchemeEnhanced.String() != "enhanced-online-abft" || SchemeNone.String() != "magma" {
		t.Fatal("scheme names wrong")
	}
	if PlaceCPU.String() != "cpu" || PlaceAuto.String() != "auto" {
		t.Fatal("placement names wrong")
	}
	if Scheme(42).String() == "" || Placement(42).String() == "" {
		t.Fatal("unknown values must render")
	}
	if SchemeNone.FaultTolerant() || SchemeCULA.FaultTolerant() {
		t.Fatal("baselines are not fault tolerant")
	}
	if !SchemeOffline.FaultTolerant() {
		t.Fatal("offline is fault tolerant")
	}
}

func TestResultTimingMonotoneInN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{2560, 5120, 7680} {
		r := mustRun(t, Options{Profile: hetsim.Tardis(), N: n, Scheme: SchemeNone})
		if r.Time <= prev {
			t.Fatalf("time not increasing with n: %g after %g", r.Time, prev)
		}
		prev = r.Time
	}
}

func TestErrUncorrectableMessage(t *testing.T) {
	e := new(exec)
	err := e.uncorrectable(3, 2, errors.New("inconsistent syndrome"))
	if !strings.Contains(err.Error(), "(3,2)") || e.failure != FailureUncorrectable {
		t.Fatalf("message %q, class %d", err, e.failure)
	}
}

// TestRunRejectsInvalidScenarios: a fault the factorization cannot
// host is an options error on both planes. Unchecked, the real plane
// panicked on these (at n=128, b=32: "mat: view (288,0)+32x32 out of
// range 128x128", "mat: index (40,1) out of range 32x32", "fault: bit
// out of range") and the model plane "corrected" elements that do not
// exist. A scenario the injector never fires (an iteration outside the
// grid, or a default-placed storage fault at iteration 0) returned nil
// with no injection.
func TestRunRejectsInvalidScenarios(t *testing.T) {
	const n = 128 // b=32: a 4x4 block grid
	valid := fault.DefaultStorage(2)
	bad := map[string]func(*fault.Scenario){
		"block below the grid":         func(s *fault.Scenario) { s.BI, s.BJ = 9, 0 },
		"upper-triangle block":         func(s *fault.Scenario) { s.BI, s.BJ = 1, 2 },
		"row past the block":           func(s *fault.Scenario) { s.Row = 40 },
		"negative column":              func(s *fault.Scenario) { s.Col = -1 },
		"bit past 63":                  func(s *fault.Scenario) { s.Bit = 64 },
		"negative bit":                 func(s *fault.Scenario) { s.Bit = -1 },
		"propagated kind":              func(s *fault.Scenario) { s.Kind = fault.Propagated },
		"unknown kind":                 func(s *fault.Scenario) { s.Kind = 7 },
		"iteration past the grid":      func(s *fault.Scenario) { s.Iter = 4 },
		"negative iteration":           func(s *fault.Scenario) { s.Iter = -1 },
		"default block at iteration 0": func(s *fault.Scenario) { s.Iter = 0 },
	}
	for name, mutate := range bad {
		for _, real := range []bool{false, true} {
			o := laptopOpts(n, SchemeEnhanced)
			if !real {
				o.Data = nil
			}
			sc := valid
			mutate(&sc)
			o.Scenarios = []fault.Scenario{valid, sc}
			_, err := Run(o)
			if err == nil || !strings.Contains(err.Error(), "Scenarios[1]") {
				t.Errorf("%s (real=%v): err = %v, want a Scenarios[1] validation error", name, real, err)
			}
		}
	}
	// The edges of every rule still run: one default index, the last
	// row and column, bit 63, an out-of-range bit an additive delta
	// ignores, the last diagonal block, and an explicitly placed storage
	// fault at iteration 0.
	ok := []fault.Scenario{
		{Kind: fault.Storage, Iter: 2, BI: -1, BJ: 3, Row: 31, Col: 31, Bit: 63},
		{Kind: fault.Storage, Iter: 0, BI: 2, BJ: 0, Row: 0, Col: 0},
		{Kind: fault.Computation, Iter: 1, Op: fault.OpGEMM, BI: 3, BJ: 1, Delta: 1e3, Bit: 99},
		{Kind: fault.Computation, Iter: 3, Op: fault.OpPOTF2, BI: 3, BJ: 3, Delta: 1e3},
	}
	for _, real := range []bool{false, true} {
		o := laptopOpts(n, SchemeEnhanced)
		if !real {
			o.Data = nil
		}
		o.Scenarios = ok
		if _, err := Run(o); err != nil && strings.Contains(err.Error(), "Scenarios[") {
			t.Errorf("real=%v: valid edge scenarios rejected: %v", real, err)
		}
	}
}
