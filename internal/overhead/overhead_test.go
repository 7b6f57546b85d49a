package overhead

import (
	"math"
	"testing"

	"abftchol/internal/core"
	"abftchol/internal/hetsim"
)

func TestTableIIIValues(t *testing.T) {
	p := Params{N: 20480, B: 256, K: 1}
	potf2, trsm, syrk, gemm := p.UpdateFlops()
	n := 20480.0
	if potf2 != 2*256*n || trsm != 2*n*n || syrk != 2*n*n {
		t.Fatal("Table III small terms wrong")
	}
	if math.Abs(gemm-2*n*n*n/(3*256)) > 1 {
		t.Fatal("Table III GEMM term wrong")
	}
	// Relative overhead 12/n + 2/B.
	want := 12/n + 2.0/256
	if math.Abs(p.UpdateTotalRelative()-want) > 1e-15 {
		t.Fatal("Table III total wrong")
	}
}

func TestTableIVAndV(t *testing.T) {
	p := Params{N: 10240, B: 512, K: 3}
	n, b, k := 10240.0, 512.0, 3.0
	pot, trsm, syrk, gemm := p.RecalcFlopsOnline()
	if pot != 4*b*n || trsm != 2*n*n || syrk != 4*b*n || gemm != 2*n*n {
		t.Fatal("Table IV per-op terms wrong")
	}
	if math.Abs(p.RecalcOnlineRelative()-12/n) > 1e-15 {
		t.Fatal("Table IV total wrong")
	}
	_, trsm, syrk, gemm = p.RecalcFlopsEnhanced()
	if trsm != 2*n*n || math.Abs(syrk-2*n*n/k) > 1e-6 {
		t.Fatal("Table V per-op terms wrong")
	}
	if math.Abs(gemm-2*n*n*n/(3*b*k)) > 1e-3 {
		t.Fatal("Table V GEMM term wrong")
	}
	want := (6*k+6)/(n*k) + 2/(b*k)
	if math.Abs(p.RecalcEnhancedRelative()-want) > 1e-15 {
		t.Fatal("Table V total wrong")
	}
}

func TestTableVIOverall(t *testing.T) {
	p := Params{N: 20480, B: 256, K: 1}
	n, b := 20480.0, 256.0
	if math.Abs(p.OnlineOverallRelative()-(30/n+2/b)) > 1e-15 {
		t.Fatal("Table VI online wrong")
	}
	// K=1: enhanced converges to 4/B, double the online asymptote.
	if math.Abs(p.EnhancedAsymptotic()-4/b) > 1e-15 {
		t.Fatal("Table VI enhanced asymptote wrong at K=1")
	}
	if p.OnlineAsymptotic() != 2/b {
		t.Fatal("online asymptote wrong")
	}
	// Larger K drives the enhanced asymptote toward the online one.
	pk := Params{N: 20480, B: 256, K: 100}
	if pk.EnhancedAsymptotic() >= p.EnhancedAsymptotic() {
		t.Fatal("K must reduce the asymptote")
	}
	if pk.EnhancedAsymptotic() < p.OnlineAsymptotic() {
		t.Fatal("enhanced can never drop below the update floor 2/B")
	}
}

func TestOverheadDecreasesWithN(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{5120, 10240, 20480, 40960} {
		v := Params{N: n, B: 256, K: 1}.EnhancedOverallRelative()
		if v >= prev {
			t.Fatal("relative overhead must fall with n")
		}
		prev = v
	}
}

func TestSpaceAndTransfer(t *testing.T) {
	p := Params{N: 1024, B: 128, K: 2}
	if p.SpaceRelative() != 2.0/128 {
		t.Fatal("space overhead wrong")
	}
	initial, upd, vOn, vEnh := p.TransferElems()
	n, b, k := 1024.0, 128.0, 2.0
	if initial != 2*n*n/b || upd != n*n/2 || vOn != n*n/(2*b) {
		t.Fatal("transfer volumes wrong")
	}
	if math.Abs(vEnh-n*n*n/(3*k*b*b)) > 1e-9 {
		t.Fatal("enhanced verification transfer wrong")
	}
}

func TestKDefaultsToOne(t *testing.T) {
	a := Params{N: 512, B: 64, K: 0}.EnhancedOverallRelative()
	b := Params{N: 512, B: 64, K: 1}.EnhancedOverallRelative()
	if a != b {
		t.Fatal("K=0 must behave as K=1")
	}
}

// The predictions must match the simulator's actual behaviour, not
// just the paper's algebra.

func TestVerifiedBlocksMatchSimulator(t *testing.T) {
	prof := hetsim.Laptop()
	for _, k := range []int{1, 2, 5} {
		n := 512 // 16 blocks
		p := Params{N: n, B: prof.BlockSize, K: k}
		res, err := core.Run(core.Options{Profile: prof, N: n, Scheme: core.SchemeEnhanced, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifiedBlocks != p.VerifiedBlocksEnhanced() {
			t.Fatalf("K=%d: simulator verified %d blocks, model predicts %d",
				k, res.VerifiedBlocks, p.VerifiedBlocksEnhanced())
		}
	}
	p := Params{N: 512, B: prof.BlockSize, K: 1}
	on, err := core.Run(core.Options{Profile: prof, N: 512, Scheme: core.SchemeOnline})
	if err != nil {
		t.Fatal(err)
	}
	if on.VerifiedBlocks != p.VerifiedBlocksOnline() {
		t.Fatalf("online verified %d, model predicts %d", on.VerifiedBlocks, p.VerifiedBlocksOnline())
	}
	off, err := core.Run(core.Options{Profile: prof, N: 512, Scheme: core.SchemeOffline})
	if err != nil {
		t.Fatal(err)
	}
	if off.VerifiedBlocks != p.VerifiedBlocksOffline() {
		t.Fatalf("offline verified %d, model predicts %d", off.VerifiedBlocks, p.VerifiedBlocksOffline())
	}
}

func TestRecalcFlopsTrackSimulatorCounts(t *testing.T) {
	// Each recalculated block costs 4B² flops. The dominant Table V
	// term: the enhanced scheme's blocks x 4B² should approach
	// 2n³/(3BK) + lower-order terms; Online's should approach Table
	// IV's sum. Check each model total is within 35% of blocks*4B²
	// for a moderate N (the closed forms drop O(n²) terms).
	p := Params{N: 20480, B: 256, K: 1}
	for _, c := range []struct {
		table  string
		blocks int
		recalc func() (potf2, trsm, syrk, gemm float64)
	}{
		{"Table V", p.VerifiedBlocksEnhanced(), p.RecalcFlopsEnhanced},
		{"Table IV", p.VerifiedBlocksOnline(), p.RecalcFlopsOnline},
	} {
		exact := float64(c.blocks) * 4 * 256 * 256
		pot, tr, sy, ge := c.recalc()
		model := pot + tr + sy + ge
		if ratio := exact / model; ratio < 0.65 || ratio > 1.35 {
			t.Fatalf("%s: model %g vs exact %g (ratio %g)", c.table, model, exact, ratio)
		}
	}
}

func TestOverallRelativeAgainstSimulator(t *testing.T) {
	// Table VI's closed form should land in the same ballpark as the
	// simulator's pure-flops overhead. The simulator additionally
	// models launch overhead and BLAS-2 inefficiency, so compare
	// kernel *flop* accounting only: total FT flops / n³/3.
	prof := hetsim.Tardis()
	n := 10240
	res, err := core.Run(core.Options{Profile: prof, N: n, Scheme: core.SchemeEnhanced, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: n, B: prof.BlockSize, K: 1}
	// Count verified blocks: each costs 4B² flops; updates add
	// the Table III total.
	recalc := float64(res.VerifiedBlocks) * 4 * float64(prof.BlockSize) * float64(prof.BlockSize)
	update := p.UpdateTotalRelative() * p.CholeskyFlops()
	encode := p.EncodeFlops()
	rel := (recalc + update + encode) / p.CholeskyFlops()
	model := p.EnhancedOverallRelative()
	if ratio := rel / model; ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("measured flop overhead %.4f vs Table VI %.4f", rel, model)
	}
}
