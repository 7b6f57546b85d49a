package core

import (
	"math"
	"testing"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// probeOpts is the real-plane setup of the verifier regression cases:
// n = 256 on the laptop profile (B = 32).
func probeOpts(scheme Scheme, m int) Options {
	return Options{
		Profile:         hetsim.Laptop(),
		N:               256,
		Scheme:          scheme,
		ChecksumVectors: m,
		Data:            mat.RandSPD(256, 7),
	}
}

func TestUncorrectableBlockCountsNoCorrections(t *testing.T) {
	// Two errors in column 2 of block (5,1) exceed the pair code; a
	// third, in column 6, would be correctable on its own. The block
	// fails as a whole, so neither plane may count a correction for it.
	hit := func(row, col int, delta float64) fault.Scenario {
		return fault.Scenario{Kind: fault.Storage, Iter: 3, BI: 5, BJ: 1, Row: row, Col: col, Delta: delta}
	}
	scenarios := func() []fault.Scenario {
		return []fault.Scenario{hit(4, 2, 1e3), hit(9, 2, 2e3), hit(7, 6, 5e2)}
	}
	real := probeOpts(SchemeEnhanced, 2)
	real.Scenarios = scenarios()
	rr := mustRun(t, real)
	checkFactor(t, real, rr)

	model := real
	model.Data = nil
	model.Scenarios = scenarios()
	mr := mustRun(t, model)
	if rr.Attempts != mr.Attempts || rr.Corrections != mr.Corrections {
		t.Fatalf("real plane %d attempts / %d corrections, model plane %d / %d",
			rr.Attempts, rr.Corrections, mr.Attempts, mr.Corrections)
	}
	if rr.Attempts != 2 || rr.Corrections != 0 {
		t.Fatalf("%d attempts / %d corrections, want a restart and no corrections", rr.Attempts, rr.Corrections)
	}
}

// nanFlip returns a storage fault that flips bit 62 of the first
// element of block (bi, bj) with |v| in [1, 2), which makes it NaN.
// The element is read from the value the block holds at the top of
// iteration iter on the left-looking schedule: the final factor in
// the columns already factored, the input in the rest.
func nanFlip(t *testing.T, a, l *mat.Matrix, b, iter, bi, bj int) fault.Scenario {
	t.Helper()
	src := a
	if bj < iter {
		src = l
	}
	blk := src.View(bi*b, bj*b, b, b)
	for c := 0; c < b; c++ {
		for r := 0; r < b; r++ {
			if v := math.Abs(blk.At(r, c)); v >= 1 && v < 2 {
				return fault.Scenario{Kind: fault.Storage, Iter: iter, BI: bi, BJ: bj, Row: r, Col: c, Bit: 62}
			}
		}
	}
	t.Fatalf("block (%d,%d) holds no element in [1, 2) at iteration %d", bi, bj, iter)
	return fault.Scenario{}
}

func TestNonFiniteElementRepairedInPlace(t *testing.T) {
	// A NaN read by Enhanced's pre-read verification is the column's
	// only non-finite element: it is rebuilt from the plain checksum in
	// place, for the pair code and for m = 4 alike.
	for _, m := range []int{2, 4} {
		o := probeOpts(SchemeEnhanced, m)
		clean := mustRun(t, o)
		o.Scenarios = []fault.Scenario{nanFlip(t, o.Data, clean.L, o.Profile.BlockSize, 3, 5, 1)}
		res := mustRun(t, o)
		if len(res.Injections) == 0 || !math.IsNaN(res.Injections[0].Delta) {
			t.Fatalf("m=%d: the flip did not inject a NaN: %v", m, res.Injections)
		}
		if res.Attempts != 1 || res.Corrections < 1 {
			t.Fatalf("m=%d: %d attempts / %d corrections, want one attempt that repairs", m, res.Attempts, res.Corrections)
		}
		if d := mat.MaxAbsDiff(res.L, clean.L); !(d <= 1e-12) {
			t.Fatalf("m=%d: factor differs from the clean one by %g", m, d)
		}
	}
}

func TestHugeFiniteFlipRestarts(t *testing.T) {
	// Bit 62 of element (0,0) of block (2,1), flipped in storage at
	// iteration 2, turns L's -0.031 into about -5.5e306. Its column's
	// plain syndrome absorbs every other element, so subtracting the
	// located error leaves about 0 instead of -0.031; that "repair"
	// must fail the re-check and restart the run, not return a factor
	// with residual 1.3e-5.
	for _, sch := range []Scheme{SchemeEnhanced, SchemeOnlineScrub, SchemeOffline} {
		for _, m := range []int{2, 3, 4, 6} {
			o := Options{Profile: hetsim.Laptop(), N: 160, Scheme: sch, ChecksumVectors: m,
				Data:      mat.RandSPD(160, 7),
				Scenarios: []fault.Scenario{{Kind: fault.Storage, Iter: 2, BI: 2, BJ: 1, Bit: 62}}}
			res := mustRun(t, o)
			if res.Attempts < 2 {
				t.Errorf("%v m=%d: %d attempt(s), want a restart", sch, m, res.Attempts)
			}
			if r := mat.CholeskyResidual(o.Data, res.L); !(r <= 1e-10) {
				t.Errorf("%v m=%d: residual %g after %d attempt(s)", sch, m, r, res.Attempts)
			}
		}
	}
}

func TestWrongTwoErrorExplanationRestarts(t *testing.T) {
	// Under this compute-exponent campaign the locator at m = 4 and 6
	// finds repairs that leave the factor wrong (applied, they give one
	// attempt, 160 corrections and residual 3.2e-4). The re-check of
	// the repaired columns must fail those blocks so the restarts
	// recover.
	cls, err := fault.ParseClass("compute-exponent")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{4, 6} {
		o := Options{Profile: hetsim.Laptop(), N: 160, Scheme: SchemeEnhanced, K: 2, ChecksumVectors: m,
			Data: mat.RandSPD(160, 7),
			Scenarios: fault.Campaign(fault.CampaignConfig{Blocks: 5, BlockSize: 32, RatePerIteration: 0.8,
				Seed: 16, Class: cls})}
		res := mustRun(t, o)
		if r := mat.CholeskyResidual(o.Data, res.L); !(r <= 1e-10) {
			t.Errorf("m=%d: residual %g after %d attempt(s) and %d corrections", m, r, res.Attempts, res.Corrections)
		}
	}
}
