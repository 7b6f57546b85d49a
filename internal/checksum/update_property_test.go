package checksum

import (
	"math"
	"math/rand"
	"testing"

	"abftchol/internal/blas"
	"abftchol/internal/mat"
)

// internal/core's step tables pair every kernel with its checksum
// update (TestStepTablesMatchTableI checks that each compute step has
// one), and these properties prove each update's *arithmetic* actually
// restores the m-vector encode invariant chk(block) = W·block the
// pairing relies on — for every supported vector count, on random
// inputs. Together they close the loop: the table guarantees the
// update runs, the property guarantees running it suffices.

// multiTol bounds the accumulated rounding noise of an m-vector
// checksum comparison: weights grow as b^(m-1), and the update chains
// O(b) multiply-adds on values of the block's magnitude.
func multiTol(m, b int, norm float64) float64 {
	if norm < 1 {
		norm = 1
	}
	return 1e-11 * math.Pow(float64(b), float64(m-1)) * float64(b) * norm
}

// reencoded returns the freshly computed m-vector checksum of blk.
func reencoded(m int, blk *mat.Matrix) *mat.Matrix {
	chk := mat.New(m, blk.Cols)
	EncodeBlockInto(blk, chk)
	return chk
}

func TestUpdateRankKPreservesMultiInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 60; trial++ {
		m := []int{2, 3, 4, 6}[rng.Intn(4)]
		b := 4 + rng.Intn(9)
		k := 1 + rng.Intn(2*b)
		blk := mat.RandGeneral(b, b, int64(3*trial+1))
		src := mat.RandGeneral(b, k, int64(3*trial+2))
		pan := mat.RandGeneral(b, k, int64(3*trial+3))
		chkB := reencoded(m, blk)
		chkS := reencoded(m, src)
		blas.Dgemm(blas.NoTrans, blas.Trans, b, b, k,
			-1, src.Data, src.Stride, pan.Data, pan.Stride, 1, blk.Data, blk.Stride)
		UpdateRankK(chkB, chkS, pan)
		diff := mat.MaxAbsDiff(chkB, reencoded(m, blk))
		if tol := multiTol(m, b, float64(k)*blk.NormMax()); diff > tol {
			t.Fatalf("trial %d (m=%d b=%d k=%d): rank-k invariant broken by %g (tol %g)", trial, m, b, k, diff, tol)
		}
	}
}

func TestUpdateTRSMPreservesMultiInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 60; trial++ {
		m := []int{2, 3, 4, 6}[rng.Intn(4)]
		b := 4 + rng.Intn(9)
		blk := mat.RandGeneral(b, b, int64(2*trial+1))
		l := mat.RandSPD(b, int64(2*trial+2))
		if err := blas.Dpotf2(b, l.Data, l.Stride); err != nil {
			t.Fatal(err)
		}
		l.LowerFromFull()
		chk := reencoded(m, blk)
		blas.Dtrsm(blas.Right, blas.Trans, b, b, 1, l.Data, l.Stride, blk.Data, blk.Stride)
		UpdateTRSM(chk, l)
		diff := mat.MaxAbsDiff(chk, reencoded(m, blk))
		if tol := multiTol(m, b, float64(b)*blk.NormMax()); diff > tol {
			t.Fatalf("trial %d (m=%d b=%d): trsm invariant broken by %g (tol %g)", trial, m, b, diff, tol)
		}
	}
}

func TestUpdatePOTF2PreservesMultiInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 60; trial++ {
		m := []int{2, 3, 4, 6}[rng.Intn(4)]
		b := 4 + rng.Intn(13)
		a := mat.RandSPD(b, int64(trial+1))
		chk := reencoded(m, a)
		if err := blas.Dpotf2(b, a.Data, a.Stride); err != nil {
			t.Fatal(err)
		}
		a.LowerFromFull()
		UpdatePOTF2(chk, a)
		diff := mat.MaxAbsDiff(chk, reencoded(m, a))
		if tol := multiTol(m, b, float64(b)*a.NormMax()); diff > tol {
			t.Fatalf("trial %d (m=%d b=%d): potf2 invariant broken by %g (tol %g)", trial, m, b, diff, tol)
		}
	}
}

// TestUpdateChainPreservesMultiInvariant walks one panel block through
// the full left-looking life cycle — rank-k update, then the TRSM
// solve against the freshly factored diagonal — with checksums
// maintained purely by Update* calls, never re-encoded in between.
func TestUpdateChainPreservesMultiInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 40; trial++ {
		m := []int{2, 3, 4, 6}[rng.Intn(4)]
		b := 4 + rng.Intn(9)
		k := 1 + rng.Intn(b)
		blk := mat.RandGeneral(b, b, int64(4*trial+1))
		src := mat.RandGeneral(b, k, int64(4*trial+2))
		pan := mat.RandGeneral(b, k, int64(4*trial+3))
		l := mat.RandSPD(b, int64(4*trial+4))
		if err := blas.Dpotf2(b, l.Data, l.Stride); err != nil {
			t.Fatal(err)
		}
		l.LowerFromFull()
		chkB := reencoded(m, blk)
		chkS := reencoded(m, src)

		blas.Dgemm(blas.NoTrans, blas.Trans, b, b, k,
			-1, src.Data, src.Stride, pan.Data, pan.Stride, 1, blk.Data, blk.Stride)
		UpdateRankK(chkB, chkS, pan)
		blas.Dtrsm(blas.Right, blas.Trans, b, b, 1, l.Data, l.Stride, blk.Data, blk.Stride)
		UpdateTRSM(chkB, l)

		diff := mat.MaxAbsDiff(chkB, reencoded(m, blk))
		if tol := multiTol(m, b, float64(b+k)*blk.NormMax()); diff > tol {
			t.Fatalf("trial %d (m=%d b=%d k=%d): chained invariant broken by %g (tol %g)", trial, m, b, k, diff, tol)
		}
	}
}
