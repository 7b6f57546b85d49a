package checksum

import (
	"math"
	"testing"
	"testing/quick"

	"abftchol/internal/blas"
	"abftchol/internal/fault"
	"abftchol/internal/mat"
)

func TestEncodeBlockInto(t *testing.T) {
	block := mat.FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6}) // cols (1,2,3), (4,5,6)
	chk := mat.New(2, 2)
	EncodeBlockInto(block, chk)
	if chk.At(0, 0) != 6 || chk.At(0, 1) != 15 {
		t.Fatalf("plain checksums %g %g", chk.At(0, 0), chk.At(0, 1))
	}
	// weighted: 1*1+2*2+3*3 = 14; 1*4+2*5+3*6 = 32
	if chk.At(1, 0) != 14 || chk.At(1, 1) != 32 {
		t.Fatalf("weighted checksums %g %g", chk.At(1, 0), chk.At(1, 1))
	}
}

func TestEncodeMatrixLayout(t *testing.T) {
	n, b := 8, 4
	a := mat.RandSPD(n, 3)
	chk := EncodeMatrixMulti(a, b, 2)
	if chk.Rows != 4 || chk.Cols != 8 {
		t.Fatalf("checksum matrix %dx%d", chk.Rows, chk.Cols)
	}
	// Block (1,0) checksums live at rows 2..3, cols 0..3.
	want := mat.New(2, b)
	EncodeBlockInto(a.View(b, 0, b, b), want)
	got := chk.View(2, 0, 2, b)
	if !mat.Equal(want, got, 0) {
		t.Fatal("block (1,0) checksum misplaced")
	}
	// Upper block (0,1) region must stay zero.
	up := chk.View(0, b, 2, b)
	for c := 0; c < b; c++ {
		if up.At(0, c) != 0 || up.At(1, c) != 0 {
			t.Fatal("upper block checksum not zero")
		}
	}
}

func TestEncodeMatrixRejectsBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible block size")
		}
	}()
	EncodeMatrixMulti(mat.New(10, 10), 4, 2)
}

func TestVerifyCleanBlockNoCorrections(t *testing.T) {
	block := mat.RandGeneral(8, 8, 1)
	stored := mat.New(2, 8)
	EncodeBlockInto(block, stored)
	scratch := mat.New(2, 8)
	corrs, err := VerifyAndCorrect(block, stored, scratch)
	if err != nil || len(corrs) != 0 {
		t.Fatalf("clean block: corrs=%v err=%v", corrs, err)
	}
}

func TestSingleErrorCorrected(t *testing.T) {
	block := mat.RandGeneral(8, 8, 2)
	orig := block.Clone()
	stored := mat.New(2, 8)
	EncodeBlockInto(block, stored)
	block.Add(5, 3, 7.25) // inject
	scratch := mat.New(2, 8)
	corrs, err := VerifyAndCorrect(block, stored, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) != 1 || corrs[0].Row != 5 || corrs[0].Col != 3 {
		t.Fatalf("correction = %+v", corrs)
	}
	if math.Abs(corrs[0].Delta-7.25) > 1e-12 {
		t.Fatalf("delta = %g", corrs[0].Delta)
	}
	if !mat.Equal(block, orig, 1e-12) {
		t.Fatal("block not restored")
	}
}

func TestBitFlipErrorCorrected(t *testing.T) {
	block := mat.RandGeneral(16, 16, 3)
	orig := block.Clone()
	stored := mat.New(2, 16)
	EncodeBlockInto(block, stored)
	block.Set(9, 4, fault.FlipBit(block.At(9, 4), 55))
	scratch := mat.New(2, 16)
	if _, err := VerifyAndCorrect(block, stored, scratch); err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(block, orig, 1e-9) {
		t.Fatal("bit flip not repaired")
	}
}

func TestTwoErrorsDifferentColumnsCorrected(t *testing.T) {
	block := mat.RandGeneral(8, 8, 4)
	orig := block.Clone()
	stored := mat.New(2, 8)
	EncodeBlockInto(block, stored)
	block.Add(1, 0, -3)
	block.Add(6, 7, 11)
	scratch := mat.New(2, 8)
	corrs, err := VerifyAndCorrect(block, stored, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) != 2 {
		t.Fatalf("corrections = %+v", corrs)
	}
	if !mat.Equal(block, orig, 1e-12) {
		t.Fatal("block not restored")
	}
}

func TestTwoErrorsSameColumnUncorrectable(t *testing.T) {
	block := mat.RandGeneral(8, 8, 5)
	stored := mat.New(2, 8)
	EncodeBlockInto(block, stored)
	block.Add(1, 4, 2)
	block.Add(6, 4, 5)
	scratch := mat.New(2, 8)
	_, err := VerifyAndCorrect(block, stored, scratch)
	if err == nil {
		t.Fatal("two errors in one column must be uncorrectable")
	}
}

func TestZeroD1NonzeroD2Uncorrectable(t *testing.T) {
	// Two equal-and-opposite errors in one column: δ1 = 0 but δ2 != 0.
	block := mat.RandGeneral(8, 8, 6)
	stored := mat.New(2, 8)
	EncodeBlockInto(block, stored)
	block.Add(1, 2, 4)
	block.Add(5, 2, -4)
	scratch := mat.New(2, 8)
	_, err := VerifyAndCorrect(block, stored, scratch)
	if err == nil {
		t.Fatal("cancelling errors must be flagged via weighted checksum")
	}
}

func TestCorrectionPropertyRandomPositions(t *testing.T) {
	f := func(seed int64, rawRow, rawCol uint8, rawDelta int16) bool {
		if rawDelta == 0 {
			return true
		}
		b := 12
		row, col := int(rawRow)%b, int(rawCol)%b
		delta := float64(rawDelta) / 64
		block := mat.RandGeneral(b, b, seed)
		orig := block.Clone()
		stored := mat.New(2, b)
		EncodeBlockInto(block, stored)
		block.Add(row, col, delta)
		scratch := mat.New(2, b)
		if _, err := VerifyAndCorrect(block, stored, scratch); err != nil {
			return false
		}
		return mat.Equal(block, orig, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTinyErrorBelowToleranceIgnored(t *testing.T) {
	// Perturbations at rounding-noise level must not trigger
	// correction (they would be false positives in real runs).
	block := mat.RandGeneral(8, 8, 7)
	stored := mat.New(2, 8)
	EncodeBlockInto(block, stored)
	block.Add(2, 2, 1e-14)
	scratch := mat.New(2, 8)
	corrs, err := VerifyAndCorrect(block, stored, scratch)
	if err != nil || len(corrs) != 0 {
		t.Fatalf("noise-level perturbation flagged: %v %v", corrs, err)
	}
}

func TestFusedToleranceMatchesTolerance(t *testing.T) {
	// VerifyAndCorrect takes max|block| from its encode pass; the
	// checksums and the threshold must keep the bits of a plain
	// column-sum pass and of a threshold from a separate NormMax pass.
	for _, tc := range []struct {
		rows, cols int
		scale      float64
		seed       int64
	}{
		{8, 8, 1e-3, 1}, {8, 8, 1e6, 2}, {64, 64, 1, 3}, {13, 5, 42, 4}, {1, 1, 0.5, 5},
	} {
		block := mat.RandGeneral(tc.rows, tc.cols, tc.seed)
		for j := 0; j < tc.cols; j++ {
			col := block.Col(j)
			for i := range col {
				col[i] *= tc.scale
			}
		}
		if tc.seed == 3 {
			block.Set(5, 7, math.NaN()) // NormMax skips NaN; so must the fused pass
		}
		got := mat.New(2, tc.cols)
		normMax := EncodeBlockInto(block, got)
		if a, b := toleranceFor(block.Rows, normMax), toleranceFor(block.Rows, block.NormMax()); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%dx%d: fused threshold %v, two-pass threshold %v", tc.rows, tc.cols, a, b)
		}
		for j := 0; j < tc.cols; j++ {
			s1, s2 := 0.0, 0.0 // one column, top to bottom
			for i, v := range block.Col(j) {
				s1 += v
				s2 += float64(i+1) * v
			}
			for i, want := range []float64{s1, s2} {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
					t.Fatalf("%dx%d: checksum (%d,%d) %v, want %v", tc.rows, tc.cols, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestToleranceScalesWithMagnitude(t *testing.T) {
	small := mat.New(8, 8)
	small.Fill(0.001)
	big := mat.New(8, 8)
	big.Fill(1e6)
	if toleranceFor(8, big.NormMax()) <= toleranceFor(8, small.NormMax()) {
		t.Fatal("tolerance must grow with block magnitude")
	}
	if toleranceFor(8, small.NormMax()) <= 0 {
		t.Fatal("tolerance must be positive")
	}
}

func TestUpdateRankKPreservesInvariant(t *testing.T) {
	// Block C (b x b) updated as C -= S·Pᵀ where S is b x k and P is
	// b x k. chk(C) must track via chk(C) -= chk(S)·Pᵀ.
	b, k := 8, 12
	cblk := mat.RandGeneral(b, b, 10)
	s := mat.RandGeneral(b, k, 11)
	p := mat.RandGeneral(b, k, 12)
	chkC := mat.New(2, b)
	chkS := mat.New(2, k)
	EncodeBlockInto(cblk, chkC)
	EncodeBlockInto(s, chkS)
	// Data update.
	blas.Dgemm(blas.NoTrans, blas.Trans, b, b, k, -1, s.Data, s.Stride, p.Data, p.Stride, 1, cblk.Data, cblk.Stride)
	// Checksum update.
	UpdateRankK(chkC, chkS, p)
	recalc := mat.New(2, b)
	EncodeBlockInto(cblk, recalc)
	if mat.MaxAbsDiff(chkC, recalc) > 1e-10 {
		t.Fatalf("rank-k invariant broken by %g", mat.MaxAbsDiff(chkC, recalc))
	}
}

func TestUpdateTRSMPreservesInvariant(t *testing.T) {
	b := 8
	l := mat.New(b, b)
	for j := 0; j < b; j++ {
		for i := j; i < b; i++ {
			l.Set(i, j, float64(i-j+1)/3)
		}
		l.Add(j, j, 2)
	}
	blk := mat.RandGeneral(b, b, 13)
	chk := mat.New(2, b)
	EncodeBlockInto(blk, chk)
	// Data: blk = blk · L⁻ᵀ
	blas.Dtrsm(blas.Right, blas.Trans, b, b, 1, l.Data, l.Stride, blk.Data, blk.Stride)
	UpdateTRSM(chk, l)
	recalc := mat.New(2, b)
	EncodeBlockInto(blk, recalc)
	if mat.MaxAbsDiff(chk, recalc) > 1e-10 {
		t.Fatalf("trsm invariant broken by %g", mat.MaxAbsDiff(chk, recalc))
	}
}

func TestUpdatePOTF2PreservesInvariant(t *testing.T) {
	// Factor an SPD block; Algorithm 2 must turn chk(A) into chk(L)
	// where L is the factor with a zeroed strict upper triangle.
	b := 16
	a := mat.RandSPD(b, 14)
	chk := mat.New(2, b)
	EncodeBlockInto(a, chk)
	if err := blas.Dpotf2(b, a.Data, a.Stride); err != nil {
		t.Fatal(err)
	}
	a.LowerFromFull()
	UpdatePOTF2(chk, a)
	recalc := mat.New(2, b)
	EncodeBlockInto(a, recalc)
	if mat.MaxAbsDiff(chk, recalc) > 1e-9*a.NormMax() {
		t.Fatalf("potf2 invariant broken by %g", mat.MaxAbsDiff(chk, recalc))
	}
}

func TestUpdatePOTF2MatchesTRSMForm(t *testing.T) {
	// Algorithm 2 is algebraically chk·L⁻ᵀ; both paths must agree.
	b := 8
	a := mat.RandSPD(b, 15)
	chk1 := mat.New(2, b)
	EncodeBlockInto(a, chk1)
	chk2 := chk1.Clone()
	if err := blas.Dpotf2(b, a.Data, a.Stride); err != nil {
		t.Fatal(err)
	}
	a.LowerFromFull()
	UpdatePOTF2(chk1, a)
	UpdateTRSM(chk2, a)
	if mat.MaxAbsDiff(chk1, chk2) > 1e-10 {
		t.Fatal("Algorithm 2 disagrees with chk·L⁻ᵀ")
	}
}

func TestChainedUpdatesSurviveInjection(t *testing.T) {
	// End-to-end mini scenario: encode, rank-k update, trsm update,
	// inject, verify, correct — the full life of a panel block.
	b, k := 8, 8
	blk := mat.RandGeneral(b, b, 16)
	src := mat.RandGeneral(b, k, 17)
	pan := mat.RandGeneral(b, k, 18)
	l := mat.RandSPD(b, 19)
	if err := blas.Dpotf2(b, l.Data, l.Stride); err != nil {
		t.Fatal(err)
	}
	l.LowerFromFull()

	chkB := mat.New(2, b)
	chkS := mat.New(2, k)
	EncodeBlockInto(blk, chkB)
	EncodeBlockInto(src, chkS)

	blas.Dgemm(blas.NoTrans, blas.Trans, b, b, k, -1, src.Data, src.Stride, pan.Data, pan.Stride, 1, blk.Data, blk.Stride)
	UpdateRankK(chkB, chkS, pan)
	blas.Dtrsm(blas.Right, blas.Trans, b, b, 1, l.Data, l.Stride, blk.Data, blk.Stride)
	UpdateTRSM(chkB, l)

	want := blk.Clone()
	blk.Add(3, 6, -2.5)
	scratch := mat.New(2, b)
	corrs, err := VerifyAndCorrect(blk, chkB, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) != 1 {
		t.Fatalf("corrections %v", corrs)
	}
	if !mat.Equal(blk, want, 1e-9) {
		t.Fatal("chained scenario did not recover the block")
	}
}

func TestLocateRejectsOutOfRangeRow(t *testing.T) {
	// δ2/δ1 pointing outside [1, rows] must be non-correctable, and
	// the block must be left as it was.
	if _, _, ok := locate([]float64{1, 100}, 8, 1e-9); ok {
		t.Fatal("out-of-range ratio accepted")
	}
	block := mat.New(8, 8)
	stored := mat.New(2, 8)
	stored.Set(0, 0, -1)
	stored.Set(1, 0, -100)
	corrs, err := VerifyAndCorrect(block, stored, mat.New(2, 8))
	if err == nil || len(corrs) != 0 {
		t.Fatalf("out-of-range ratio: corrections %v, err %v", corrs, err)
	}
	if block.NormMax() != 0 {
		t.Fatal("rejected column was modified")
	}
}

func TestCorruptedStoredChecksumFailsSafely(t *testing.T) {
	// The checksums themselves are unprotected (in the paper too). A
	// bit flip in a *stored checksum* shows up as a mismatch whose
	// ratio test fails, so verification reports uncorrectable instead
	// of silently "repairing" good data — a safe failure that costs a
	// redo, never a wrong answer.
	block := mat.RandGeneral(8, 8, 77)
	stored := mat.New(2, 8)
	EncodeBlockInto(block, stored)
	stored.Add(0, 3, 5) // corrupt chk1 of column 3; chk2 untouched
	scratch := mat.New(2, 8)
	_, err := VerifyAndCorrect(block, stored, scratch)
	if err == nil {
		t.Fatal("corrupted stored checksum must be flagged uncorrectable")
	}
	// The weighted checksum alone corrupted: same safe outcome.
	stored2 := mat.New(2, 8)
	EncodeBlockInto(block, stored2)
	stored2.Add(1, 5, -4)
	if _, err := VerifyAndCorrect(block, stored2, scratch); err == nil {
		t.Fatal("corrupted weighted checksum must be flagged uncorrectable")
	}
}

func BenchmarkVerifyAndCorrect64(b *testing.B) {
	a := mat.RandSPD(128, 1)
	block := a.View(64, 0, 64, 64)
	stored := mat.New(2, 64)
	EncodeBlockInto(block, stored)
	scratch := mat.New(2, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyAndCorrect(block, stored, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
