package checksum

import (
	"fmt"

	"abftchol/internal/blas"
	"abftchol/internal/mat"
)

// The checksum-updating algorithms of §IV-B: after each factorization
// kernel transforms data blocks, the matching routine here applies the
// same linear transformation to their checksum rows, preserving the
// invariant chk(block) == V·block without touching the data.

// UpdateRankK applies the SYRK/GEMM checksum update
//
//	chkOut ← chkOut − chkSrc · panelᵀ
//
// where chkOut is the (m·k x B) checksum slab of the k blocks being
// updated, chkSrc the (m·k x K) checksum slab of the blocks being
// multiplied, and panel the (B x K) factored row panel. This is the
// paper's chk(A') = chk(A) − chk(LC)·LCᵀ (Fig. 4) and
// chk(B') = chk(B) − chk(LD)·LCᵀ (Fig. 5) in slab form.
//
// abft:hotpath
// abft:bce checks=0
func UpdateRankK(chkOut, chkSrc, panel *mat.Matrix) {
	if chkOut.Rows != chkSrc.Rows || chkOut.Cols != panel.Rows || chkSrc.Cols != panel.Cols {
		panic(fmt.Sprintf("checksum: rank-k update shapes chkOut %dx%d chkSrc %dx%d panel %dx%d",
			chkOut.Rows, chkOut.Cols, chkSrc.Rows, chkSrc.Cols, panel.Rows, panel.Cols))
	}
	blas.Dgemm(blas.NoTrans, blas.Trans,
		chkOut.Rows, chkOut.Cols, chkSrc.Cols,
		-1, chkSrc.Data, chkSrc.Stride,
		panel.Data, panel.Stride,
		1, chkOut.Data, chkOut.Stride)
}

// UpdateTRSM applies the panel-solve checksum update
//
//	chk ← chk · L⁻ᵀ
//
// matching LB = B'·(LAᵀ)⁻¹ (Fig. 7). chk is an (m·k x B) slab and l the
// factored B x B lower-triangular diagonal block.
//
// abft:hotpath
// abft:bce checks=0
func UpdateTRSM(chk, l *mat.Matrix) {
	if chk.Cols != l.Rows || l.Rows != l.Cols {
		panic(fmt.Sprintf("checksum: trsm update shapes chk %dx%d l %dx%d", chk.Rows, chk.Cols, l.Rows, l.Cols))
	}
	blas.Dtrsm(blas.Right, blas.Trans, chk.Rows, chk.Cols, 1, l.Data, l.Stride, chk.Data, chk.Stride)
}

// UpdatePOTF2 is Algorithm 2 of the paper: it transforms the m x B
// checksum of the diagonal block A' into the checksum of its Cholesky
// factor LA by replaying the factorization's column operations:
//
//	for j: chk[j] ← chk[j]/LA[j,j]; chk[j+1:] ← chk[j+1:] − chk[j]·LA[j+1:,j]ᵀ
//
// (Algebraically this equals chk·LA⁻ᵀ, but the paper's loop form works
// one column at a time exactly as the CPU factors them.)
//
// Each checksum row runs on a contiguous copy, potf2Chunk columns at a
// time, so the updates are blas.SubScaled calls over whole rows. A
// chunk first takes the terms of every earlier, finished column, in
// increasing j, then replays the loop above on its own columns. So each
// element takes the same subtractions, in the same order and with the
// same zero skip, and then the same division as in the loop.
//
// abft:hotpath
// abft:bce checks=7
func UpdatePOTF2(chk, la *mat.Matrix) {
	b := la.Rows
	if la.Cols != b || chk.Cols != b {
		panic(fmt.Sprintf("checksum: potf2 update shapes chk %dx%d la %dx%d", chk.Rows, chk.Cols, la.Rows, la.Cols))
	}
	var buf [potf2Chunk]float64
	for r := 0; r < chk.Rows; r++ {
		row := chk.Off(r, 0) // element j at row[j*chk.Stride]
		for c0 := 0; c0 < b; c0 += len(buf) {
			x := buf[:min(len(buf), b-c0)]
			for i := range x {
				x[i] = row[(c0+i)*chk.Stride]
			}
			if c0 > 0 {
				blas.SubScaled(c0, row, chk.Stride, la.Off(c0, 0), la.Stride, x, 1)
			}
			for j := range x {
				lj := la.Col(c0 + j)[c0+j:]
				x[j] /= lj[0]
				blas.SubScaled(1, x[j:], 0, lj[1:], 0, x[j+1:], 1)
			}
			for i, v := range x {
				row[(c0+i)*chk.Stride] = v
			}
		}
	}
}

// potf2Chunk is how many columns of one checksum row UpdatePOTF2 holds
// in its stack copy: a whole row at the usual block size.
const potf2Chunk = 64
