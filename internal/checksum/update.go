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
// abft:hotpath
// abft:bce checks=3
func UpdatePOTF2(chk, la *mat.Matrix) {
	b := la.Rows
	if la.Cols != b || chk.Cols != b {
		panic(fmt.Sprintf("checksum: potf2 update shapes chk %dx%d la %dx%d", chk.Rows, chk.Cols, la.Rows, la.Cols))
	}
	// Each chk element takes the same operations in the same order as
	// the row-by-row loop of the paper; the loops run down columns so
	// they read contiguous memory.
	for j := 0; j < b; j++ {
		lj := la.Col(j)
		cj := chk.Col(j)
		d := lj[j]
		for r := range cj {
			cj[r] /= d
		}
		for i := j + 1; i < b; i++ {
			ci := chk.Col(i)[:len(cj)]
			l := lj[i]
			for r, c := range cj {
				if c == 0 {
					continue
				}
				ci[r] += -c * l
			}
		}
	}
}
