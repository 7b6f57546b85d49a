package blas

import "sync"

// The packed GEMM every real-plane Level-3 call runs on (Dgemm
// in all four transpose cases, Dsyrk, and the off-diagonal updates of
// Dtrsm(Right, Trans)). It follows the GotoBLAS/BLIS layering: op(B)
// is packed a packKC x packNC block at a time into kernNR-column
// panels (pre-scaled by alpha), op(A) a packMC x packKC block at a time
// into kernMR-row panels, and a kernMR x kernNR register-tile
// micro-kernel sweeps the packed block of C.
//
// Bit-identity contract: each micro-kernel call accumulates one
// packKC-deep slice of the dot products from zero, one fused
// multiply-add per step in increasing depth order, and adds the sum to
// C. Element C[i,j] therefore sees
//
//	C += Σ_{l in [0, KC)}, then C += Σ_{l in [KC, 2KC)}, ...
//
// whatever the shape of the call, the tile the element falls in, the
// column split of the parallel front ends, or which micro-kernel runs.
// Only packKC fixes the summation order.
const (
	kernMR = 8   // rows of a micro tile (two 4-wide vectors)
	kernNR = 4   // columns of a micro tile
	packKC = 256 // depth of one packed block
	packMC = 128 // rows of op(A) packed at once (a multiple of kernMR)
	packNC = 128 // columns of op(B) packed at once (a multiple of kernNR)
)

// panels is one worker's packing storage: whole packed blocks in a
// and b, and in ea and eb the ragged last panel of an operand read in
// place (its last rows of A, or last columns of op(B), zero-padded),
// which the micro-kernel cannot read where it lies without stepping
// outside the operand.
type panels struct {
	a  [packMC * packKC]float64
	b  [packKC * packNC]float64
	ea [kernMR * packKC]float64
	eb [packKC * kernNR]float64
}

// panelPool recycles the fixed-size packing buffers, so a GEMM call —
// one per column chunk per worker in the parallel front ends — reuses
// warm storage instead of allocating half a megabyte.
var panelPool = sync.Pool{
	New: func() any { return new(panels) },
}

// block locates the micro-panels of one operand's current block: the
// panel holding row r of A (column r of op(B)) starts at buf[r*rs] and
// steps ds per depth step. Panels from row (column) whole on come from
// edge instead, packed with depth stride edgeStep. A packed block has
// ds = kernMR (kernNR), rs = kb and all its panels in buf; an operand
// read in place has ds = its leading dimension and rs = 1.
type block struct {
	buf      []float64
	ds, rs   int
	whole    int
	edge     []float64
	edgeStep int
}

// panel returns the micro-panel holding row (column) r and its depth
// stride.
func (o *block) panel(r int) ([]float64, int) {
	if r < o.whole {
		return o.buf[r*o.rs:], o.ds
	}
	return o.edge, o.edgeStep
}

// gemmPacked computes C += op(A)·alpha·op(B) for m x n C and depth
// k >= 1 (the caller has applied beta). With lower set, C is square
// and only its lower triangle is referenced and written: tiles wholly
// above the diagonal are skipped and tiles straddling it are masked.
// C must not overlap A or B.
//
// Only what must be packed is packed. Untransposed A already holds
// each depth step's rows side by side, and transposed B its columns,
// so the micro-kernel can read either where it lies. When both can,
// the operand with fewer elements is packed and the other read in
// place; otherwise whatever cannot be read in place is packed. alpha
// rides on a packed operand: on A only when it is ±1, since negation is
// exact and (αa)·b then rounds as a·(αb) does, and on B otherwise.
// Either way an element's sum and its bits are the same.
//
// abft:hotpath
// abft:bce checks=2
func gemmPacked(lower bool, transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	readA := transA == NoTrans
	readB := transB == Trans && (alpha == 1 || alpha == -1)
	if readA && readB {
		readA = m >= n // pack the smaller operand
		readB = !readA
	}
	alphaA, alphaB := 1.0, alpha
	if readB {
		alphaA, alphaB = alpha, 1
	}
	p := panelPool.Get().(*panels)
	var oa, ob block
	oa.edge, oa.edgeStep = p.ea[:], kernMR
	ob.edge, ob.edgeStep = p.eb[:], kernNR
	for j0 := 0; j0 < n; j0 += packNC {
		nb := min(packNC, n-j0)
		for l0 := 0; l0 < k; l0 += packKC {
			kb := min(packKC, k-l0)
			if readB {
				whole := nb - nb%kernNR
				ob.buf, ob.ds, ob.rs, ob.whole = b[j0+l0*ldb:], ldb, 1, whole
				if whole < nb {
					packB(transB, alphaB, b, ldb, l0, kb, j0+whole, nb-whole, p.eb[:])
				}
			} else {
				ob.buf, ob.ds, ob.rs, ob.whole = p.b[:], kernNR, kb, nb
				packB(transB, alphaB, b, ldb, l0, kb, j0, nb, p.b[:])
			}
			i := 0
			if lower {
				i = j0 // rows above the block's first column are all upper
			}
			for i0 := i; i0 < m; i0 += packMC {
				mb := min(packMC, m-i0)
				if readA {
					whole := mb - mb%kernMR
					oa.buf, oa.ds, oa.rs, oa.whole = a[i0+l0*lda:], lda, 1, whole
					if whole < mb {
						packA(transA, alphaA, a, lda, i0+whole, mb-whole, l0, kb, p.ea[:])
					}
				} else {
					oa.buf, oa.ds, oa.rs, oa.whole = p.a[:], kernMR, kb, mb
					packA(transA, alphaA, a, lda, i0, mb, l0, kb, p.a[:])
				}
				macroKernel(lower, mb, nb, kb, &oa, &ob, c, ldc, i0, j0)
			}
		}
	}
	panelPool.Put(p)
}

// macroKernel sweeps the micro-kernel over the mb x nb block of C whose
// top-left element is C[i0, j0], at depth kb, with A's and B's panels
// located by oa and ob.
//
// abft:hotpath
// abft:bce checks=3
func macroKernel(lower bool, mb, nb, kb int, oa, ob *block, c []float64, ldc, i0, j0 int) {
	for jr := 0; jr < nb; jr += kernNR {
		nrr := min(kernNR, nb-jr)
		bp, sb := ob.panel(jr)
		col := j0 + jr
		for ir := 0; ir < mb; ir += kernMR {
			mrr := min(kernMR, mb-ir)
			row := i0 + ir
			if lower && row+mrr <= col {
				continue // every element above the diagonal
			}
			ap, sa := oa.panel(ir)
			cc := c[row+col*ldc:]
			if mrr == kernMR && nrr == kernNR && (!lower || row >= col+kernNR-1) {
				kern8x4(kb, ap, sa, bp, sb, cc, ldc)
			} else {
				edgeTile(lower, mrr, nrr, kb, ap, sa, bp, sb, cc, ldc, row-col)
			}
		}
	}
}

// edgeTile runs the micro-kernel for a ragged or diagonal-straddling
// tile through a full-size copy of it, then writes back the mrr x nrr
// corner, only the elements on or below the diagonal when lower is
// set. diag is the tile's row minus its column. C's values go through
// the copy unchanged, so an element gets the same bits as in a full
// tile.
//
// abft:hotpath
// abft:bce checks=8
func edgeTile(lower bool, mrr, nrr, kb int, ap []float64, sa int, bp []float64, sb int, c []float64, ldc, diag int) {
	var t [kernMR * kernNR]float64
	for j := 0; j < nrr; j++ {
		copy(t[j*kernMR:][:mrr], c[j*ldc:][:mrr])
	}
	kern8x4(kb, ap, sa, bp, sb, t[:], kernMR)
	for j := 0; j < nrr; j++ {
		lo := 0
		if lower {
			lo = max(0, j-diag) // first row i with row+i >= col+j
		}
		if lo < mrr {
			copy(c[j*ldc+lo:][:mrr-lo], t[j*kernMR+lo:][:mrr-lo])
		}
	}
}

// packA packs rows [i0, i0+mb) and depth [l0, l0+kb) of alpha·op(A)
// into kernMR-row panels: panel p holds dst[p*kb*kernMR + l*kernMR + r]
// = alpha*op(A)[i0+p*kernMR+r, l0+l]. Rows past mb are zero.
// Untransposed A is read down each column, its whole panels moved as
// eight plain loads and stores (a copy call per 64 bytes costs as much
// as the kernel).
//
// abft:hotpath
// abft:bce checks=12
func packA(trans Transpose, alpha float64, a []float64, lda, i0, mb, l0, kb int, dst []float64) {
	whole := 0 // rows in whole panels of untransposed A, packed first
	if trans == NoTrans {
		whole = mb - mb%kernMR
		for l := 0; l < kb; l++ {
			src := a[i0+(l0+l)*lda:][:whole]
			for ir := 0; ir < len(src); ir += kernMR {
				d := (*[kernMR]float64)(dst[ir*kb+l*kernMR:])
				s := (*[kernMR]float64)(src[ir:])
				d[0], d[1], d[2], d[3] = alpha*s[0], alpha*s[1], alpha*s[2], alpha*s[3]
				d[4], d[5], d[6], d[7] = alpha*s[4], alpha*s[5], alpha*s[6], alpha*s[7]
			}
		}
	}
	for ir := whole; ir < mb; ir += kernMR {
		mrr := min(kernMR, mb-ir)
		p := dst[ir*kb:][:kb*kernMR]
		for l := 0; l < kb; l++ {
			d := p[l*kernMR:][:kernMR]
			for r := range d {
				v := 0.0
				if r < mrr {
					if trans == NoTrans {
						v = alpha * a[i0+ir+r+(l0+l)*lda]
					} else {
						v = alpha * a[l0+l+(i0+ir+r)*lda]
					}
				}
				d[r] = v
			}
		}
	}
}

// packB packs depth [l0, l0+kb) and columns [j0, j0+nb) of alpha·op(B)
// into kernNR-column panels: panel q holds dst[q*kb*kernNR + l*kernNR
// + c] = alpha*op(B)[l0+l, j0+q*kernNR+c]. Columns past nb are zero.
// Transposed B is read down each of its columns, like packA's A.
//
// abft:hotpath
// abft:bce checks=12
func packB(trans Transpose, alpha float64, b []float64, ldb, l0, kb, j0, nb int, dst []float64) {
	whole := 0 // columns in whole panels of transposed B, packed first
	if trans == Trans {
		whole = nb - nb%kernNR
		for l := 0; l < kb; l++ {
			src := b[j0+(l0+l)*ldb:][:whole]
			for jr := 0; jr < len(src); jr += kernNR {
				d := (*[kernNR]float64)(dst[jr*kb+l*kernNR:])
				s := (*[kernNR]float64)(src[jr:])
				d[0], d[1], d[2], d[3] = alpha*s[0], alpha*s[1], alpha*s[2], alpha*s[3]
			}
		}
	}
	for jr := whole; jr < nb; jr += kernNR {
		nrr := min(kernNR, nb-jr)
		p := dst[jr*kb:][:kb*kernNR]
		for l := 0; l < kb; l++ {
			d := p[l*kernNR:][:kernNR]
			for c := range d {
				v := 0.0
				if c < nrr {
					if trans == Trans {
						v = alpha * b[j0+jr+c+(l0+l)*ldb]
					} else {
						v = alpha * b[l0+l+(j0+jr+c)*ldb]
					}
				}
				d[c] = v
			}
		}
	}
}
