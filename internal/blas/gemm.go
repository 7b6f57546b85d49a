package blas

import "sync"

// The packed GEMM every real-plane Level-3 call runs on: Dgemm and
// the off-diagonal updates of Dtrsm(Right, Trans) both compute the one
// product the factorization issues, C −= A·Bᵀ, with A m x k and B
// n x k, both column-major. It follows the GotoBLAS/BLIS layering: B
// is packed a packNC x packKC block at a time into kernNR-row panels,
// A a packMC x packKC block at a time into kernMR-row panels, and a
// kernMR x kernNR register-tile micro-kernel sweeps the packed block
// of C.
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
	kernMR = 16  // rows of a micro tile (two 8-wide or four 4-wide vectors)
	kernNR = 8   // columns of a micro tile
	packKC = 256 // depth of one packed block
	packMC = 128 // rows of A packed at once (a multiple of kernMR)
	packNC = 128 // rows of B (columns of C) packed at once (a multiple of kernNR)
)

// panels is one worker's packing storage: whole packed blocks in a
// and b, and in ea and eb the ragged last panel of an operand read in
// place (its last rows, zero-padded), which the micro-kernel cannot
// read where it lies without stepping outside the operand.
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
// panel holding its row r starts at buf[r*rs] and steps ds per depth
// step. Panels from row whole on come from edge instead, packed with
// depth stride edgeStep. A packed block has ds = kernMR (kernNR for B),
// rs = kb and all its panels in buf; an operand read in place has
// ds = its leading dimension and rs = 1.
type block struct {
	buf      []float64
	ds, rs   int
	whole    int
	edge     []float64
	edgeStep int
}

// inPlace points o at rows [r0, r0+rows) and depth [l0, l0+kb) of the
// operand x, read where it lies, save that the ragged last panel's
// rows are copied into o.edge, zero-padded, since the micro-kernel
// would read past them: edge[l*edgeStep + r] = x[r0+whole+r, l0+l].
// They are not negated, as the rest of x is not.
//
// abft:hotpath
// abft:bce checks=5
func (o *block) inPlace(x []float64, ldx, r0, rows, l0, kb int) {
	w := o.edgeStep
	o.buf, o.ds, o.rs, o.whole = x[r0+l0*ldx:], ldx, 1, rows-rows%w
	if o.whole == rows {
		return
	}
	for l := 0; l < kb; l++ {
		d := o.edge[l*w:][:w]
		rr := copy(d, x[r0+o.whole+(l0+l)*ldx:][:rows-o.whole])
		clear(d[rr:])
	}
}

// panel returns the micro-panel holding row r and its depth stride.
func (o *block) panel(r int) ([]float64, int) {
	if r < o.whole {
		return o.buf[r*o.rs:], o.ds
	}
	return o.edge, o.edgeStep
}

// gemmPacked computes C −= A·Bᵀ for m x n C, m x k A and n x k B, all
// column-major, at depth k >= 1. C must not overlap A or B.
//
// A and B both hold each depth step's rows side by side, so the
// micro-kernel can read either where it lies. The operand with fewer
// rows is packed, negated, and the other read in place; negation is
// exact, so (−a)·b rounds as a·(−b) does and an element's sum and its
// bits do not depend on which operand was packed.
//
// abft:hotpath
// abft:bce checks=1
func gemmPacked(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	readA := m >= n // otherwise B is read in place
	// A's micro-panels go outer only where its kb lines, lda apart,
	// spread over every L1 set: at an lda that is a multiple of 16 they
	// share at most 32 sets (one at 4 KiB), the panel cannot stay, and
	// B's packed panel, which can, goes outer instead.
	aOuter := readA && lda%16 != 0
	p := panelPool.Get().(*panels)
	var oa, ob block
	oa.edge, oa.edgeStep = p.ea[:], kernMR
	ob.edge, ob.edgeStep = p.eb[:], kernNR
	for j0 := 0; j0 < n; j0 += packNC {
		nb := min(packNC, n-j0)
		for l0 := 0; l0 < k; l0 += packKC {
			kb := min(packKC, k-l0)
			if readA {
				packB(b, ldb, j0, nb, l0, kb, p.b[:])
				ob.buf, ob.ds, ob.rs, ob.whole = p.b[:], kernNR, kb, nb
			} else {
				ob.inPlace(b, ldb, j0, nb, l0, kb)
			}
			for i0 := 0; i0 < m; i0 += packMC {
				mb := min(packMC, m-i0)
				if readA {
					oa.inPlace(a, lda, i0, mb, l0, kb)
				} else {
					packA(a, lda, i0, mb, l0, kb, p.a[:])
					oa.buf, oa.ds, oa.rs, oa.whole = p.a[:], kernMR, kb, mb
				}
				macroKernel(aOuter, mb, nb, kb, &oa, &ob, c[i0+j0*ldc:], ldc)
			}
		}
	}
	panelPool.Put(p)
}

// macroKernel sweeps the micro-kernel over the mb x nb block of C that
// c starts at, at depth kb, with A's and B's panels located by oa and
// ob. With aOuter, A is read in place and its micro-panels are the
// outer loop, so one kernMR x kb panel, kb lines a leading dimension
// apart, stays in L1 across every packed panel of B; otherwise B's
// panels are, as in the usual GotoBLAS order. The order changes only
// which tile runs when, not any tile's sums.
//
// abft:hotpath
// abft:bce checks=3
func macroKernel(aOuter bool, mb, nb, kb int, oa, ob *block, c []float64, ldc int) {
	outer, inner, outerStep, innerStep := nb, mb, kernNR, kernMR
	if aOuter {
		outer, inner, outerStep, innerStep = mb, nb, kernMR, kernNR
	}
	for o := 0; o < outer; o += outerStep {
		for in := 0; in < inner; in += innerStep {
			ir, jr := in, o
			if aOuter {
				ir, jr = o, in
			}
			mrr, nrr := min(kernMR, mb-ir), min(kernNR, nb-jr)
			ap, sa := oa.panel(ir)
			bp, sb := ob.panel(jr)
			cc := c[ir+jr*ldc:]
			if mrr == kernMR && nrr == kernNR {
				kern16x8(kb, ap, sa, bp, sb, cc, ldc)
			} else {
				edgeTile(mrr, nrr, kb, ap, sa, bp, sb, cc, ldc)
			}
		}
	}
}

// edgeTile runs the micro-kernel for a ragged tile through a full-size
// copy of it, then writes back the mrr x nrr corner. C's values go
// through the copy unchanged, so an element gets the same bits as in a
// full tile.
//
// abft:hotpath
// abft:bce checks=8
func edgeTile(mrr, nrr, kb int, ap []float64, sa int, bp []float64, sb int, c []float64, ldc int) {
	var t [kernMR * kernNR]float64
	for j := 0; j < nrr; j++ {
		copy(t[j*kernMR:][:mrr], c[j*ldc:][:mrr])
	}
	kern16x8(kb, ap, sa, bp, sb, t[:], kernMR)
	for j := 0; j < nrr; j++ {
		copy(c[j*ldc:][:mrr], t[j*kernMR:][:mrr])
	}
}

// packA packs rows [i0, i0+mb) and depth [l0, l0+kb) of −A into
// kernMR-row panels: panel p holds dst[p*kb*kernMR + l*kernMR + r] =
// −A[i0+p*kernMR+r, l0+l]. Rows past mb are zero. A is read down each
// column, its whole panels moved as sixteen plain loads and stores (a
// copy call per 128 bytes costs as much as the kernel).
//
// abft:hotpath
// abft:bce checks=11
func packA(a []float64, lda, i0, mb, l0, kb int, dst []float64) {
	whole := mb - mb%kernMR
	for l := 0; l < kb; l++ {
		src := a[i0+(l0+l)*lda:][:mb]
		for ir := 0; ir < whole; ir += kernMR {
			d := (*[kernMR]float64)(dst[ir*kb+l*kernMR:])
			s := (*[kernMR]float64)(src[ir:])
			d[0], d[1], d[2], d[3] = -s[0], -s[1], -s[2], -s[3]
			d[4], d[5], d[6], d[7] = -s[4], -s[5], -s[6], -s[7]
			d[8], d[9], d[10], d[11] = -s[8], -s[9], -s[10], -s[11]
			d[12], d[13], d[14], d[15] = -s[12], -s[13], -s[14], -s[15]
		}
		if whole < mb {
			d := dst[whole*kb+l*kernMR:][:kernMR]
			for r, v := range src[whole:] {
				d[r] = -v
			}
			clear(d[mb-whole:])
		}
	}
}

// packB packs rows [j0, j0+nb) and depth [l0, l0+kb) of −B into
// kernNR-row panels, as packA packs A: panel q holds
// dst[q*kb*kernNR + l*kernNR + r] = −B[j0+q*kernNR+r, l0+l].
//
// abft:hotpath
// abft:bce checks=11
func packB(b []float64, ldb, j0, nb, l0, kb int, dst []float64) {
	whole := nb - nb%kernNR
	for l := 0; l < kb; l++ {
		src := b[j0+(l0+l)*ldb:][:nb]
		for jr := 0; jr < whole; jr += kernNR {
			d := (*[kernNR]float64)(dst[jr*kb+l*kernNR:])
			s := (*[kernNR]float64)(src[jr:])
			d[0], d[1], d[2], d[3] = -s[0], -s[1], -s[2], -s[3]
			d[4], d[5], d[6], d[7] = -s[4], -s[5], -s[6], -s[7]
		}
		if whole < nb {
			d := dst[whole*kb+l*kernNR:][:kernNR]
			for r, v := range src[whole:] {
				d[r] = -v
			}
			clear(d[nb-whole:])
		}
	}
}
