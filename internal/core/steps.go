package core

import (
	"fmt"

	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
)

// This file launches every kernel and transfer of Algorithm 1 and its
// checksum bookkeeping. Each kernel method records propagation of any
// pending corruption, then launches the simulated kernel (running the
// real arithmetic body on the real plane). The step tables (variant.go)
// name these methods; the interpreter (driver.go) places the
// verifications around them and gives the injector its chance to fire
// on the blocks each one writes.

// ship copies bytes over the link on the transfer stream once after
// (the producer's event) has fired, and makes every consumer stream
// wait for the copy to land. It is the only caller of Link.Transfer,
// so every transfer names the work it follows and the streams it
// releases.
func (e *exec) ship(dir hetsim.Direction, bytes float64, after hetsim.Event, to ...*hetsim.Stream) {
	done := e.plat.Link.Transfer(e.sx, after, dir, bytes)
	for _, s := range to {
		s.Wait(done)
	}
}

// encode performs the one-time checksum encoding of the input matrix
// (real encode on the real plane, cost-only otherwise); with CPU
// placement the checksum matrix then crosses the link to the host
// (§VI-6a: 2n²/B elements).
func (e *exec) encode() {
	var body func()
	if e.a != nil {
		body = func() { e.chk = checksum.EncodeMatrixMulti(e.a, e.b, e.m) }
	}
	e.plat.GPU.Launch(e.sc, hetsim.Kernel{
		Name:  "chk-encode",
		Class: hetsim.ClassChkRecalc,
		Flops: encodeFlops(e.m, e.n),
		Bytes: 4 * float64(e.n) * float64(e.n),
		Slots: e.bigSlots,
		Body:  body,
	})
	if e.placement == PlaceCPU {
		e.ship(hetsim.DeviceToHost, 8*float64(e.m)*float64(e.n)*float64(e.n)/float64(e.b), e.sc.Record(), e.supd)
	}
}

// syrk updates the diagonal block: A[j,j] -= LC·LCᵀ. The real body
// applies the full symmetric update (not just the lower triangle) so
// the block stays consistent with its column checksums.
func (e *exec) syrk(j int) error {
	k := j * e.b
	if k == 0 {
		return nil
	}
	e.markPropagation(fault.OpSYRK, j)
	var body func()
	if e.a != nil {
		diag := e.block(j, j)
		body = func() {
			blas.DgemmParallel(blas.NoTrans, blas.Trans, e.b, e.b, k,
				-1, e.a.Off(j*e.b, 0), e.a.Stride,
				e.a.Off(j*e.b, 0), e.a.Stride,
				1, diag.Data, diag.Stride)
		}
	}
	e.plat.GPU.Launch(e.sc, hetsim.Kernel{
		Name:  "syrk",
		Index: []int{j},
		Class: hetsim.ClassSYRK,
		Flops: syrkFlops(e.b, k),
		Slots: e.bigSlots,
		Body:  body,
	})
	return nil
}

// gemm updates the panel below the diagonal:
// A[j+1:, j] -= A[j+1:, 0:k]·A[j, 0:k]ᵀ. Its step runs only when
// both the panel and the factored columns left of it are non-empty.
func (e *exec) gemm(j int) error {
	k := j * e.b
	m := e.nb - j - 1
	rows := m * e.b
	e.markPropagation(fault.OpGEMM, j)
	var body func()
	if e.a != nil {
		r0 := (j + 1) * e.b
		body = func() {
			blas.DgemmParallel(blas.NoTrans, blas.Trans, rows, e.b, k,
				-1, e.a.Off(r0, 0), e.a.Stride,
				e.a.Off(j*e.b, 0), e.a.Stride,
				1, e.a.Off(r0, j*e.b), e.a.Stride)
		}
	}
	e.plat.GPU.Launch(e.sc, hetsim.Kernel{
		Name:  "gemm",
		Index: []int{j},
		Class: hetsim.ClassGEMM,
		Flops: gemmFlops(rows, e.b, k),
		Slots: e.bigSlots,
		Body:  body,
	})
	return nil
}

// xferDiagD2H ships the updated diagonal block (plus its checksum row
// for FT schemes) to the host for POTF2.
func (e *exec) xferDiagD2H(j int) error {
	bytes := blockBytes(e.b)
	if e.opts.Scheme.FaultTolerant() {
		bytes += 8 * float64(e.m) * float64(e.b)
	}
	e.ship(hetsim.DeviceToHost, bytes, e.sc.Record(), e.scpu)
	return nil
}

// potf2 factors the diagonal block on the host. On the real plane it
// fails the attempt as FailureFailStop when the block is not positive
// definite — the paper's fail-stop outcome when a large uncorrected
// error reaches the unblocked factorization. On the model plane
// corruption rides through (matching a moderate-magnitude error that
// leaves the block positive definite) but any detectable smear is
// widened: the factorization's row mixing spreads it beyond single-row
// correctability.
func (e *exec) potf2(j int) error {
	var failed error
	var body func()
	if e.a != nil {
		diag := e.block(j, j)
		body = func() {
			if err := blas.Dpotf2(e.b, diag.Data, diag.Stride); err != nil {
				e.failure = FailureFailStop
				failed = fmt.Errorf("core: POTF2 failed (matrix block not positive definite): block %d: %v", j, err)
				return
			}
			diag.LowerFromFull()
		}
	} else {
		pend := e.led.Pending(j, j)
		for i := range pend {
			if in := &pend[i]; in.Detectable() && in.EffectiveWidth() < 2 {
				in.Width = 2
				in.Row = -1 // row mixing: positions no longer known
			}
		}
	}
	e.plat.CPU.Launch(e.scpu, hetsim.Kernel{
		Name:  "potf2",
		Index: []int{j},
		Class: hetsim.ClassPOTF2,
		Flops: potf2Flops(e.b),
		Slots: 1,
		Body:  body,
	})
	if failed != nil {
		e.failstop++
	}
	return failed
}

// xferDiagH2D returns the factored block (and checksum row) to the GPU
// and releases the TRSM and its checksum update (the same stream when
// updates run inline or the scheme keeps no checksums).
func (e *exec) xferDiagH2D(j int) {
	bytes := blockBytes(e.b)
	if e.opts.Scheme.FaultTolerant() {
		bytes += 8 * float64(e.m) * float64(e.b)
	}
	e.ship(hetsim.HostToDevice, bytes, e.scpu.Record(), e.sc, e.supd)
}

// trsm solves the panel: A[j+1:, j] = A[j+1:, j]·L[j,j]⁻ᵀ. Its step
// runs only when the panel is non-empty.
func (e *exec) trsm(j int) error {
	m := e.nb - j - 1
	rows := m * e.b
	e.markPropagation(fault.OpTRSM, j)
	var body func()
	if e.a != nil {
		diag := e.block(j, j)
		r0 := (j + 1) * e.b
		body = func() {
			blas.DtrsmParallel(blas.Right, blas.Trans, rows, e.b, 1,
				diag.Data, diag.Stride,
				e.a.Off(r0, j*e.b), e.a.Stride)
		}
	}
	e.plat.GPU.Launch(e.sc, hetsim.Kernel{
		Name:  "trsm",
		Index: []int{j},
		Class: hetsim.ClassTRSM,
		Flops: trsmFlops(rows, e.b),
		Slots: e.bigSlots,
		Body:  body,
	})
	return nil
}

// ---- checksum updating (§IV-B), placed per Optimization 2 ----------

// updDevice returns the device the update stream belongs to.
func (e *exec) updDevice() *hetsim.Device {
	if e.placement == PlaceCPU {
		return e.plat.CPU
	}
	return e.plat.GPU
}

// updSYRK maintains chk(A[j,j]) -= chk(LC)·LCᵀ (Fig. 4). It first
// stages the iteration's checksum updates: the update stream must see
// the factored panel (ready since the previous iteration's TRSM), and
// with CPU placement the panel data crosses the link first (§VI-6b:
// n²/2 elements over the run).
func (e *exec) updSYRK(j int) {
	e.supd.Wait(e.evPanelReady)
	k := j * e.b
	if k == 0 {
		return
	}
	if e.placement == PlaceCPU {
		e.ship(hetsim.DeviceToHost, 8*float64(e.b)*float64(k), e.evPanelReady, e.supd)
	}
	var body func()
	if e.a != nil {
		body = func() {
			checksum.UpdateRankK(e.chkView(j, j), e.chk.View(e.m*j, 0, e.m, k), e.a.View(j*e.b, 0, e.b, k))
		}
	}
	e.updDevice().Launch(e.supd, hetsim.Kernel{
		Name:  "chkupd-syrk",
		Index: []int{j},
		Class: hetsim.ClassChkUpdate,
		Flops: chkUpdateRankKFlops(e.m, e.b, k),
		Slots: 1,
		Body:  body,
	})
}

// updGEMM maintains chk(A[i,j]) -= chk(LD_i)·LCᵀ for every panel row
// in one slab call (Fig. 5).
func (e *exec) updGEMM(j int) {
	k := j * e.b
	m := e.nb - j - 1
	var body func()
	if e.a != nil {
		body = func() {
			checksum.UpdateRankK(
				e.chk.View(e.m*(j+1), j*e.b, e.m*m, e.b),
				e.chk.View(e.m*(j+1), 0, e.m*m, k),
				e.a.View(j*e.b, 0, e.b, k))
		}
	}
	e.updDevice().Launch(e.supd, hetsim.Kernel{
		Name:  "chkupd-gemm",
		Index: []int{j},
		Class: hetsim.ClassChkUpdate,
		Flops: chkUpdateRankKFlops(e.m*m, e.b, k),
		Slots: 1,
		Body:  body,
	})
}

// updPOTF2 runs Algorithm 2 on the host alongside the block it just
// factored; the transformed checksum returns to the GPU with the block.
func (e *exec) updPOTF2(j int) {
	var body func()
	if e.a != nil {
		body = func() {
			checksum.UpdatePOTF2(e.chkView(j, j), e.block(j, j))
		}
	}
	e.plat.CPU.Launch(e.scpu, hetsim.Kernel{
		Name:  "chkupd-potf2",
		Index: []int{j},
		Class: hetsim.ClassChkUpdate,
		Flops: chkUpdatePotf2Flops(e.m, e.b),
		Slots: 1,
		Body:  body,
	})
}

// updTRSM maintains chk(LB) = chk(B')·L⁻ᵀ for the whole panel slab
// (Fig. 7).
func (e *exec) updTRSM(j int) {
	m := e.nb - j - 1
	var body func()
	if e.a != nil {
		body = func() {
			checksum.UpdateTRSM(e.chk.View(e.m*(j+1), j*e.b, e.m*m, e.b), e.block(j, j))
		}
	}
	e.updDevice().Launch(e.supd, hetsim.Kernel{
		Name:  "chkupd-trsm",
		Index: []int{j},
		Class: hetsim.ClassChkUpdate,
		Flops: chkUpdateTrsmFlops(e.m*m, e.b),
		Slots: 1,
		Body:  body,
	})
}

// ---- block sets -------------------------------------------------
//
// The step tables name a step's read and write sets as these methods.
// Each appends the blocks of its set at iteration j to out, so the
// interpreter builds every list in one buffer the exec reuses.

// diagBlock lists the diagonal block (j, j).
func (e *exec) diagBlock(out [][2]int, j int) [][2]int {
	return append(out, [2]int{j, j})
}

// updatedDiag lists the diagonal block the left-looking SYRK writes:
// (j, j), or nothing at j = 0, where there is no LC row to apply.
func (e *exec) updatedDiag(out [][2]int, j int) [][2]int {
	if j == 0 {
		return out
	}
	return append(out, [2]int{j, j})
}

// rowPanelAndDiag lists the SYRK inputs at iteration j: the factored
// row panel LC = (j, 0..j-1) and the diagonal block (j, j).
func (e *exec) rowPanelAndDiag(out [][2]int, j int) [][2]int {
	for k := 0; k < j; k++ {
		out = append(out, [2]int{j, k})
	}
	return append(out, [2]int{j, j})
}

// trailingAndPanel lists the GEMM inputs at iteration j beyond the row
// panel: the trailing slab LD = (i, 0..j-1) for i > j and the panel
// blocks B = (i, j).
func (e *exec) trailingAndPanel(out [][2]int, j int) [][2]int {
	for i := j + 1; i < e.nb; i++ {
		for k := 0; k < j; k++ {
			out = append(out, [2]int{i, k})
		}
		out = append(out, [2]int{i, j})
	}
	return out
}

// panelBlocks lists the blocks of panel column j below the diagonal.
func (e *exec) panelBlocks(out [][2]int, j int) [][2]int {
	for i := j + 1; i < e.nb; i++ {
		out = append(out, [2]int{i, j})
	}
	return out
}

// lowerFrom lists the lower triangle of A[j:, j:] column by column,
// diagonal block first: the whole lower triangle at j = 0, and the
// right-looking trailing submatrix as lowerFrom(j+1).
func (e *exec) lowerFrom(out [][2]int, j int) [][2]int {
	for k := j; k < e.nb; k++ {
		for i := k; i < e.nb; i++ {
			out = append(out, [2]int{i, k})
		}
	}
	return out
}

// trailingBlocks lists the lower blocks of the trailing submatrix
// A[j+1:, j+1:].
func (e *exec) trailingBlocks(out [][2]int, j int) [][2]int {
	return e.lowerFrom(out, j+1)
}

// liveBlocks lists every block a left-looking scrub at iteration j
// must cover: the factored region that will still be read (blocks
// (i, k), k < j <= i) plus the untouched trailing region (i, k),
// j <= k <= i.
func (e *exec) liveBlocks(out [][2]int, j int) [][2]int {
	for k := 0; k < e.nb; k++ {
		for i := max(j, k); i < e.nb; i++ {
			out = append(out, [2]int{i, k})
		}
	}
	return out
}
