package core

import (
	"fmt"

	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
)

// Variant selects the blocked Cholesky formulation.
type Variant int

const (
	// LeftLooking is MAGMA's inner-product form (Algorithm 1), the one
	// the paper builds on: each block is written once, during its own
	// panel's iteration, and read O(n/B) times afterwards.
	LeftLooking Variant = iota
	// RightLooking is the outer-product form FT-ScaLAPACK protects:
	// the whole trailing submatrix is updated every iteration, so each
	// block is written O(n/B) times and read O(1) times. The paper
	// chose the inner-product form because it has more BLAS-3 work per
	// byte; this ablation also shows the fault-tolerance consequence —
	// pre-read verification must re-verify the whole trailing
	// submatrix every iteration, which is asymptotically more
	// expensive than the left-looking discipline.
	RightLooking
)

func (v Variant) String() string {
	switch v {
	case LeftLooking:
		return "left-looking"
	case RightLooking:
		return "right-looking"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// runOnceRight is the right-looking counterpart of runOnce. Per
// iteration j:
//
//	POTF2(j,j) on the host; TRSM of panel column j on the GPU;
//	trailing update A[j+1:, j+1:] -= L[j+1:, j]·L[j+1:, j]ᵀ on the GPU.
//
// The verification disciplines translate as: Online verifies each
// block right after it is written (diagonal after POTF2, panel after
// TRSM, the whole trailing submatrix after the update); Enhanced
// verifies right before reads (diagonal before POTF2, panel and L
// before TRSM, panel plus the whole trailing submatrix before the
// update, gated by K where §V-C allows).
//
// abft:protocol driver steps=potf2,trsm,trailingUpdate
func (e *exec) runOnceRight() error {
	sch := e.opts.Scheme
	ft := sch.FaultTolerant()
	if ft {
		e.encode()
	}
	for j := 0; j < e.nb; j++ {
		e.markIteration(j)
		e.inj.StorageTick(j)
		evPanelReady := e.sc.Record()
		m := e.nb - j - 1
		gate := j%e.opts.K == 0

		// --- single-block factorization (POTF2) ---
		if sch == SchemeEnhanced {
			if err := e.verifyBlocks(e.diagBlock(j)); err != nil {
				return err
			}
		}
		e.xferDiagD2H(j)
		if err := e.potf2(j); err != nil {
			return err
		}
		if ft {
			e.updPOTF2(j)
		}
		e.xferDiagH2D(j)
		if sch == SchemeOnline {
			if err := e.verifyBlocks(e.diagBlock(j)); err != nil {
				return err
			}
		}

		if m == 0 {
			break
		}

		// --- panel solve (TRSM) ---
		if sch == SchemeEnhanced {
			blocks := e.diagBlock(j)
			if gate {
				blocks = e.panelBlocks(blocks, j)
			}
			if err := e.verifyBlocks(blocks); err != nil {
				return err
			}
		}
		e.trsm(j)
		if ft {
			e.supd.Wait(evPanelReady)
			e.updTRSM(j)
		}
		evPanelSolved := e.sc.Record()
		if sch == SchemeOnline {
			if err := e.verifyBlocks(e.panelBlocks(e.blocks[:0], j)); err != nil {
				return err
			}
		}

		// --- trailing update (SYRK over the whole remainder) ---
		if sch == SchemeEnhanced {
			// The update both reads and writes every trailing block
			// and reads the freshly solved panel: verify all of it
			// (panel ungated — its errors would propagate consistently
			// like SYRK's inputs in the left-looking form).
			blocks := e.panelBlocks(e.blocks[:0], j)
			if gate {
				blocks = e.trailingBlocks(blocks, j)
			}
			if err := e.verifyBlocks(blocks); err != nil {
				return err
			}
		}
		e.trailingUpdate(j)
		if ft {
			// The checksum updates read the solved panel's data; with
			// CPU placement it crosses the link first.
			e.supd.Wait(evPanelSolved)
			if e.placement == PlaceCPU {
				e.sx.Wait(evPanelSolved)
				e.plat.Link.Transfer(e.sx, hetsim.DeviceToHost, 8*float64(m)*float64(e.b)*float64(e.b))
				e.supd.Wait(e.sx.Record())
			}
			e.updTrailing(j)
		}
		if sch == SchemeOnline {
			if err := e.verifyBlocks(e.trailingBlocks(e.blocks[:0], j)); err != nil {
				return err
			}
		}
	}
	return nil
}

// trailingBlocks appends the lower blocks of the trailing submatrix
// A[j+1:, j+1:] to out (e.blocks[:0] for a list of its own).
func (e *exec) trailingBlocks(out [][2]int, j int) [][2]int {
	for k := j + 1; k < e.nb; k++ {
		for i := k; i < e.nb; i++ {
			out = append(out, [2]int{i, k})
		}
	}
	return e.listed(out)
}

// trailingUpdate performs A[j+1:, j+1:] -= P·Pᵀ with P the factored
// panel column j. The real body applies the full symmetric update so
// diagonal blocks stay consistent with their column checksums; the
// kernel is charged at SYRK rates (hardware only computes the lower
// half).
func (e *exec) trailingUpdate(j int) {
	m := e.nb - j - 1
	if m == 0 {
		return
	}
	rows := m * e.b
	e.markPropagationTrailing(j)
	var body func()
	if e.a != nil {
		r0 := (j + 1) * e.b
		panel := e.a.Off(r0, j*e.b) // A[j+1:, j]
		body = func() {
			blas.DgemmParallel(blas.NoTrans, blas.Trans, rows, rows, e.b,
				-1, panel, e.a.Stride,
				panel, e.a.Stride,
				1, e.a.Off(r0, r0), e.a.Stride)
		}
	}
	e.plat.GPU.Launch(e.sc, hetsim.Kernel{
		Name:  "trailing",
		Index: []int{j},
		Class: hetsim.ClassSYRK,
		Flops: float64(rows) * float64(rows) * float64(e.b),
		Slots: e.bigSlots,
		Body:  body,
	})
	for k := j + 1; k < e.nb; k++ {
		e.inj.KernelTick(fault.OpSYRK, j, k, k)
		for i := k + 1; i < e.nb; i++ {
			e.inj.KernelTick(fault.OpGEMM, j, i, k)
		}
	}
}

// markPropagationTrailing: the trailing update reads panel blocks
// L(i, j) whose *data* feeds both the kernel and the checksum update,
// so their corruption propagates checksum-consistently into every
// trailing block their row or column touches.
func (e *exec) markPropagationTrailing(j int) {
	if !e.led.AnyCorrupt() {
		return
	}
	for i := j + 1; i < e.nb; i++ {
		if !e.led.IsCorrupt(i, j) {
			continue
		}
		w := e.led.PendingWidth(i, j)
		// L(i,j) pollutes trailing row-block i and column-block i.
		for k := j + 1; k <= i; k++ {
			e.led.Propagate(i, j, i, k, j, true, w, -1)
		}
		for r := i; r < e.nb; r++ {
			e.led.Propagate(i, j, r, i, j, true, w, -1)
		}
	}
}

// updTrailing maintains the trailing blocks' checksums:
// chk(A[i,k]) -= chk(L[i,j])·L[k,j]ᵀ, one slab GEMM per trailing block
// column.
func (e *exec) updTrailing(j int) {
	m := e.nb - j - 1
	if m == 0 {
		return
	}
	for k := j + 1; k < e.nb; k++ {
		rows := e.nb - k
		var body func()
		if e.a != nil {
			k := k // capture
			body = func() {
				checksum.UpdateRankK(
					e.chk.View(e.m*k, k*e.b, e.m*rows, e.b),
					e.chk.View(e.m*k, j*e.b, e.m*rows, e.b),
					e.block(k, j))
			}
		}
		e.updDevice().Launch(e.supd, hetsim.Kernel{
			Name:  "chkupd-trailing",
			Index: []int{j, k},
			Class: hetsim.ClassChkUpdate,
			Flops: chkUpdateRankKFlops(e.m*rows, e.b, e.b),
			Slots: 1,
			Body:  body,
		})
	}
}
