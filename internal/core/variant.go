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

// step is one row of a variant's table: the work one kernel or
// transfer does in iteration j, and what the verification disciplines
// need to know about it. The paper's Table I is these tables plus the
// interpreter's rules (exec.step).
type step struct {
	name string
	// run is the kernel or transfer itself.
	run func(e *exec, j int) error
	// op is the kernel's fault.Op, which the interpreter ticks the
	// injector with for each block in writes (see tickOp); opNone for
	// a transfer.
	op fault.Op
	// guard, when set, says whether the step has work at iteration j
	// with m blocks below the diagonal.
	guard func(j, m int) bool
	// pre and gated are the blocks Enhanced checks right before run
	// reads them: pre every iteration, gated only on the K gate
	// (Optimization 3).
	pre, gated blockSet
	// writes is the set of blocks run writes: each is ticked, and
	// Online checks them right after the step.
	writes blockSet
	// update keeps the checksums of writes current (FT schemes only).
	update func(e *exec, j int)
	// then is a transfer that follows the update and precedes the
	// post-write check (POTF2's factored block returning to the GPU).
	then func(e *exec, j int)
}

// tickOp is the fault.Op the step ticks block blk with: its own,
// except that a SYRK kernel's off-diagonal writes (the right-looking
// trailing update's) are GEMM work.
func (s *step) tickOp(blk [2]int) fault.Op {
	if s.op == fault.OpSYRK && blk[0] != blk[1] {
		return fault.OpGEMM
	}
	return s.op
}

// blockSet appends a set of blocks at iteration j to out.
type blockSet func(e *exec, out [][2]int, j int) [][2]int

// opNone marks a transfer step: it computes nothing, so the injector
// has nothing to tick.
const opNone fault.Op = -1

// plan is a variant's step table: the steps of iteration j in issue
// order, and the blocks still live at iteration j, which OnlineScrub
// re-checks on the K gate.
type plan struct {
	steps []step
	live  blockSet
}

// belowDiag guards a step that works on the panel below the diagonal.
func belowDiag(j, m int) bool { return m > 0 }

// belowDiagPastFirst guards the left-looking GEMM, which also needs
// factored columns left of the panel.
func belowDiagPastFirst(j, m int) bool { return m > 0 && j > 0 }

// leftLooking is MAGMA's Algorithm 1: SYRK updates the diagonal block,
// GEMM updates the panel below it while POTF2 factors the diagonal
// block on the host, and TRSM solves the panel. SYRK has no guard: at
// j = 0 it writes nothing, but its update still stages the
// iteration's checksum updates.
var leftLooking = plan{
	steps: []step{
		{name: "syrk", run: (*exec).syrk, op: fault.OpSYRK,
			pre: (*exec).rowPanelAndDiag, writes: (*exec).updatedDiag, update: (*exec).updSYRK},
		{name: "d2h", run: (*exec).xferDiagD2H, op: opNone, pre: (*exec).diagBlock},
		{name: "gemm", run: (*exec).gemm, op: fault.OpGEMM, guard: belowDiagPastFirst,
			gated: (*exec).trailingAndPanel, writes: (*exec).panelBlocks, update: (*exec).updGEMM},
		{name: "potf2", run: (*exec).potf2, op: fault.OpPOTF2,
			writes: (*exec).diagBlock, update: (*exec).updPOTF2, then: (*exec).xferDiagH2D},
		{name: "trsm", run: (*exec).trsm, op: fault.OpTRSM, guard: belowDiag,
			pre: (*exec).diagBlock, gated: (*exec).panelBlocks, writes: (*exec).panelBlocks, update: (*exec).updTRSM},
	},
	live: (*exec).liveBlocks,
}

// rightLooking is the outer-product form: POTF2 factors the diagonal
// block on the host, TRSM solves the panel, and one update applies
// the panel to the whole trailing submatrix. Enhanced checks the
// solved panel before every trailing update (its errors would
// propagate consistently, like SYRK's inputs in the left-looking
// form) and the trailing blocks only on the K gate (§V-C). A block is
// final once its column is factored, so the live set is the lower
// triangle of A[j:, j:].
var rightLooking = plan{
	steps: []step{
		{name: "d2h", run: (*exec).xferDiagD2H, op: opNone, pre: (*exec).diagBlock},
		{name: "potf2", run: (*exec).potf2, op: fault.OpPOTF2,
			writes: (*exec).diagBlock, update: (*exec).updPOTF2, then: (*exec).xferDiagH2D},
		{name: "trsm", run: (*exec).trsm, op: fault.OpTRSM, guard: belowDiag,
			pre: (*exec).diagBlock, gated: (*exec).panelBlocks, writes: (*exec).panelBlocks, update: (*exec).updTRSMRight},
		{name: "trailing", run: (*exec).trailingUpdate, op: fault.OpSYRK, guard: belowDiag,
			pre: (*exec).panelBlocks, gated: (*exec).trailingBlocks, writes: (*exec).trailingBlocks, update: (*exec).updTrailing},
	},
	live: (*exec).lowerFrom,
}

// plan returns the variant's step table.
func (v Variant) plan() *plan {
	if v == RightLooking {
		return &rightLooking
	}
	return &leftLooking
}

// trailingUpdate performs A[j+1:, j+1:] -= P·Pᵀ with P the factored
// panel column j, over the lower blocks only: block column k gets
// A[k:, k] -= P[k:]·P[k]ᵀ. Each diagonal block gets the full symmetric
// update, so it stays consistent with its column checksums, and
// nothing above it is written. The kernel is charged at SYRK rates
// (hardware only computes the lower half).
func (e *exec) trailingUpdate(j int) error {
	m := e.nb - j - 1
	rows := m * e.b
	e.markPropagationTrailing(j)
	var body func()
	if e.a != nil {
		r0 := (j + 1) * e.b
		body = func() {
			blas.DsyrkBlocksParallel(rows, e.b, e.b, -1,
				e.a.Off(r0, j*e.b), e.a.Stride, // A[j+1:, j]
				e.a.Off(r0, r0), e.a.Stride)
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
	return nil
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

// updTRSMRight is the right-looking TRSM's checksum update: it waits
// for the panel the previous iteration left ready, and records when
// the solved panel is ready for the trailing update's checksums.
func (e *exec) updTRSMRight(j int) {
	e.supd.Wait(e.evPanelReady)
	e.updTRSM(j)
	e.evPanelSolved = e.sc.Record()
}

// updTrailing maintains the trailing blocks' checksums:
// chk(A[i,k]) -= chk(L[i,j])·L[k,j]ᵀ, one slab GEMM per trailing block
// column. The updates read the solved panel's data; with CPU placement
// it crosses the link first.
func (e *exec) updTrailing(j int) {
	m := e.nb - j - 1
	e.supd.Wait(e.evPanelSolved)
	if e.placement == PlaceCPU {
		e.ship(hetsim.DeviceToHost, 8*float64(m)*float64(e.b)*float64(e.b), e.evPanelSolved, e.supd)
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
