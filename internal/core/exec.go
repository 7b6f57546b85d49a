package core

import (
	"fmt"
	"slices"
	"sync"

	"abftchol/internal/checksum"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// exec carries the state of one factorization: the simulated platform
// and streams, the (optional) real data, the checksum matrix, and the
// fault bookkeeping. One exec serves all schemes; the driver decides
// which steps to invoke.
type exec struct {
	opts      Options
	plat      *hetsim.Platform
	n, b, nb  int
	m         int // checksum vectors per block (2 in the paper)
	bigSlots  int // slot occupancy of BLAS-3 kernels (leaves headroom for overlap)
	placement Placement

	inj *fault.Injector
	led *fault.Ledger

	// Real plane (nil in model plane): a is the working matrix ("GPU
	// memory"), chk the m·nb x n checksum matrix, scratch an m x B
	// recalculation buffer. checksum.VerifyAndCorrect reads m from the
	// shapes of chk's views, so one verifier serves every m.
	a       *mat.Matrix
	chk     *mat.Matrix
	scratch *mat.Matrix

	// Streams: sc = GPU compute, sx = transfer queue, scpu = host
	// queue (POTF2 + Algorithm 2), supd = checksum updates (GPU or
	// CPU device per placement; == sc when inline), sver = the
	// Optimization 1 fan-out for checksum recalculation.
	sc   *hetsim.Stream
	sx   *hetsim.Stream
	scpu *hetsim.Stream
	supd *hetsim.Stream
	sver []*hetsim.Stream

	trace *hetsim.Trace

	// The iteration's stream events: evPanelReady is the compute
	// stream at the top of the iteration (the previous panel is
	// solved), evPanelSolved the right-looking TRSM's finished panel.
	evPanelReady, evPanelSolved hetsim.Event

	// tap, when set, sees each kernel tick (one block) and each
	// verification batch (op opNone) in issue order; the step-table
	// tests record through it.
	tap func(op fault.Op, blocks [][2]int)

	// Reused per-call storage: the block list the interpreter builds
	// and the model-plane verifyOne's row tallies.
	blocks    [][2]int
	smearRows []int
	singles   [][2]int // distinct (col, row) of single-element damage

	verified      int
	verifyBatches int
	corrected     int
	failstop      int
	failure       Failure // class of this attempt's failure, if it failed
}

// execPool recycles executors between runs, so a model-plane trial —
// the unit a reliability campaign runs thousands of — reuses the
// platform, its streams, the ledger's block grid and the injector
// instead of building them again.
var execPool = sync.Pool{
	New: func() any {
		led := fault.NewLedger()
		return &exec{plat: hetsim.NewPlatform(hetsim.Profile{}), led: led, inj: fault.NewInjector(led)}
	},
}

// newExec returns a pooled executor prepared for a run under o; the
// run hands it back with release.
func newExec(o *Options, nb int) *exec {
	e := execPool.Get().(*exec)
	e.prepare(o, nb)
	return e
}

// prepare puts e in the state a run under o starts from. Everything a
// run reads is set here or was emptied by release; what e keeps from
// earlier runs is storage only: the platform's slot lists and streams,
// the ledger's grid, the injector's flags and the block lists.
func (e *exec) prepare(o *Options, nb int) {
	prof := o.Profile
	if o.Scheme == SchemeCULA {
		// CULA R18's dpotrf trails MAGMA's: model it as the same
		// algorithm at reduced BLAS-3 efficiency.
		for _, c := range []hetsim.Class{hetsim.ClassGEMM, hetsim.ClassSYRK, hetsim.ClassTRSM} {
			prof.GPU.EffMax[c] *= prof.CULARelEff
		}
	}
	e.plat.Reset(prof)
	*e = exec{
		opts: *o,
		plat: e.plat,
		n:    o.N,
		b:    o.BlockSize,
		nb:   nb,
		m:    o.ChecksumVectors,
		led:  e.led,
		inj:  e.inj,

		sver:      e.sver[:0],
		blocks:    e.blocks[:0],
		smearRows: e.smearRows[:0],
		singles:   e.singles[:0],
	}
	// BLAS-3 kernels saturate the device. On GPUs with deep hardware
	// concurrency (Kepler Hyper-Q) a one-slot headroom lets the small
	// checksum-update kernels of Optimization 2 timeshare with them;
	// on shallow-queue devices (Fermi) nothing co-runs with a GEMM,
	// which is why the decision model sends updates to the CPU there.
	e.bigSlots = prof.GPU.ConcurrentKernels
	if e.bigSlots >= 4 {
		e.bigSlots--
	}
	e.attachObservability()
	e.sc = e.plat.GPUStream()
	e.sx = e.plat.GPUStream()
	e.scpu = e.plat.CPUStream()

	e.placement = o.Placement
	if !o.Scheme.FaultTolerant() {
		e.placement = PlaceInline // irrelevant; nothing to place
	} else if e.placement == PlaceAuto {
		e.placement = DecideUpdatePlacement(o.Profile, e.n, e.b, o.K)
	}
	switch e.placement {
	case PlaceCPU:
		e.supd = e.plat.CPUStream()
	case PlaceGPU:
		e.supd = e.plat.GPUStream()
	default: // PlaceInline
		e.supd = e.sc
	}

	if o.ConcurrentRecalc {
		for i := 0; i < prof.GPU.ConcurrentKernels; i++ {
			e.sver = append(e.sver, e.plat.GPUStream())
		}
	} else {
		e.sver = append(e.sver, e.sc)
	}

	e.inj.Arm(o.Scenarios...)
	if o.Data != nil {
		e.a = mat.NewStride(e.n, e.n, workingStride(e.n))
		e.load()
		e.scratch = mat.New(e.m, e.b)
		e.inj.Applier = e
	}
}

// release returns e to the pool once its Result is assembled. It
// first drops every reference to the caller's data — the options (and
// with them Data, Metrics and Scenarios), the working copy that became
// Result.L, the checksums, the ledger history that became
// Result.Injections, and the trace and metrics observer the platform
// holds — and the scratch block prepare makes anew, so the pool holds
// only storage the next run reuses and a Result shares no storage
// with a pooled exec.
func (e *exec) release() {
	e.plat.Reset(hetsim.Profile{})
	e.led.Reuse()
	e.inj.Arm()
	e.inj.Applier = nil
	e.opts, e.a, e.chk, e.scratch, e.trace = Options{}, nil, nil, nil, nil
	execPool.Put(e)
}

// workingStride is the leading dimension of the real plane's working
// copy: the least odd multiple of 8 that is at least n. Each column is
// then a whole number of 64-byte lines, and an odd number of them, so
// the depth steps of an operand the GEMM reads in place (one column
// apart) walk every L1 set. At a tight power-of-two stride such as 512
// they all map to one set and evict each other.
func workingStride(n int) int {
	ld := (n + 7) &^ 7
	if ld/8%2 == 0 {
		ld += 8
	}
	return ld
}

// load copies the input's lower block triangle into the working copy,
// each diagonal block whole, so every block keeps the encoding it had.
// No step of either variant writes above the diagonal blocks, and
// Options rejects a fault there, so the copy's upper blocks stay as
// mat.NewStride left them: zero.
func (e *exec) load() {
	for j := 0; j < e.n; j++ {
		r0 := j - j%e.b // the first row of column j's diagonal block
		copy(e.a.Col(j)[r0:], e.opts.Data.Col(j)[r0:])
	}
}

// reset restores the pristine input for a restart after an
// unrecoverable error: the host serializes the machine, reloads the
// data, and (for FT schemes) re-encodes. Injected scenarios stay
// fired — the paper's experiments inject each error once, so the redo
// runs clean.
func (e *exec) reset() {
	t := e.plat.Sync()
	e.trace.Mark("restart", t)
	e.plat.AlignAll(t)
	if e.a != nil {
		e.load()
	}
	e.led.Reset()
	e.failure = FailureNone
}

// Corrupt implements fault.Applier on the real plane.
func (e *exec) Corrupt(bi, bj, row, col int, delta float64, bit int) float64 {
	blk := e.block(bi, bj)
	old := blk.At(row, col)
	nv := old + delta
	if delta == 0 {
		nv = fault.FlipBit(old, bit)
	}
	blk.Set(row, col, nv)
	return nv - old
}

// block returns the real view of block (bi, bj); real plane only.
func (e *exec) block(bi, bj int) *mat.Matrix {
	return e.a.View(bi*e.b, bj*e.b, e.b, e.b)
}

// chkView returns the stored m x B checksum of block (bi, bj).
func (e *exec) chkView(bi, bj int) *mat.Matrix {
	return e.chk.View(e.m*bi, bj*e.b, e.m, e.b)
}

// ---- fault propagation bookkeeping -------------------------------

// markPropagation records, before an update kernel runs, how pending
// corruption in its inputs pollutes its outputs. The flags follow
// §III's analysis, confirmed by the real-arithmetic plane:
//
//   - When the corrupt block's *data* feeds both the update kernel and
//     the checksum update (the LC row panel in SYRK/GEMM, the L factor
//     in TRSM), data and checksums go wrong in lockstep: the damage is
//     checksum-consistent and no verification can see it. (For SYRK
//     the cross term E·LCᵀ is detectable and verification "repairs"
//     it, but the symmetric term LC·Eᵀ it cannot distinguish stays —
//     the net effect is consistent corruption either way.)
//   - When only the block's *stored checksums* feed the update (the
//     LD slab in GEMM), the output's checksums keep tracking the
//     correct result: the mismatch is detectable, and repairable
//     exactly when the smear spans a single row (one wrong element
//     per column, the capability of two checksum vectors).
func (e *exec) markPropagation(op fault.Op, j int) {
	if !e.led.AnyCorrupt() {
		return
	}
	switch op {
	case fault.OpSYRK:
		for k := 0; k < j; k++ {
			if e.led.IsCorrupt(j, k) {
				e.led.Propagate(j, k, j, j, j, true, e.led.PendingWidth(j, k), -1)
			}
		}
	case fault.OpGEMM:
		for k := 0; k < j; k++ {
			lcBad := e.led.IsCorrupt(j, k)
			for i := j + 1; i < e.nb; i++ {
				// An LD block's *stored checksums* feed the update, so
				// only its checksum-visible damage propagates visibly;
				// checksum-consistent damage yields checksum-consistent
				// output damage (the checksums track the corrupt data).
				// Damage D = E·LCᵀ lives in exactly the rows E damages,
				// so the smear inherits the source's row profile.
				rows, unknown := e.led.DetectableProfile(i, k)
				if len(rows) == 1 && unknown == 0 {
					e.led.Propagate(i, k, i, j, j, false, 1, rows[0])
				} else if len(rows)+unknown > 0 {
					e.led.Propagate(i, k, i, j, j, false, len(rows)+unknown, -1)
				}
				if w := e.led.ConsistentWidth(i, k); w > 0 {
					e.led.Propagate(i, k, i, j, j, true, w, -1)
				}
				if lcBad {
					e.led.Propagate(j, k, i, j, j, true, e.led.PendingWidth(j, k), -1)
				}
			}
		}
	case fault.OpTRSM:
		if e.led.IsCorrupt(j, j) {
			for i := j + 1; i < e.nb; i++ {
				e.led.Propagate(j, j, i, j, j, true, e.led.PendingWidth(j, j), -1)
			}
		}
	}
}

// ---- verification -------------------------------------------------

// uncorrectable fails the attempt when verification finds corruption
// in block (bi, bj) the m-vector checksum code cannot repair; the
// driver restarts.
func (e *exec) uncorrectable(bi, bj int, cause error) error {
	e.failure = FailureUncorrectable
	return fmt.Errorf("core: block (%d,%d) corrupted beyond checksum correction: %v", bi, bj, cause)
}

// verifyBlocks runs one pre-/post-operation verification batch over
// the given blocks: a checksum-recalculation kernel per block (fanned
// over the Optimization 1 streams when enabled), a compare, and any
// needed corrections. It fails the attempt as FailureUncorrectable
// when a block cannot be repaired.
func (e *exec) verifyBlocks(blocks [][2]int) error {
	if len(blocks) == 0 {
		return nil
	}
	e.verifyBatches++
	if e.tap != nil {
		e.tap(opNone, blocks)
	}
	if e.opts.Metrics != nil {
		e.opts.Metrics.Observe("verify.batch_blocks", float64(len(blocks)))
	}
	// The recalculations read data (compute stream) and stored
	// checksums (update stream); both must be current.
	evData := e.sc.Record()
	evChk := e.supd.Record()
	for _, s := range e.sver {
		s.Wait(evData)
		s.Wait(evChk)
	}
	var firstErr error
	for idx, blk := range blocks {
		bi, bj := blk[0], blk[1]
		s := e.sver[idx%len(e.sver)]
		e.plat.GPU.Launch(s, hetsim.Kernel{
			Name:  "chk-recalc",
			Class: hetsim.ClassChkRecalc,
			Flops: recalcFlops(e.m, e.b),
			Bytes: recalcBytes(e.b),
			Slots: 1,
		})
		e.verified++
		if err := e.verifyOne(bi, bj); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The compute stream joins every recalculation. With CPU-resident
	// checksums the recalculated rows then cross the link for
	// comparison: m x B doubles per block, batched per operation
	// (§VI-6c: n³/(3KB²) elements over the whole run).
	for _, s := range e.sver {
		e.sc.Wait(s.Record())
	}
	if e.placement == PlaceCPU {
		e.ship(hetsim.DeviceToHost, 8*float64(e.m)*float64(e.b)*float64(len(blocks)), e.sc.Record(), e.sc)
	}
	// The host must see the comparison outcome before it may issue the
	// guarded operation: one device round trip per batch. This is the
	// O(1/n) overhead component — per batch, not per block — that
	// makes the relative overhead fall toward its constant (§VI-7).
	e.sc.WaitTime(e.sc.Done() + e.opts.Profile.VerifyBatchSync)
	return firstErr
}

// verifyOne performs the logical verification of one block: real
// checksum arithmetic on the real plane, ledger resolution on the
// model plane.
func (e *exec) verifyOne(bi, bj int) error {
	if e.a != nil {
		corrs, err := checksum.VerifyAndCorrect(e.block(bi, bj), e.chkView(bi, bj), e.scratch)
		// Mirror into the ledger: detectable marks are now resolved.
		e.clearDetectable(bi, bj)
		if err != nil {
			// A block that fails counts no corrections, as on the
			// model plane: the restart redoes its work.
			return e.uncorrectable(bi, bj, err)
		}
		e.corrected += len(corrs)
		return nil
	}
	// Model plane: resolve pending injections. m checksum vectors
	// repair up to m/2 wrong elements per block column, so the load on
	// each column is what decides repairability: a width-w smear puts
	// w errors in every column it touches, and single-element
	// injections sharing a column add up.
	pend := e.led.Pending(bi, bj)
	if len(pend) == 0 {
		return nil
	}
	// The per-column load is the number of distinct damaged *rows* a
	// column sees: smears cover every column in their rows, singles
	// only their own column, and damage sharing a row stacks into the
	// same element (still one error per column). Checksum-invisible
	// damage stays pending: keep filters pend in place.
	keep := pend[:0]
	smearRows, singles := e.smearRows[:0], e.singles[:0]
	unknownRows, detected := 0, 0
	for _, in := range pend {
		if !in.Detectable() {
			keep = append(keep, in)
			continue
		}
		detected++
		switch {
		case in.Kind == fault.Propagated && in.EffectiveWidth() == 1 && in.Row >= 0:
			if !slices.Contains(smearRows, in.Row) {
				smearRows = append(smearRows, in.Row)
			}
		case in.Kind == fault.Propagated:
			unknownRows += in.EffectiveWidth()
		default:
			if p := [2]int{in.Col, in.Row}; !slices.Contains(singles, p) {
				singles = append(singles, p)
			}
		}
	}
	e.smearRows, e.singles = smearRows, singles
	e.led.SetPending(bi, bj, keep)
	if detected == 0 {
		return nil
	}
	worst := len(smearRows) + unknownRows
	for i, p := range singles {
		if slices.ContainsFunc(singles[:i], func(q [2]int) bool { return q[0] == p[0] }) {
			continue // column already tallied
		}
		load := len(smearRows) + unknownRows
		for _, q := range singles[i:] {
			if q[0] == p[0] && !slices.Contains(smearRows, q[1]) {
				load++
			}
		}
		worst = max(worst, load)
	}
	if worst > e.m/2 {
		return e.uncorrectable(bi, bj, fmt.Errorf("%d errors in one block column exceed the %d-vector code", worst, e.m))
	}
	e.corrected += detected
	return nil
}

// clearDetectable removes checksum-visible marks from a block's
// pending set after a real-plane verification handled them.
func (e *exec) clearDetectable(bi, bj int) {
	pend := e.led.Pending(bi, bj)
	keep := pend[:0]
	for _, in := range pend {
		if !in.Detectable() {
			keep = append(keep, in)
		}
	}
	e.led.SetPending(bi, bj, keep)
}
