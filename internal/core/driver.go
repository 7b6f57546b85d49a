package core

import "fmt"

// Run executes one (possibly fault-injected) Cholesky factorization
// under the configured scheme and returns its simulated timing and
// fault-tolerance accounting. On the real plane (Options.Data set) the
// returned Result.L holds the computed factor.
//
// Recovery follows the paper: errors the scheme can correct are
// repaired in place and the run continues; anything else — a
// propagated smear found by verification, a POTF2 fail-stop, or a
// rejected final result — restarts the whole factorization from the
// pristine input, up to Options.MaxAttempts times.
func Run(o Options) (Result, error) {
	nb, err := o.normalize()
	if err != nil {
		return Result{}, err
	}
	e := newExec(&o, nb)

	var runErr error
	attempts := 0
	for attempts < o.MaxAttempts {
		attempts++
		runErr = e.runOnce(o.Variant.plan())
		if runErr == nil {
			runErr = e.finalCheck()
		}
		if runErr == nil {
			break
		}
		if attempts < o.MaxAttempts {
			e.reset()
		}
	}

	t := e.plat.Sync()
	res := Result{
		Scheme:         o.Scheme,
		Variant:        o.Variant,
		N:              o.N,
		B:              o.BlockSize,
		K:              o.K,
		Placement:      e.placement,
		Time:           t,
		Attempts:       attempts,
		Corrections:    e.corrected,
		VerifiedBlocks: e.verified,
		FailStop:       e.failstop,
		Failure:        e.failure,
		GPUStats:       e.plat.GPU.Stats(),
		CPUStats:       e.plat.CPU.Stats(),
		Trace:          e.trace,
		DataBytes:      8 * float64(o.N) * float64(o.N),
	}
	if o.Scheme.FaultTolerant() {
		res.ChecksumBytes = 8 * float64(o.ChecksumVectors) * float64(o.N) * float64(o.N) / float64(o.BlockSize)
	}
	if t > 0 {
		res.GFLOPS = choleskyFlops(o.N) / t / 1e9
	}
	res.Injections = e.led.History()
	res.PropagationEvents = e.led.Propagations()
	if e.a != nil && runErr == nil {
		// The working copy is the run's own and nothing reads it after
		// this point, so it becomes the factor without another copy.
		// Its upper blocks are still zero (exec.load); POTF2 cleared each
		// diagonal block's upper triangle, which a fault may have hit
		// since.
		res.L = e.a
		for k := 0; k < nb; k++ {
			e.block(k, k).LowerFromFull()
		}
	}
	e.finalizeMetrics(&res)
	e.release()
	if runErr != nil {
		return res, fmt.Errorf("core: %s failed after %d attempts: %w", o.Scheme, attempts, runErr)
	}
	return res, nil
}

// runOnce performs one full pass of the variant's factorization, one
// table step at a time, with the scheme's verification discipline
// placed around each step by exec.step:
//
//	Offline:     encode; update checksums; verify nothing until the end.
//	Online:      encode; update; verify the blocks each step wrote right
//	             after it.
//	OnlineScrub: Online, plus a re-check of every live block on the K
//	             gate, catching storage errors that struck since the
//	             last scrub.
//	Enhanced:    encode; update; verify the blocks each step reads right
//	             before it (the K-gated ones only on the gate, Opt 3).
func (e *exec) runOnce(p *plan) error {
	if e.opts.Scheme.FaultTolerant() {
		e.encode()
	}
	for j := 0; j < e.nb; j++ {
		e.markIteration(j)
		e.inj.StorageTick(j)
		e.evPanelReady = e.sc.Record()
		m := e.nb - j - 1
		gate := j%e.opts.K == 0 // Optimization 3
		if e.opts.Scheme == SchemeOnlineScrub && gate && j > 0 {
			e.blocks = p.live(e, e.blocks[:0], j)
			if err := e.verifyBlocks(e.blocks); err != nil {
				return err
			}
		}
		for i := range p.steps {
			if s := &p.steps[i]; s.guard == nil || s.guard(j, m) {
				if err := e.step(s, j, gate); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// step runs one table step of iteration j under the scheme's rules:
// Enhanced checks the step's reads before it; the step runs and the
// injector may strike each block it wrote; FT schemes update those
// blocks' checksums; Online and OnlineScrub then check the writes.
func (e *exec) step(s *step, j int, gate bool) error {
	sch := e.opts.Scheme
	if sch == SchemeEnhanced {
		e.blocks = e.blocks[:0]
		if s.pre != nil {
			e.blocks = s.pre(e, e.blocks, j)
		}
		if gate && s.gated != nil {
			e.blocks = s.gated(e, e.blocks, j)
		}
		if err := e.verifyBlocks(e.blocks); err != nil {
			return err
		}
	}
	err := s.run(e, j)
	var written [][2]int
	if s.writes != nil {
		e.blocks = s.writes(e, e.blocks[:0], j)
		written = e.blocks
	}
	if s.op != opNone {
		for idx, blk := range written {
			op := s.tickOp(blk)
			e.inj.KernelTick(op, j, blk[0], blk[1])
			if e.tap != nil {
				e.tap(op, written[idx:idx+1])
			}
		}
	}
	if err != nil {
		return err
	}
	if sch.FaultTolerant() && s.update != nil {
		s.update(e, j)
	}
	if s.then != nil {
		s.then(e, j)
	}
	if sch == SchemeOnline || sch == SchemeOnlineScrub {
		return e.verifyBlocks(written)
	}
	return nil
}

// finalCheck decides whether the finished factorization is accepted.
// Offline-ABFT performs its one big end-of-run checksum verification
// here (that is the scheme). For every FT scheme the ledger then
// serves as the end-of-run acceptance test — the stand-in for the
// known-answer/residual check a user would run — rejecting factors
// that still carry corruption the checksums never saw. Plain MAGMA and
// CULA accept whatever they computed.
func (e *exec) finalCheck() error {
	sch := e.opts.Scheme
	if sch == SchemeOffline {
		e.blocks = e.lowerFrom(e.blocks[:0], 0)
		if err := e.verifyBlocks(e.blocks); err != nil {
			return err
		}
	}
	if sch.FaultTolerant() && e.led.AnyCorrupt() {
		e.failure = FailureRejected
		return fmt.Errorf("core: final result rejected: %d block(s) still corrupted", e.led.CorruptBlocks())
	}
	return nil
}
