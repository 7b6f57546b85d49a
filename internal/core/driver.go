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
		if o.Variant == RightLooking {
			runErr = e.runOnceRight()
		} else {
			runErr = e.runOnce()
		}
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
		res.L = e.a
		res.L.LowerFromFull()
	}
	e.finalizeMetrics(&res)
	if runErr != nil {
		return res, fmt.Errorf("core: %s failed after %d attempts: %w", o.Scheme, attempts, runErr)
	}
	return res, nil
}

// runOnce performs one full pass of Algorithm 1 with the scheme's
// verification discipline woven in:
//
//	Offline:  encode; update checksums; verify nothing until the end.
//	Online:   encode; update; verify every block right after updating.
//	Enhanced: encode; update; verify every block right before reading
//	          (GEMM/TRSM inputs only every K-th iteration, Opt 3).
//
// abft:protocol driver steps=syrk,gemm,potf2,trsm
func (e *exec) runOnce() error {
	sch := e.opts.Scheme
	ft := sch.FaultTolerant()
	online := sch == SchemeOnline || sch == SchemeOnlineScrub
	if ft {
		e.encode()
	}
	for j := 0; j < e.nb; j++ {
		e.markIteration(j)
		e.inj.StorageTick(j)
		evPanelReady := e.sc.Record()
		m := e.nb - j - 1
		gate := j%e.opts.K == 0 // Optimization 3

		// Periodic scrub (SchemeOnlineScrub): re-verify every block
		// that will still be read, catching storage errors that struck
		// since the last scrub.
		if sch == SchemeOnlineScrub && gate && j > 0 {
			if err := e.verifyBlocks(e.liveBlocks(j)); err != nil {
				return err
			}
		}

		// --- diagonal update (SYRK) ---
		if sch == SchemeEnhanced {
			// Verify A and the LC row before SYRK reads them (Table I).
			if err := e.verifyBlocks(e.rowPanelAndDiag(j)); err != nil {
				return err
			}
		}
		e.syrk(j)
		if ft {
			e.stageUpdates(j, evPanelReady)
			e.updSYRK(j)
		}
		if online && j > 0 {
			// Post-update verification of the block SYRK wrote.
			if err := e.verifyBlocks(e.diagBlock(j)); err != nil {
				return err
			}
		}
		if sch == SchemeEnhanced {
			// Verify A' before POTF2 reads it (Table I, POTF2 row).
			if err := e.verifyBlocks(e.diagBlock(j)); err != nil {
				return err
			}
		}
		e.xferDiagD2H(j)

		// --- trailing panel update (GEMM), overlapped with POTF2 ---
		if m > 0 && j > 0 {
			if sch == SchemeEnhanced && gate {
				if err := e.verifyBlocks(e.trailingAndPanel(j)); err != nil {
					return err
				}
			}
			e.gemm(j)
			if ft {
				e.updGEMM(j)
			}
			if online {
				if err := e.verifyBlocks(e.panelBlocks(e.blocks[:0], j)); err != nil {
					return err
				}
			}
		}

		// --- single-block factorization on the host (POTF2) ---
		if err := e.potf2(j); err != nil {
			return err
		}
		if ft {
			e.updPOTF2(j)
		}
		e.xferDiagH2D(j)
		if online {
			if err := e.verifyBlocks(e.diagBlock(j)); err != nil {
				return err
			}
		}

		// --- panel solve (TRSM) ---
		if m > 0 {
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
				e.updTRSM(j)
			}
			if online {
				if err := e.verifyBlocks(e.panelBlocks(e.blocks[:0], j)); err != nil {
					return err
				}
			}
		}
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
		if err := e.verifyBlocks(e.allLowerBlocks()); err != nil {
			return err
		}
	}
	if sch.FaultTolerant() && e.led.AnyCorrupt() {
		return fmt.Errorf("core: %w: %d block(s) still corrupted", ErrResultRejected, e.led.CorruptBlocks())
	}
	return nil
}
