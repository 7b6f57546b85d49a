// Package orderingtest exercises the abftprotocol analyzer's
// verification-ordering checks against a miniature driver that mirrors
// the shape of internal/core's runOnce and runOnceRight, using the
// real Scheme constants.
package orderingtest

import "abftchol/internal/core"

// The analyzer takes its protocol from annotations in the package
// under check; this miniature package declares the same disciplines
// the real core does for its two online schemes.
//
// abft:protocol scheme SchemeOnline ft verify=post-write
// abft:protocol scheme SchemeEnhanced ft verify=pre-read

type hexec struct {
	sch core.Scheme
	k   int
	nb  int
}

func (e *hexec) verifyBlocks(blocks [][2]int) error { return nil }
func (e *hexec) encode()                            {}
func (e *hexec) syrk(j int)                         {}
func (e *hexec) gemm(j int)                         {}
func (e *hexec) potf2(j int) error                  { return nil }
func (e *hexec) trsm(j int)                         {}
func (e *hexec) trailingUpdate(j int)               {}
func (e *hexec) updTRSM(j int)                      {}

// runOnce follows the discipline everywhere except the final TRSM,
// which Online-ABFT requires a post-write verification for.
//
// abft:protocol driver steps=syrk,gemm,potf2,trsm
func (e *hexec) runOnce() error {
	sch := e.sch
	ft := sch.FaultTolerant()
	online := sch == core.SchemeOnline || sch == core.SchemeOnlineScrub
	if ft {
		e.encode()
	}
	for j := 0; j < e.nb; j++ {
		gate := j%e.k == 0
		if sch == core.SchemeEnhanced {
			if err := e.verifyBlocks(nil); err != nil {
				return err
			}
		}
		e.syrk(j)
		if online && j > 0 {
			if err := e.verifyBlocks(nil); err != nil {
				return err
			}
		}
		if m := e.nb - j - 1; m > 0 && j > 0 {
			if sch == core.SchemeEnhanced && gate {
				if err := e.verifyBlocks(nil); err != nil {
					return err
				}
			}
			e.gemm(j)
			if online {
				if err := e.verifyBlocks(nil); err != nil {
					return err
				}
			}
		}
		if err := e.potf2(j); err != nil {
			return err
		}
		if online {
			if err := e.verifyBlocks(nil); err != nil {
				return err
			}
		}
		e.trsm(j) // want "on the SchemeOnline path, trsm can reach the function exit without a subsequent verifyBlocks"
	}
	return nil
}

// runOnceRight never verifies before reads, so every step violates the
// Enhanced pre-read discipline; the trailing update additionally skips
// its post-write verification and demonstrates the escape hatch.
//
// abft:protocol driver steps=potf2,trsm,trailingUpdate
func (e *hexec) runOnceRight() error {
	sch := e.sch
	ft := sch.FaultTolerant()
	for j := 0; j < e.nb; j++ {
		if err := e.potf2(j); err != nil { // want "on the SchemeEnhanced path, potf2 is reachable without a preceding verifyBlocks"
			return err
		}
		if sch == core.SchemeOnline {
			if err := e.verifyBlocks(nil); err != nil {
				return err
			}
		}
		e.trsm(j) // want "on the SchemeEnhanced path, trsm is reachable without a preceding verifyBlocks"
		if ft {
			e.updTRSM(j)
		}
		if sch == core.SchemeOnline {
			if err := e.verifyBlocks(nil); err != nil {
				return err
			}
		}
		e.trailingUpdate(j) //nolint:abftprotocol — escape-hatch exercise: both disciplines are knowingly violated here
	}
	return nil
}
