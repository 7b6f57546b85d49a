// Package pairingtest exercises the abftprotocol analyzer's
// checksum-pairing and call-site checks against a miniature executor
// that mirrors internal/core's shape: blas-backed step kernels,
// checksum.Update* maintenance helpers, and annotated drivers, using
// the real Scheme constants.
package pairingtest

import (
	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/core"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// The analyzer takes its protocol from annotations in the package
// under check; this miniature package declares two fault-tolerant
// disciplines so per-scheme findings deduplicate into one diagnostic.
//
// abft:protocol scheme SchemeOffline ft verify=final
// abft:protocol scheme SchemeOnline ft verify=post-write

type exec struct {
	sch      core.Scheme
	a, chk   *mat.Matrix
	b, m, nb int
	gpu      *hetsim.Device
	sc       *hetsim.Stream
}

func (e *exec) verifyBlocks(blocks [][2]int) error { return nil }

// encode is the field-inference anchor: chk holds checksums of a.
func (e *exec) encode() {
	e.chk = checksum.EncodeMatrixMulti(e.a, e.b, e.m)
}

func (e *exec) block(bi, bj int) *mat.Matrix {
	return e.a.View(bi*e.b, bj*e.b, e.b, e.b)
}

func (e *exec) chkView(bi, bj int) *mat.Matrix {
	return e.chk.View(e.m*bi, bj*e.b, e.m, e.b)
}

func (e *exec) potf2Step(j int) error {
	return blas.Dpotf2(e.b, e.a.Off(j*e.b, j*e.b), e.a.Stride)
}

func (e *exec) trsmStep(j int) {
	blas.DtrsmParallel(blas.Right, blas.Trans, e.b, e.b, 1,
		e.a.Off(j*e.b, j*e.b), e.a.Stride,
		e.a.Off((j+1)*e.b, j*e.b), e.a.Stride)
}

func (e *exec) updPOTF2Step(j int) {
	checksum.UpdatePOTF2(e.chkView(j, j), e.block(j, j))
}

func (e *exec) updTRSMStep(j int) {
	checksum.UpdateTRSM(e.chk.View(e.m*(j+1), j*e.b, e.m, e.b), e.block(j, j))
}

// runGood pairs every mutation with its update before the next
// verification point: no findings.
//
// abft:protocol driver steps=potf2,trsm
func (e *exec) runGood() error {
	sch := e.sch
	ft := sch.FaultTolerant()
	if ft {
		e.encode()
	}
	for j := 0; j < e.nb; j++ {
		if err := e.potf2Step(j); err != nil {
			return err
		}
		if ft {
			e.updPOTF2Step(j)
		}
		if sch == core.SchemeOnline {
			if err := e.verifyBlocks([][2]int{{j, j}}); err != nil {
				return err
			}
		}
		e.trsmStep(j)
		if ft {
			e.updTRSMStep(j)
		}
		if sch == core.SchemeOnline {
			if err := e.verifyBlocks(nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// runMissingTRSM forgets the TRSM checksum update, so the panel's
// checksums go stale before the post-write verification (or, under
// Offline, before the final one).
//
// abft:protocol driver steps=potf2,trsm
func (e *exec) runMissingTRSM() error {
	sch := e.sch
	ft := sch.FaultTolerant()
	if ft {
		e.encode()
	}
	for j := 0; j < e.nb; j++ {
		if err := e.potf2Step(j); err != nil {
			return err
		}
		if ft {
			e.updPOTF2Step(j)
		}
		e.trsmStep(j) // want "TRSM panel solve can reach the next verification point without checksum.UpdateTRSM"
		if sch == core.SchemeOnline {
			if err := e.verifyBlocks(nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// runZeroTrip issues the update only inside a loop that may run zero
// times; the zero-trip edge reaches the exit with stale checksums.
//
// abft:protocol driver steps=trsm
func (e *exec) runZeroTrip() error {
	ft := e.sch.FaultTolerant()
	if ft {
		e.encode()
	}
	e.trsmStep(0) // want "TRSM panel solve can reach the next verification point without checksum.UpdateTRSM"
	for k := 0; k < e.nb; k++ {
		if ft {
			e.updTRSMStep(k)
		}
	}
	return nil
}

// runUnmotivated updates checksums for a panel that may never have
// been rewritten, diverging chk(A) from A on the skip path.
//
// abft:protocol driver steps=trsm
func (e *exec) runUnmotivated() error {
	ft := e.sch.FaultTolerant()
	if ft {
		e.encode()
	}
	if e.nb > 1 {
		e.trsmStep(0)
	}
	if ft {
		e.updTRSMStep(0) // want "checksum.UpdateTRSM has no dominating TRSM panel solve"
	}
	return nil
}

// runSuppressed documents the sanctioned escape hatch: the finding is
// real but justified, so the driver must swallow it.
//
// abft:protocol driver steps=trsm
func (e *exec) runSuppressed() error {
	if e.sch.FaultTolerant() {
		e.encode()
	}
	e.trsmStep(0) //nolint:abftprotocol // fixture: exercises the suppression path end to end
	return nil
}

// runUnannotated has the same hole as runMissingTRSM but no driver
// annotation, so there is no protocol to check it against.
func (e *exec) runUnannotated() error {
	e.trsmStep(0)
	return nil
}

// badUpdates mismatches the update contracts at the call site.
func (e *exec) badUpdates(k int) {
	checksum.UpdateRankK(e.chk.View(0, 0, e.m, e.b), e.chk.View(0, 0, e.m, k), e.a.View(0, 0, e.b, e.b)) // want "chkSrc cols \\(k\\) != panel cols"
	checksum.UpdateTRSM(e.a.View(0, 0, e.m, e.b), e.block(0, 0))                                         // want "chk argument derives from the data matrix"
}

// badClassLaunch declares a TRSM kernel whose body is a GEMM.
func (e *exec) badClassLaunch(j int) {
	var body func()
	if e.a != nil {
		body = func() {
			blas.DgemmParallel(blas.NoTrans, blas.Trans, e.b, e.b, e.b,
				-1, e.a.Off(j*e.b, 0), e.a.Stride,
				e.a.Off(j*e.b, 0), e.a.Stride,
				1, e.a.Off(j*e.b, j*e.b), e.a.Stride)
		}
	}
	e.gpu.Launch(e.sc, hetsim.Kernel{ // want "launched as ClassTRSM but its body performs rank-k trailing update"
		Name:  "bad-class",
		Class: hetsim.ClassTRSM,
		Flops: 1,
		Body:  body,
	})
}

// badChkLaunch hides a mutation inside a checksum-bookkeeping kernel.
func (e *exec) badChkLaunch() {
	e.gpu.Launch(e.sc, hetsim.Kernel{ // want "launched as ClassChkUpdate but its body performs TRSM panel solve"
		Name:  "bad-chk",
		Class: hetsim.ClassChkUpdate,
		Flops: 1,
		Body: func() {
			blas.DtrsmParallel(blas.Right, blas.Trans, e.b, e.b, 1,
				e.a.Off(0, 0), e.a.Stride,
				e.a.Off(e.b, 0), e.a.Stride)
		},
	})
}
