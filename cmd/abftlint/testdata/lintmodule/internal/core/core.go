// Package core is a deliberately buggy miniature of the real executor.
// It seeds one bug per half of the ABFT protocol: runOnce forgets the
// TRSM checksum update (an unpaired mutation), and runOnceRight never
// verifies the panel its TRSM writes (a post-write ordering bug).
package core

import (
	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/mat"
)

// Scheme selects the fault-tolerance variant.
type Scheme int

// The schemes declare their verification disciplines to the analyzers.
const (
	// SchemeNone runs without checksums.
	//
	// abft:protocol scheme SchemeNone verify=none
	SchemeNone Scheme = iota
	// SchemeOnline verifies each block right after writing it.
	//
	// abft:protocol scheme SchemeOnline ft verify=post-write
	SchemeOnline
)

// FaultTolerant reports whether the scheme maintains checksums.
func (s Scheme) FaultTolerant() bool { return s >= SchemeOnline }

type exec struct {
	sch    Scheme
	a, chk *mat.Matrix
	b, m   int
	nb     int
}

func (e *exec) verifyBlocks(blocks [][2]int) error { return nil }

func (e *exec) encode() {
	e.chk = checksum.EncodeMatrixMulti(e.a, e.b, e.m)
}

func (e *exec) block(bi, bj int) *mat.Matrix {
	return e.a.View(bi*e.b, bj*e.b, e.b, e.b)
}

func (e *exec) chkView(bi, bj int) *mat.Matrix {
	return e.chk.View(e.m*bi, bj*e.b, e.m, e.b)
}

func (e *exec) potf2(j int) error {
	return blas.Dpotf2(e.b, e.a.Off(j*e.b, j*e.b), e.a.Stride)
}

func (e *exec) trsm(j int) {
	blas.DtrsmParallel(blas.Right, blas.Trans, e.b, e.b, 1,
		e.a.Off(j*e.b, j*e.b), e.a.Stride,
		e.a.Off((j+1)*e.b, j*e.b), e.a.Stride)
}

func (e *exec) updPOTF2(j int) {
	checksum.UpdatePOTF2(e.chkView(j, j), e.block(j, j))
}

// updTRSM exists but runOnce never calls it: the panel's checksums go
// stale the moment trsm rewrites it.
func (e *exec) updTRSM(j int) {
	checksum.UpdateTRSM(e.chk.View(e.m*(j+1), j*e.b, e.m, e.b), e.block(j, j))
}

// runOnce factors block column by block column under the post-write
// discipline — except that the TRSM checksum update went missing.
//
// abft:protocol driver steps=potf2,trsm
func (e *exec) runOnce() error {
	sch := e.sch
	ft := sch.FaultTolerant()
	if ft {
		e.encode()
	}
	for j := 0; j < e.nb; j++ {
		if err := e.potf2(j); err != nil {
			return err
		}
		if ft {
			e.updPOTF2(j)
		}
		if sch == SchemeOnline {
			if err := e.verifyBlocks([][2]int{{j, j}}); err != nil {
				return err
			}
		}
		e.trsm(j)
		if sch == SchemeOnline {
			if err := e.verifyBlocks(nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOnceRight keeps every checksum current, but under the post-write
// discipline it never verifies the panel its TRSM just wrote.
//
// abft:protocol driver steps=potf2,trsm
func (e *exec) runOnceRight() error {
	sch := e.sch
	ft := sch.FaultTolerant()
	if ft {
		e.encode()
	}
	for j := 0; j < e.nb; j++ {
		if err := e.potf2(j); err != nil {
			return err
		}
		if ft {
			e.updPOTF2(j)
		}
		if sch == SchemeOnline {
			if err := e.verifyBlocks([][2]int{{j, j}}); err != nil {
				return err
			}
		}
		e.trsm(j)
		if ft {
			e.updTRSM(j)
		}
	}
	return nil
}
