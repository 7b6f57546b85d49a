package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// goldenFactorDigest is the SHA-256 of every run in factorDigestGrid:
// its outcome, its recovery counts and the bits of its whole n x n
// factor, upper triangle included. It was recorded with the 8x8
// micro tile and full-square working copy, and pins the real plane's
// arithmetic across commits: a kernel, tile shape, packing or
// working-copy change that moves one bit of one factor, or one
// restart, changes it. Only a change that means to alter the factor's
// bits may re-record it, and says so.
const goldenFactorDigest = "1b2fff3ffae8fcb58dd4255725422bc08d3b02a68b60938636af2a0b73caa021"

// factorDigestGrid runs n x B x variant x scheme x {clean, one storage
// and one computation fault} on the real plane and hashes each run.
// B = 40 puts ragged micro tiles in every Level-3 call. The faulted
// runs restart Online (the storage error propagates before its check),
// correct both errors under Enhanced, and leave MAGMA either silently
// wrong or restarting after a POTF2 fail-stop.
func factorDigestGrid() string {
	h := sha256.New()
	shapes := [][2]int{{128, 32}, {128, 64}, {128, 128}, {256, 32}, {256, 64}, {256, 128}, {512, 32}, {512, 64}, {512, 128}, {768, 32}, {768, 64}, {768, 128}, {200, 40}}
	for _, nb := range shapes {
		n, b := nb[0], nb[1]
		a := mat.RandSPD(n, int64(n+b))
		for _, v := range []Variant{LeftLooking, RightLooking} {
			for _, sch := range []Scheme{SchemeNone, SchemeOnline, SchemeEnhanced} {
				for faulted := range 2 {
					o := Options{Profile: hetsim.Laptop(), N: n, BlockSize: b, Variant: v, Scheme: sch, ConcurrentRecalc: true, Data: a}
					if faulted == 1 {
						if n/b < 3 {
							continue
						}
						comp := fault.DefaultComputation(n / b / 2)
						comp.Delta = 1e3
						o.Scenarios = []fault.Scenario{fault.DefaultStorage(1), comp}
					}
					res, err := Run(o)
					fmt.Fprintf(h, "%d %d %s %s %d: err=%v attempts=%d corrections=%d\n", n, b, v, sch, faulted, err, res.Attempts, res.Corrections)
					hashFactor(h, res.L, n)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashFactor writes the bits of the n x n factor l, column by column
// through its stride, or a marker when there is none.
func hashFactor(h hash.Hash, l *mat.Matrix, n int) {
	if l == nil {
		h.Write([]byte("no factor\n"))
		return
	}
	var buf [8]byte
	for j := 0; j < n; j++ {
		for _, v := range l.Col(j)[:n] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
}

// TestGoldenFactorDigest holds the real plane's factors, outcomes and
// recovery counts to the digest recorded for factorDigestGrid.
func TestGoldenFactorDigest(t *testing.T) {
	if got := factorDigestGrid(); got != goldenFactorDigest {
		t.Fatalf("factor digest %s, want %s: a real-plane factor, outcome or recovery count changed", got, goldenFactorDigest)
	}
}
