package checksum

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"abftchol/internal/mat"
)

func TestMultiCodeM2MatchesPairCode(t *testing.T) {
	// m=2 must be exactly the paper's two-vector code, to the bit:
	// EncodeMatrixMulti encodes m=2 with EncodeBlockInto.
	for _, b := range []int{8, 67} {
		blk := mat.RandGeneral(b, b, 1)
		c := NewMultiCode(2, b)
		multi := mat.New(2, b)
		c.EncodeInto(blk, multi)
		pair := mat.New(2, b)
		EncodeBlockInto(blk, pair)
		if !sameMatrixBits(multi, pair) {
			t.Fatalf("b=%d: m=2 multi code disagrees with the pair code", b)
		}
	}
}

func TestMultiCodeRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMultiCode(1, 8) },
		func() { NewMultiCode(2, 0) },
		func() { NewMultiCode(2, 8).EncodeInto(mat.New(4, 4), mat.New(2, 4)) }, // wrong rows
		func() { NewMultiCode(2, 8).EncodeInto(mat.New(8, 4), mat.New(3, 4)) }, // wrong chk rows
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMultiCodeSingleErrorAllM(t *testing.T) {
	for _, m := range []int{2, 3, 4, 6} {
		b := 16
		blk := mat.RandGeneral(b, b, int64(m))
		orig := blk.Clone()
		c := NewMultiCode(m, b)
		stored := mat.New(m, b)
		c.EncodeInto(blk, stored)
		blk.Add(7, 3, 5.5)
		scratch := mat.New(m, b)
		corrs, err := c.VerifyAndCorrect(blk, stored, scratch)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if len(corrs) != 1 || corrs[0].Row != 7 || corrs[0].Col != 3 {
			t.Fatalf("m=%d: corrections %v", m, corrs)
		}
		if !mat.Equal(blk, orig, 1e-9) {
			t.Fatalf("m=%d: block not restored", m)
		}
	}
}

func TestMultiCodeDoubleErrorSameColumn(t *testing.T) {
	// The pair code cannot fix two errors in one column; m=4 can.
	b := 16
	blk := mat.RandGeneral(b, b, 9)
	orig := blk.Clone()
	c := NewMultiCode(4, b)
	stored := mat.New(4, b)
	c.EncodeInto(blk, stored)
	blk.Add(2, 5, 3.25)
	blk.Add(11, 5, -7.5)
	scratch := mat.New(4, b)
	corrs, err := c.VerifyAndCorrect(blk, stored, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) != 2 {
		t.Fatalf("corrections %v", corrs)
	}
	if !mat.Equal(blk, orig, 1e-8) {
		t.Fatalf("block not restored, max diff %g", mat.MaxAbsDiff(blk, orig))
	}
}

func TestMultiCodeTripleErrorWithM6(t *testing.T) {
	b := 24
	blk := mat.RandGeneral(b, b, 10)
	orig := blk.Clone()
	c := NewMultiCode(6, b)
	stored := mat.New(6, b)
	c.EncodeInto(blk, stored)
	blk.Add(1, 4, 2)
	blk.Add(9, 4, -3)
	blk.Add(17, 4, 4.5)
	scratch := mat.New(6, b)
	corrs, err := c.VerifyAndCorrect(blk, stored, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) != 3 {
		t.Fatalf("corrections %v", corrs)
	}
	if !mat.Equal(blk, orig, 1e-7) {
		t.Fatalf("block not restored, max diff %g", mat.MaxAbsDiff(blk, orig))
	}
}

func TestMultiCodeOverCapacityFails(t *testing.T) {
	// Three errors in one column against a capability of two.
	b := 16
	blk := mat.RandGeneral(b, b, 11)
	c := NewMultiCode(4, b)
	stored := mat.New(4, b)
	c.EncodeInto(blk, stored)
	blk.Add(1, 2, 2)
	blk.Add(6, 2, 3)
	blk.Add(12, 2, 4)
	scratch := mat.New(4, b)
	if _, err := c.VerifyAndCorrect(blk, stored, scratch); err == nil {
		t.Fatal("three errors accepted by a two-error code")
	}
}

func TestMultiCodeCleanBlockUntouched(t *testing.T) {
	b := 16
	blk := mat.RandGeneral(b, b, 12)
	orig := blk.Clone()
	c := NewMultiCode(4, b)
	stored := mat.New(4, b)
	c.EncodeInto(blk, stored)
	scratch := mat.New(4, b)
	corrs, err := c.VerifyAndCorrect(blk, stored, scratch)
	if err != nil || len(corrs) != 0 {
		t.Fatalf("clean block: %v %v", corrs, err)
	}
	if !mat.Equal(blk, orig, 0) {
		t.Fatal("clean block modified")
	}
}

func TestMultiCodeErrorsAcrossColumns(t *testing.T) {
	// Two errors in each of two different columns, m=4.
	b := 16
	blk := mat.RandGeneral(b, b, 13)
	orig := blk.Clone()
	c := NewMultiCode(4, b)
	stored := mat.New(4, b)
	c.EncodeInto(blk, stored)
	blk.Add(0, 1, 1.5)
	blk.Add(15, 1, -2.5)
	blk.Add(4, 9, 3.5)
	scratch := mat.New(4, b)
	corrs, err := c.VerifyAndCorrect(blk, stored, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) != 3 {
		t.Fatalf("corrections %v", corrs)
	}
	if !mat.Equal(blk, orig, 1e-8) {
		t.Fatal("block not restored")
	}
}

func TestMultiCodeDoubleErrorProperty(t *testing.T) {
	// Property: any two distinct-row errors in one column of an m=4
	// encoded block are repaired exactly.
	f := func(seed int64, r1raw, r2raw uint8, e1raw, e2raw int16) bool {
		b := 20
		r1 := int(r1raw) % b
		r2 := int(r2raw) % b
		if r1 == r2 || e1raw == 0 || e2raw == 0 {
			return true
		}
		e1 := float64(e1raw) / 32
		e2 := float64(e2raw) / 32
		blk := mat.RandGeneral(b, b, seed)
		orig := blk.Clone()
		c := NewMultiCode(4, b)
		stored := mat.New(4, b)
		c.EncodeInto(blk, stored)
		blk.Add(r1, 6, e1)
		blk.Add(r2, 6, e2)
		scratch := mat.New(4, b)
		if _, err := c.VerifyAndCorrect(blk, stored, scratch); err != nil {
			return false
		}
		return mat.Equal(blk, orig, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiCodeCapability(t *testing.T) {
	if NewMultiCode(2, 8).MaxErrors() != 1 {
		t.Fatal("m=2 corrects 1")
	}
	if NewMultiCode(4, 8).MaxErrors() != 2 {
		t.Fatal("m=4 corrects 2")
	}
	if NewMultiCode(5, 8).MaxErrors() != 2 {
		t.Fatal("m=5 corrects 2")
	}
	if NewMultiCode(4, 8).Vectors() != 4 {
		t.Fatal("vector count wrong")
	}
}

func TestMultiCodeUpdateCompatibility(t *testing.T) {
	// The checksum-update algebra is row-count agnostic: a 4-row
	// checksum slab must survive the rank-k and TRSM updates exactly
	// like the 2-row one.
	b, k := 12, 10
	blk := mat.RandGeneral(b, b, 14)
	src := mat.RandGeneral(b, k, 15)
	pan := mat.RandGeneral(b, k, 16)
	c := NewMultiCode(4, b)
	chkB := mat.New(4, b)
	chkS := mat.New(4, k)
	cSrc := NewMultiCode(4, b)
	c.EncodeInto(blk, chkB)
	cSrc.EncodeInto(src, chkS)

	// blk -= src·panᵀ with the matching checksum update.
	for col := 0; col < b; col++ {
		for i := 0; i < b; i++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += src.At(i, kk) * pan.At(col, kk)
			}
			blk.Add(i, col, -s)
		}
	}
	UpdateRankK(chkB, chkS, pan)
	recalc := mat.New(4, b)
	c.EncodeInto(blk, recalc)
	if mat.MaxAbsDiff(chkB, recalc) > 1e-8 {
		t.Fatalf("4-row rank-k invariant broken by %g", mat.MaxAbsDiff(chkB, recalc))
	}
}

func TestSolveDense(t *testing.T) {
	x, ok := solveDense([][]float64{{2, 1}, {1, 3}}, []float64{5, 10})
	if !ok {
		t.Fatal("solvable system rejected")
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
	if _, ok := solveDense([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); ok {
		t.Fatal("singular system accepted")
	}
}

func TestMultiCodeRandomizedStress(t *testing.T) {
	// Deterministic stress: random error counts up to capability at
	// random positions, across several m.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		m := []int{2, 4, 6}[rng.Intn(3)]
		b := 16 + rng.Intn(16)
		c := NewMultiCode(m, b)
		blk := mat.RandGeneral(b, b, int64(trial))
		orig := blk.Clone()
		stored := mat.New(m, b)
		c.EncodeInto(blk, stored)
		nerr := 1 + rng.Intn(c.MaxErrors())
		col := rng.Intn(b)
		used := map[int]bool{}
		for e := 0; e < nerr; e++ {
			r := rng.Intn(b)
			for used[r] {
				r = rng.Intn(b)
			}
			used[r] = true
			blk.Add(r, col, float64(rng.Intn(200)-100)/8+0.5)
		}
		scratch := mat.New(m, b)
		if _, err := c.VerifyAndCorrect(blk, stored, scratch); err != nil {
			t.Fatalf("trial %d (m=%d, %d errors): %v", trial, m, nerr, err)
		}
		if !mat.Equal(blk, orig, 1e-6) {
			t.Fatalf("trial %d: not restored (diff %g)", trial, mat.MaxAbsDiff(blk, orig))
		}
	}
}

// multiVerifyTwoPass is MultiCode.VerifyAndCorrect as it was before
// EncodeInto returned max|block|: encode, then a second NormMax pass
// for the threshold. It is the reference the one-pass version must
// match bit for bit.
func multiVerifyTwoPass(c *MultiCode, block, stored, scratch *mat.Matrix) ([]Correction, error) {
	c.EncodeInto(block, scratch)
	tol := toleranceFor(block.Rows, block.NormMax())
	var out []Correction
	syn := make([]float64, c.m)
	for col := 0; col < block.Cols; col++ {
		dirty := false
		for s := 0; s < c.m; s++ {
			syn[s] = scratch.At(s, col) - stored.At(s, col)
			if math.Abs(syn[s]) > tol*math.Pow(float64(c.b), float64(s)) {
				dirty = true
			}
		}
		if !dirty {
			continue
		}
		rows, mags, ok := c.solveColumn(syn, tol)
		if !ok {
			return out, errOverCapacity
		}
		for j, r := range rows {
			block.Add(r, col, -mags[j])
			out = append(out, Correction{Row: r, Col: col, Delta: mags[j], OK: true})
		}
	}
	return out, nil
}

var errOverCapacity = errors.New("over capacity")

func TestMultiVerifyOnePassMatchesTwoPass(t *testing.T) {
	corrected, failed := 0, 0
	for _, m := range []int{2, 3, 4, 6, 9} {
		for seed := int64(0); seed < 12; seed++ {
			const b = 16
			rng := rand.New(rand.NewSource(seed))
			blk := mat.RandGeneral(b, b, seed)
			scale := math.Pow(10, float64(rng.Intn(13)-6))
			for j := 0; j < b; j++ {
				col := blk.Col(j)
				for i := range col {
					col[i] *= scale
				}
			}
			c := NewMultiCode(m, b)
			stored := mat.New(m, b)
			c.EncodeInto(blk, stored)
			if seed%4 == 3 {
				blk.Set(rng.Intn(b), rng.Intn(b), math.NaN()) // NormMax skips NaN; so must the fused pass
			}
			for e := 0; e < int(seed%4); e++ { // 0..3 errors anywhere
				blk.Add(rng.Intn(b), rng.Intn(b), scale*(1+rng.Float64())*100)
			}
			if seed%3 == 2 { // one column past the code's capability
				for r := 0; r <= c.MaxErrors(); r++ {
					blk.Add(2*r+1, 5, scale*(1+rng.Float64())*100)
				}
			}
			if got, want := toleranceFor(b, c.EncodeInto(blk, mat.New(m, b))), toleranceFor(blk.Rows, blk.NormMax()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("m=%d seed=%d: one-pass threshold %v, two-pass %v", m, seed, got, want)
			}
			ref := blk.Clone()
			gotScratch, refScratch := mat.New(m, b), mat.New(m, b)
			got, gotErr := c.VerifyAndCorrect(blk, stored, gotScratch)
			want, wantErr := multiVerifyTwoPass(c, ref, stored, refScratch)
			if (gotErr == nil) != (wantErr == nil) || len(got) != len(want) {
				t.Fatalf("m=%d seed=%d: got %v (%v), want %v (%v)", m, seed, got, gotErr, want, wantErr)
			}
			corrected += len(got)
			if gotErr != nil {
				failed++
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Row != w.Row || g.Col != w.Col || g.OK != w.OK || math.Float64bits(g.Delta) != math.Float64bits(w.Delta) {
					t.Fatalf("m=%d seed=%d: correction %d is %+v, want %+v", m, seed, i, g, w)
				}
			}
			for _, pair := range [][2]*mat.Matrix{{blk, ref}, {gotScratch, refScratch}} {
				for j := 0; j < pair[0].Cols; j++ {
					for i, v := range pair[0].Col(j) {
						if w := pair[1].At(i, j); math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("m=%d seed=%d: element (%d,%d) is %v, want %v", m, seed, i, j, v, w)
						}
					}
				}
			}
		}
	}
	if corrected == 0 || failed == 0 {
		t.Fatalf("the cases made %d corrections and %d failures; both must occur", corrected, failed)
	}
	t.Logf("%d corrections, %d over-capacity columns", corrected, failed)
}
