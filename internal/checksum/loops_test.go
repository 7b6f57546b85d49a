package checksum

import (
	"math"
	"slices"
	"testing"

	"abftchol/internal/blas"
	"abftchol/internal/mat"
)

// The loops below are the At/Set/Add versions the direct-slice and
// kernel code replaced, kept as bit references. encodeBlockAt rounds
// the weighted product explicitly, as the kernel does, so no compiler
// fuses it into the add.

func encodeBlockAt(block, chk *mat.Matrix) float64 {
	maxv := 0.0
	for c := 0; c < block.Cols; c++ {
		s1, s2 := 0.0, 0.0
		for i := 0; i < block.Rows; i++ {
			v := block.At(i, c)
			s1 += v
			s2 += float64(float64(i+1) * v)
			if av := math.Abs(v); av > maxv {
				maxv = av
			}
		}
		chk.Set(0, c, s1)
		chk.Set(1, c, s2)
	}
	return maxv
}

// encodeWeightedChain is encodeWeighted as it was before it built each
// row's weights once per call: every element rebuilds its weights by
// the chain of multiplies, eight sums per pass in a stack array.
func encodeWeightedChain(block, chk *mat.Matrix) float64 {
	var sums [8]float64
	m := chk.Rows
	maxv := 0.0
	for col := 0; col < block.Cols; col++ {
		data := block.Col(col)
		out := chk.Col(col)
		for s0 := 0; s0 < m; s0 += len(sums) {
			acc := sums[:min(len(sums), m-s0)]
			clear(acc)
			for i, v := range data {
				if av := math.Abs(v); av > maxv {
					maxv = av
				}
				x := float64(i + 1)
				w := 1.0
				for s := 0; s < s0; s++ {
					w *= x
				}
				for s := range acc {
					acc[s] += float64(w * v)
					w *= x
				}
			}
			copy(out[s0:], acc)
		}
	}
	return maxv
}

// compareAt lists the columns whose syndrome s is not within
// tol·B^s, NaN included.
func compareAt(stored, recalced *mat.Matrix, tol float64) []int {
	var out []int
	for c := 0; c < stored.Cols; c++ {
		for s := 0; s < stored.Rows; s++ {
			if d := recalced.At(s, c) - stored.At(s, c); !(math.Abs(d) <= tol*math.Pow(float64(stored.Cols), float64(s))) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

func updatePOTF2At(chk, la *mat.Matrix) {
	b := la.Rows
	for j := 0; j < b; j++ {
		d := la.At(j, j)
		for r := 0; r < chk.Rows; r++ {
			chk.Set(r, j, chk.At(r, j)/d)
		}
		for r := 0; r < chk.Rows; r++ {
			cj := chk.At(r, j)
			if cj == 0 {
				continue
			}
			for i := j + 1; i < b; i++ {
				chk.Add(r, i, -cj*la.At(i, j))
			}
		}
	}
}

// sameMatrixBits compares element bits, counting any two NaNs as equal.
func sameMatrixBits(a, b *mat.Matrix) bool {
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			x, y := a.At(i, j), b.At(i, j)
			if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
		}
	}
	return true
}

// withSpecials writes NaN, ±Inf, ±0 and subnormals into m.
func withSpecials(m *mat.Matrix) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -2.2e-308}
	k := 0
	for j := 0; j < m.Cols; j++ {
		for i := j % 5; i < m.Rows; i += 5 {
			m.Set(i, j, specials[k%len(specials)])
			k++
		}
	}
}

func TestEncodeBlockIntoMatchesScalarLoop(t *testing.T) {
	big := mat.RandGeneral(512, 70, 4)
	for _, special := range []bool{false, true} {
		for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 67} {
			for _, cols := range []int{1, 3, 4, 5, 9, 64} {
				block := big.View(3, 2, rows, cols).Clone()
				if special {
					withSpecials(block)
				}
				// Read the block at stride 512 as well as tightly.
				wide := mat.New(512, cols).View(0, 0, rows, cols)
				wide.CopyFrom(block)
				for _, blk := range []*mat.Matrix{block, wide} {
					got, want := mat.New(2, cols), mat.New(2, cols)
					gm, wm := EncodeBlockInto(blk, got), encodeBlockAt(blk, want)
					if gm != wm || !sameMatrixBits(got, want) {
						t.Fatalf("special=%v %dx%d stride %d: max %v/%v, checksums\n%v\nscalar loop\n%v", special, rows, cols, blk.Stride, gm, wm, got, want)
					}
				}
			}
		}
	}
}

func TestCompareMatchesAtLoop(t *testing.T) {
	const b = 64
	stored := mat.RandGeneral(2, b, 1)
	recalced := stored.Clone()
	for c := 0; c < b; c += 3 {
		recalced.Add(c%2, c, float64(c)*1e-7)
	}
	withSpecials(recalced.View(0, 40, 2, 10))
	for _, tol := range []float64{0, 1e-9, 1e-6, 1e-4} {
		var got []int
		for c := 0; c < b; c++ {
			if flagged(stored.Col(c), recalced.Col(c), []float64{tol, tol * b}) {
				got = append(got, c)
			}
		}
		if want := compareAt(stored, recalced, tol); !slices.Equal(got, want) {
			t.Fatalf("tol %g: flagged columns %v, the At loop flags %v", tol, got, want)
		}
	}
}

func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func TestUpdatePOTF2MatchesAtLoop(t *testing.T) {
	for _, b := range []int{1, 2, 7, 64, 65, 300} {
		l := mat.RandSPD(b, int64(b))
		if err := blas.Dpotf2(b, l.Data, l.Stride); err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{2, 3, 5} {
			chk := mat.RandGeneral(m+1, b, int64(m)).View(0, 0, m, b) // strided
			// A zero checksum entry skips its column update, which
			// shows when the factor holds an Inf below it.
			chk.Set(m-1, 0, 0)
			chk.Set(0, b-1, math.Copysign(0, -1))
			if b > 1 {
				l.Set(b-1, 0, math.Inf(1))
			}
			ref := chk.Clone()
			UpdatePOTF2(chk, l)
			updatePOTF2At(ref, l)
			if !sameMatrixBits(chk, ref) {
				t.Fatalf("b=%d m=%d: UpdatePOTF2 differs from the At loop", b, m)
			}
		}
	}
}

// TestEncodeWeightedMatchesChain holds the m > 2 encoder, whose weights
// are built once per row, to the bits of the per-element weight chain,
// for m = 2..9, blocks wider than one row chunk, special values and a
// wide stride.
func TestEncodeWeightedMatchesChain(t *testing.T) {
	big := mat.RandGeneral(600, 9, 5)
	for _, special := range []bool{false, true} {
		for _, rows := range []int{1, 3, 8, 64, 255, 256, 257, 600} {
			for _, cols := range []int{1, 5, 9} {
				block := big.View(0, 0, rows, cols).Clone()
				if special {
					withSpecials(block)
				}
				wide := mat.New(700, cols).View(0, 0, rows, cols)
				wide.CopyFrom(block)
				for m := 2; m <= 9; m++ {
					for _, blk := range []*mat.Matrix{block, wide} {
						got, want := mat.New(m, cols), mat.New(m, cols)
						got.Fill(7) // the encoder must overwrite, not add to, chk
						gm, wm := encodeWeighted(blk, got), encodeWeightedChain(blk, want)
						if gm != wm || !sameMatrixBits(got, want) {
							t.Fatalf("special=%v %dx%d m=%d stride %d: max %v/%v, checksums\n%v\nchain\n%v", special, rows, cols, m, blk.Stride, gm, wm, got, want)
						}
					}
				}
			}
		}
	}
}
