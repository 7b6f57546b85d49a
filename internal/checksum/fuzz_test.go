package checksum

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"abftchol/internal/mat"
)

func TestNonFiniteElementRebuilt(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			const b = 16
			blk := mat.RandGeneral(b, b, int64(m))
			orig := blk.Clone()
			stored := mat.New(m, b)
			EncodeBlockInto(blk, stored)
			blk.Set(5, 3, bad)
			blk.Add(9, 11, 0.25) // a finite error elsewhere must not hide behind an Inf's max|block|
			corrs, err := VerifyAndCorrect(blk, stored, mat.New(m, b))
			if err != nil {
				t.Fatalf("m=%d %v: %v", m, bad, err)
			}
			if len(corrs) != 2 || corrs[0].Row != 5 || corrs[0].Col != 3 || finite(corrs[0].Delta) {
				t.Fatalf("m=%d %v: corrections %+v", m, bad, corrs)
			}
			if !mat.Equal(blk, orig, 1e-12) {
				t.Fatalf("m=%d %v: block not restored (diff %g)", m, bad, mat.MaxAbsDiff(blk, orig))
			}
		}
	}
}

func TestNonFiniteUnrepairable(t *testing.T) {
	const b = 16
	for _, m := range []int{2, 3, 4} {
		for name, spoil := range map[string]func(blk, stored *mat.Matrix){
			"two NaNs in a column":   func(blk, _ *mat.Matrix) { blk.Set(2, 4, math.NaN()); blk.Set(9, 4, math.Inf(-1)) },
			"NaN stored checksum":    func(_, stored *mat.Matrix) { stored.Set(0, 4, math.NaN()) },
			"NaN and a second error": func(blk, _ *mat.Matrix) { blk.Set(2, 4, math.NaN()); blk.Add(9, 4, 3) },
			"rebuilt value overflows": func(blk, stored *mat.Matrix) {
				blk.Set(2, 4, math.NaN())
				stored.Set(0, 4, -math.MaxFloat64)
				blk.Set(3, 4, math.MaxFloat64)
			},
		} {
			blk := mat.RandGeneral(b, b, 3)
			stored := mat.New(m, b)
			EncodeBlockInto(blk, stored)
			spoil(blk, stored)
			if corrs, err := VerifyAndCorrect(blk, stored, mat.New(m, b)); err == nil {
				t.Errorf("m=%d, %s: accepted with corrections %+v", m, name, corrs)
			}
		}
	}
}

func TestHugeFiniteRepairMustVerify(t *testing.T) {
	// Bit 62 of -0.145 at row 2 makes it about -2.6e307: a finite
	// error so large that the plain syndrome absorbs every other
	// element of its column, so locating and subtracting it leaves
	// about 0, not -0.145. The thresholds of the corrupted block are
	// about 1e299 and pass that; the repaired block's must not.
	for _, m := range []int{2, 3, 4} {
		blk := mat.RandSPD(32, 7)
		stored := mat.New(m, 32)
		EncodeBlockInto(blk, stored)
		v := blk.At(2, 0)
		blk.Set(2, 0, math.Float64frombits(math.Float64bits(v)^1<<62))
		corrs, err := VerifyAndCorrect(blk, stored, mat.New(m, 32))
		if err == nil {
			t.Errorf("m=%d: element (2,0) = %v flipped at bit 62 came back as %v with corrections %+v and no error",
				m, v, blk.At(2, 0), corrs)
		}
	}
}

// fuzzBlock builds the block and stored checksums a fuzz input
// describes: a random b x b block (b from {1, 7, 32}) with its m
// checksums, then edits, each 11 bytes: an op byte (set or add a block
// element, or set a stored checksum), a 2-byte position and the 8-byte
// float64 bits.
func fuzzBlock(mraw, braw uint8, seed int64, edits []byte) (block, stored *mat.Matrix) {
	m := 2 + int(mraw)%7
	b := []int{1, 7, 32}[int(braw)%3]
	block = mat.RandGeneral(b, b, seed)
	stored = mat.New(m, b)
	EncodeBlockInto(block, stored)
	for ; len(edits) >= 11; edits = edits[11:] {
		pos := int(binary.LittleEndian.Uint16(edits[1:]))
		v := math.Float64frombits(binary.LittleEndian.Uint64(edits[3:]))
		switch edits[0] % 3 {
		case 0:
			block.Set(pos%b, pos/b%b, v)
		case 1:
			block.Add(pos%b, pos/b%b, v)
		default:
			stored.Set(pos%m, pos/m%b, v)
		}
	}
	return block, stored
}

// edit encodes one fuzzBlock edit.
func edit(op uint8, row, col, rows int, v float64) []byte {
	e := []byte{op, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint16(e[1:], uint16(row+col*rows))
	binary.LittleEndian.PutUint64(e[3:], math.Float64bits(v))
	return e
}

func FuzzVerifyAndCorrect(f *testing.F) {
	// Two errors in one column of a 32-block plus one in another: the
	// pair code must fail the block (core's uncorrectable probe).
	f.Add(uint8(0), uint8(2), int64(7), slices.Concat(edit(1, 4, 2, 32, 1e3), edit(1, 9, 2, 32, 2e3), edit(1, 7, 6, 32, 5e2)))
	// A NaN element, for m = 2 and m = 4 (core's bit-62 probe).
	f.Add(uint8(0), uint8(2), int64(7), edit(0, 11, 5, 32, math.NaN()))
	f.Add(uint8(2), uint8(2), int64(7), edit(0, 11, 5, 32, math.NaN()))
	f.Add(uint8(1), uint8(1), int64(2), slices.Concat(edit(0, 3, 3, 7, math.Inf(1)), edit(1, 0, 1, 7, 4)))
	f.Add(uint8(6), uint8(0), int64(1), edit(0, 0, 0, 1, math.Inf(-1)))
	f.Add(uint8(3), uint8(1), int64(3), slices.Concat(edit(0, 2, 2, 7, math.MaxFloat64), edit(2, 1, 2, 4, 5e-324)))
	f.Add(uint8(4), uint8(2), int64(5), slices.Concat(edit(1, 30, 31, 32, -2.5), edit(1, 3, 31, 32, 7), edit(1, 17, 31, 32, 1e-300)))
	// A located magnitude whose subtraction overflows: the repair must
	// fail rather than write -Inf.
	f.Add(uint8(0), uint8(1), int64(4), slices.Concat(edit(0, 0, 3, 7, -1.7e308), edit(0, 1, 3, 7, 0.85e308), edit(2, 0, 3, 2, -1.35e308), edit(2, 1, 3, 2, -0.5e308)))
	f.Fuzz(func(t *testing.T, mraw, braw uint8, seed int64, edits []byte) {
		block, stored := fuzzBlock(mraw, braw, seed, edits)
		before, storedBefore := block.Clone(), stored.Clone()
		corrs, err := VerifyAndCorrect(block, stored, mat.New(stored.Rows, block.Cols))
		if !sameMatrixBits(stored, storedBefore) {
			t.Fatal("stored checksums modified")
		}
		if err != nil {
			return
		}
		fixed := map[[2]int]bool{}
		for _, c := range corrs {
			old, now := before.At(c.Row, c.Col), block.At(c.Row, c.Col)
			applied := sameBits(now, old-c.Delta)
			if !finite(old) {
				applied = finite(now) // rebuilt from the plain checksum
			}
			if !applied || fixed[[2]int{c.Row, c.Col}] {
				t.Fatalf("correction %+v not applied once: %v -> %v", c, old, now)
			}
			fixed[[2]int{c.Row, c.Col}] = true
		}
		for j := 0; j < block.Cols; j++ {
			for i, v := range block.Col(j) {
				if !finite(v) {
					t.Fatalf("verified block holds %v at (%d,%d)", v, i, j)
				}
				if !fixed[[2]int{i, j}] && !sameBits(v, before.At(i, j)) {
					t.Fatalf("uncorrected element (%d,%d) changed %v -> %v", i, j, before.At(i, j), v)
				}
			}
		}
	})
}
