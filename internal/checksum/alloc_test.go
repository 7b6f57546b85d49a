//go:build !race

package checksum

import (
	"testing"

	"abftchol/internal/mat"
)

// Runtime pin of the // abft:hotpath contract for the checksum layer:
// encoding, for m = 2 (blas.ColChecksums), m = 4 and m = 9 (the scalar
// loop, whose stack weight table takes four vectors per pass), and the
// three update routines, UpdatePOTF2 over one and two column chunks,
// allocate nothing per call.

func TestChecksumHotPathDoesNotAllocate(t *testing.T) {
	const b = 32
	blk := mat.New(b, b)
	for j := 0; j < b; j++ {
		for i := 0; i < b; i++ {
			blk.Set(i, j, float64((i*7+j*3)%11)-5)
		}
	}
	chk2 := mat.New(2, b)
	chk4 := mat.New(4, b)
	chk9 := mat.New(9, b)
	la := mat.New(b, b)
	for j := 0; j < b; j++ {
		la.Set(j, j, 2)
		for i := j + 1; i < b; i++ {
			la.Set(i, j, 1/(1+float64(i-j)))
		}
	}
	// b = 65 runs UpdatePOTF2's second column chunk.
	la65 := mat.Eye(65)
	chk65 := mat.New(2, 65)
	chk65.Fill(1)
	panel := mat.New(b, b)
	panel.CopyFrom(blk)

	cases := []struct {
		name string
		fn   func()
	}{
		{"EncodeBlockInto", func() { EncodeBlockInto(blk, chk2) }},
		{"EncodeBlockInto/m=4", func() { EncodeBlockInto(blk, chk4) }},
		{"EncodeBlockInto/m=9", func() { EncodeBlockInto(blk, chk9) }},
		{"UpdateRankK", func() { UpdateRankK(chk2, chk2, panel) }},
		{"UpdateTRSM", func() { UpdateTRSM(chk2, la) }},
		{"UpdatePOTF2", func() { UpdatePOTF2(chk2, la) }},
		{"UpdatePOTF2/b=65", func() { UpdatePOTF2(chk65, la65) }},
	}
	for _, c := range cases {
		c.fn() // warm sync.Pool state in the BLAS layer underneath
		if avg := testing.AllocsPerRun(10, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.name, avg)
		}
	}
}
