//go:build !race

package checksum

import (
	"testing"

	"abftchol/internal/mat"
)

// Runtime pin of the // abft:hotpath contract for the checksum layer:
// encoding and the three update routines allocate nothing per call.
// MultiCode.EncodeInto is not abft:hotpath, since codes of more than
// eight vectors allocate their accumulator, so this test is what pins
// it at zero for m=4.

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
	code := NewMultiCode(4, b)
	la := mat.New(b, b)
	for j := 0; j < b; j++ {
		la.Set(j, j, 2)
		for i := j + 1; i < b; i++ {
			la.Set(i, j, 1/(1+float64(i-j)))
		}
	}
	panel := mat.New(b, b)
	panel.CopyFrom(blk)

	cases := []struct {
		name string
		fn   func()
	}{
		{"EncodeBlockInto", func() { EncodeBlockInto(blk, chk2) }},
		{"MultiCode.EncodeInto", func() { code.EncodeInto(blk, chk4) }},
		{"UpdateRankK", func() { UpdateRankK(chk2, chk2, panel) }},
		{"UpdateTRSM", func() { UpdateTRSM(chk2, la) }},
		{"UpdatePOTF2", func() { UpdatePOTF2(chk2, la) }},
	}
	for _, c := range cases {
		c.fn() // warm sync.Pool state in the BLAS layer underneath
		if avg := testing.AllocsPerRun(10, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.name, avg)
		}
	}
}
