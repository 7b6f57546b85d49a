package fault

import (
	"math/rand"
	"reflect"
)

// Campaign iterations each draw from their own math/rand stream, but
// most draw once: at the default rates 95% of iterations take one
// Float64 for the Poisson count and strike nothing. rand.NewSource
// seeds all 607 words of its lagged-Fibonacci state up front, 1,841
// serial LCG steps, which cost far more than the draws. newStream
// returns the same stream, seed for seed, and computes only the state
// words a draw reads.
//
// math/rand seeds word i of its state as
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// where x[t] = 48271^t · x[0] mod (2^31−1) and x[0] is the reduced
// seed. Draw k returns vec[333−k] + vec[606−k] and stores the sum in
// vec[333−k], so for k < 273 both words are still as seeded. Draw 273
// reads vec[333], the first word written; from there on newStream
// hands over to a real rand.NewSource wound forward past the draws
// already made.
const (
	streamLen = 607              // math/rand's state length
	streamTap = 273              // draws before a written word is read
	lcgMod    = 1<<31 - 1        // the seeding LCG's modulus
	lcgMul    = 48271            // and multiplier
	lcgSteps  = 21 + 3*streamLen // x[0] .. x[1841]
)

// cooked is rngCooked, math/rand's seeding constant, or nil when it
// cannot be read back (newStream then returns rand.NewSource itself).
// lcgPow[t] is 48271^t mod (2^31−1).
var (
	cooked *[streamLen]int64
	lcgPow [lcgSteps]uint64
)

func init() {
	lcgPow[0] = 1
	for t := 1; t < lcgSteps; t++ {
		lcgPow[t] = mulMod(lcgPow[t-1], lcgMul)
	}
	if c := readCooked(); c != nil && streamMatches(c) {
		cooked = c
	}
}

// readCooked recovers rngCooked from a source seeded with 1: the
// seeded state is vec[i] = u_i ^ rngCooked[i], and u_i is computable.
// It returns nil if math/rand's source does not have the expected
// state field.
func readCooked() *[streamLen]int64 {
	v := reflect.ValueOf(rand.NewSource(1))
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return nil
	}
	vec := v.Elem().FieldByName("vec")
	if vec.Kind() != reflect.Array || vec.Len() != streamLen || vec.Type().Elem().Kind() != reflect.Int64 {
		return nil
	}
	var c [streamLen]int64
	for i := range c {
		c[i] = vec.Index(i).Int() ^ lcgWord(1, i)
	}
	return &c
}

// streamMatches checks c against math/rand across the hand-over for
// a few seeds, so a toolchain whose source advances differently falls
// back to rand.NewSource instead of producing a different stream.
func streamMatches(c *[streamLen]int64) bool {
	for _, seed := range []int64{1, -2, 1<<40 + 3} {
		want := rand.NewSource(seed).(rand.Source64)
		got := newStreamFrom(seed, c)
		for k := 0; k < streamTap+8; k++ {
			if got.Uint64() != want.Uint64() {
				return false
			}
		}
	}
	return true
}

// mulMod returns a·b mod 2^31−1 for a, b < 2^31.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lcgMod + p>>31
	if r >= lcgMod {
		r -= lcgMod
	}
	return r
}

// streamSource is math/rand's source for one seed, seeded lazily. It
// implements rand.Source64.
type streamSource struct {
	seed   int64
	x0     uint64 // the seed reduced as rngSource.Seed reduces it
	k      int    // draws taken
	cooked *[streamLen]int64
	full   rand.Source64 // the real source, from draw streamTap on
}

// newStream returns a rand.Source64 whose stream is rand.NewSource's
// for the same seed.
func newStream(seed int64) rand.Source64 {
	if cooked == nil {
		return rand.NewSource(seed).(rand.Source64)
	}
	return newStreamFrom(seed, cooked)
}

func newStreamFrom(seed int64, c *[streamLen]int64) *streamSource {
	s := &streamSource{cooked: c}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed.
func (s *streamSource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	*s = streamSource{seed: seed, x0: uint64(x), cooked: s.cooked}
}

// lcgWord is state word i of the seed reduced to x0, before the XOR
// with rngCooked.
func lcgWord(x0 uint64, i int) int64 {
	t := 21 + 3*i
	return int64(mulMod(lcgPow[t], x0))<<40 ^
		int64(mulMod(lcgPow[t+1], x0))<<20 ^
		int64(mulMod(lcgPow[t+2], x0))
}

// word returns state word i as seeded.
func (s *streamSource) word(i int) int64 {
	return lcgWord(s.x0, i) ^ s.cooked[i]
}

// Uint64 returns the next value of the stream.
func (s *streamSource) Uint64() uint64 {
	if s.full == nil {
		if s.k < streamTap {
			k := s.k
			s.k++
			return uint64(s.word(streamLen-streamTap-1-k) + s.word(streamLen-1-k))
		}
		s.full = rand.NewSource(s.seed).(rand.Source64)
		for range s.k {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// Int63 returns the next value of the stream with the top bit cleared.
func (s *streamSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
