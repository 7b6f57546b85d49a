package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestStreamFastPathOn fails when newStream has fallen back to
// rand.NewSource on this toolchain: the campaigns would still be right,
// but several times slower.
func TestStreamFastPathOn(t *testing.T) {
	if cooked == nil {
		t.Fatal("math/rand's seeding table could not be read back; newStream is on its rand.NewSource fallback")
	}
	if _, ok := newStream(1).(*streamSource); !ok {
		t.Fatalf("newStream returned %T, want *streamSource", newStream(1))
	}
}

// streamSeeds are the seeds the stream tests compare: the edges of the
// seed reduction (0, ±1, multiples of 2^31−1 and their neighbours, the
// int64 extremes), then SubSeed-derived and pseudo-random seeds.
func streamSeeds(n int) []int64 {
	seeds := []int64{0, 1, -1, 2, -2, 89482311, lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod,
		lcgMod - 1, lcgMod + 1, -lcgMod + 1, -lcgMod - 1, 2 * lcgMod * lcgMod, -2 * lcgMod * lcgMod,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32, 1 << 31, -1 << 31, 1 << 62}
	for j := 0; len(seeds) < n/2; j++ {
		seeds = append(seeds, SubSeed(int64(j), j%15))
	}
	gen := rand.New(rand.NewSource(99))
	for len(seeds) < n {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

// TestStreamMatchesMathRand draws at least 700 mixed values per seed
// from newStream and from rand.NewSource, crossing the hand-over at
// draw 273, and requires every value to agree.
func TestStreamMatchesMathRand(t *testing.T) {
	ops := rand.New(rand.NewSource(5))
	for _, seed := range streamSeeds(3000) {
		got, want := rand.New(newStream(seed)), rand.New(rand.NewSource(seed))
		for draws := 0; draws < 700; {
			var g, w any
			switch op := ops.Intn(6); op {
			case 0:
				g, w = got.Int63(), want.Int63()
				draws++
			case 1:
				g, w = got.Uint64(), want.Uint64()
				draws++
			case 2:
				g, w = got.Float64(), want.Float64()
				draws++
			case 3:
				n := 1 + ops.Intn(100)
				g, w = got.Intn(n), want.Intn(n)
				draws++
			case 4:
				n := 1 + ops.Intn(40)
				g, w = got.Perm(n), want.Perm(n)
				draws += n
			default:
				n := int64(1) << 40
				g, w = got.Int63n(n+3), want.Int63n(n+3)
				draws++
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d, draw %d: got %v, math/rand gives %v", seed, draws, g, w)
			}
		}
	}
}

// TestStreamSeedRestarts checks that Seed rewinds the source, also
// after it has handed over to the full rand.NewSource state.
func TestStreamSeedRestarts(t *testing.T) {
	s := newStream(3)
	for range streamTap + 10 {
		s.Uint64()
	}
	for _, seed := range []int64{3, -11, 0} {
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := range streamTap + 10 {
			if g, w := s.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d after reseeding, draw %d: got %d, want %d", seed, k, g, w)
			}
		}
	}
}

// TestCampaignSameOnFallback generates campaigns of every class with
// the fast stream and with rand.NewSource itself, and requires them to
// be identical.
func TestCampaignSameOnFallback(t *testing.T) {
	fast := cooked
	defer func() { cooked = fast }()
	var cfgs []CampaignConfig
	for _, class := range Classes() {
		for seed := int64(-3); seed < 6; seed++ {
			for _, rate := range []float64{0.05, 0.7, 3} {
				cfgs = append(cfgs, CampaignConfig{Blocks: 12, BlockSize: 64, RatePerIteration: rate, Seed: seed, Class: class, BurstSize: 5})
			}
		}
	}
	want := make([][]Scenario, len(cfgs))
	cooked = nil
	for i, cfg := range cfgs {
		want[i] = Campaign(cfg)
	}
	cooked = fast
	for i, cfg := range cfgs {
		if got := Campaign(cfg); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%+v: fast stream gives %v, rand.NewSource %v", cfg, got, want[i])
		}
	}
}

func TestMulMod(t *testing.T) {
	gen := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a, b := uint64(gen.Int63n(lcgMod)), uint64(gen.Int63n(lcgMod))
		if i < 4 {
			a, b = lcgMod-1, uint64(i) // the range's edges
		}
		if got, want := mulMod(a, b), a*b%lcgMod; got != want {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

func BenchmarkCampaignAt(b *testing.B) {
	cfg := CampaignConfig{Blocks: 16, BlockSize: 64, RatePerIteration: 0.05, Seed: 1}.Normalized()
	rng := rand.New(newStream(0))
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		for j := 1; j < cfg.Blocks; j++ {
			campaignAt(nil, cfg, rng, j)
		}
	}
}
