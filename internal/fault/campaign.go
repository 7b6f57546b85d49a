package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Strike says which hardware event a campaign fault models.
type Strike int

const (
	// StrikeStorage is a memory soft error: the corruption lands in an
	// already-factored, already-verified block that sat in device
	// memory and will be read again — the error class Enhanced's
	// verify-before-read discipline exists for (§III).
	StrikeStorage Strike = iota
	// StrikeCompute is a kernel error: a GEMM output element comes out
	// wrong while its checksum, maintained by the separate update
	// kernel, stays right — the error class Online-ABFT's post-write
	// verification catches immediately.
	StrikeCompute
)

var strikeKeys = map[Strike]string{
	StrikeStorage: "storage",
	StrikeCompute: "compute",
}

func (s Strike) String() string {
	if k, ok := strikeKeys[s]; ok {
		return k
	}
	return fmt.Sprintf("Strike(%d)", int(s))
}

// Flavor says how a campaign fault perturbs the struck element.
type Flavor int

const (
	// FlavorOffset adds CampaignConfig.Delta to the element (the
	// paper's injection style: a moderate additive error that keeps
	// the matrix positive definite).
	FlavorOffset Flavor = iota
	// FlavorMantissa flips one high mantissa bit (bits 20–51) of the
	// IEEE-754 representation: a material relative error below the
	// exponent field.
	FlavorMantissa
	// FlavorExponent flips one exponent bit (bits 52–62): a large,
	// magnitude-changing, ECC-escaping corruption.
	FlavorExponent
)

var flavorKeys = map[Flavor]string{
	FlavorOffset:   "offset",
	FlavorMantissa: "mantissa",
	FlavorExponent: "exponent",
}

func (f Flavor) String() string {
	if k, ok := flavorKeys[f]; ok {
		return k
	}
	return fmt.Sprintf("Flavor(%d)", int(f))
}

// The bit ranges the flip flavors draw from. Mantissa flips start at
// bit 20 so the corruption stays material (low mantissa bits perturb
// by parts in 2³², indistinguishable from rounding); bit 63 is the
// sign and is left alone so offsets and flips stay comparable.
const (
	mantissaBitLo = 20
	mantissaBitHi = 52 // exclusive
	exponentBitLo = 52
	exponentBitHi = 63 // exclusive
)

// Class names one fault class of a reliability campaign: where the
// fault strikes, how it perturbs the value, and whether faults arrive
// as multi-fault bursts. The zero value — a single additive storage
// error — is the paper's standard memory-error experiment.
type Class struct {
	Strike Strike
	Flavor Flavor
	// Burst makes every Poisson arrival a burst of BurstSize faults in
	// the same block column during the same iteration — inside one
	// verification interval for every K, which is where a checksum code
	// correcting ⌊m/2⌋ errors per column actually gets stressed.
	Burst bool
}

// Key is the class's canonical spelling, e.g. "storage-offset" or
// "compute-exponent-burst" — the words campaign configs, journals, and
// BENCH_reliability.json cells use.
func (c Class) Key() string {
	k := c.Strike.String() + "-" + c.Flavor.String()
	if c.Burst {
		k += "-burst"
	}
	return k
}

// MarshalJSON writes the class as its Key string.
func (c Class) MarshalJSON() ([]byte, error) {
	if _, ok := strikeKeys[c.Strike]; !ok {
		return nil, fmt.Errorf("fault: unknown strike %d", int(c.Strike))
	}
	if _, ok := flavorKeys[c.Flavor]; !ok {
		return nil, fmt.Errorf("fault: unknown flavor %d", int(c.Flavor))
	}
	return json.Marshal(c.Key())
}

// UnmarshalJSON parses the Key spelling.
func (c *Class) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseClass(s)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// ParseClass resolves a class Key, e.g. "storage-offset" or
// "compute-mantissa-burst".
func ParseClass(s string) (Class, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "-")
	if len(parts) == 3 && parts[2] == "burst" {
		c, err := ParseClass(parts[0] + "-" + parts[1])
		c.Burst = true
		return c, err
	}
	if len(parts) != 2 {
		return Class{}, fmt.Errorf("fault: bad class %q (want strike-flavor[-burst], e.g. storage-offset)", s)
	}
	var c Class
	switch parts[0] {
	case "storage", "memory":
		c.Strike = StrikeStorage
	case "compute", "computation":
		c.Strike = StrikeCompute
	default:
		return Class{}, fmt.Errorf("fault: bad strike %q in class %q (want storage or compute)", parts[0], s)
	}
	switch parts[1] {
	case "offset":
		c.Flavor = FlavorOffset
	case "mantissa":
		c.Flavor = FlavorMantissa
	case "exponent":
		c.Flavor = FlavorExponent
	default:
		return Class{}, fmt.Errorf("fault: bad flavor %q in class %q (want offset, mantissa, or exponent)", parts[1], s)
	}
	return c, nil
}

// Classes enumerates every fault class in canonical order: the six
// single-fault strike×flavor combinations, then their burst variants.
func Classes() []Class {
	var out []Class
	for _, burst := range []bool{false, true} {
		for _, st := range []Strike{StrikeStorage, StrikeCompute} {
			for _, fl := range []Flavor{FlavorOffset, FlavorMantissa, FlavorExponent} {
				out = append(out, Class{Strike: st, Flavor: fl, Burst: burst})
			}
		}
	}
	return out
}

// Describe is the one-line meaning of the class, used by the generated
// taxonomy table in docs/RELIABILITY.md.
func (c Class) Describe() string {
	var where, how string
	switch c.Strike {
	case StrikeCompute:
		where = "a GEMM output element is written wrong while its checksum, updated separately, stays right"
	default:
		where = "an already-factored, already-verified block is corrupted in memory before being read again"
	}
	switch c.Flavor {
	case FlavorMantissa:
		how = fmt.Sprintf("one high mantissa bit (bits %d–%d) flips", mantissaBitLo, mantissaBitHi-1)
	case FlavorExponent:
		how = fmt.Sprintf("one exponent bit (bits %d–%d) flips", exponentBitLo, exponentBitHi-1)
	default:
		how = "Delta is added to the element (default DefaultDelta)"
	}
	s := where + "; " + how
	if c.Burst {
		s += "; each arrival is a burst of BurstSize faults in one block column within a single iteration"
	}
	return s
}

// DefaultDelta is the additive corruption magnitude offset-flavor
// campaigns use when CampaignConfig.Delta is zero: large enough that a
// struck element is far outside checksum tolerance, small enough that
// the matrix stays positive definite on the real plane (matching the
// paper's moderate-magnitude injections). Flip flavors ignore Delta —
// their magnitude is whatever the flipped bit changes.
const DefaultDelta = 100.0

// DefaultBurstSize is the burst width used when a burst-class config
// leaves BurstSize zero: two faults in one block column, one more than
// the paper's m=2 checksum code corrects.
const DefaultBurstSize = 2

// CampaignConfig describes a randomized fault campaign: the
// multi-error workload used to study Optimization 3's trade-off
// between verification interval and protection strength (§V-C: "K is
// a parameter related to the failure rate of the system") and to
// measure detection/correction coverage at scale. The zero value of
// Class/Delta/BurstSize means: single additive storage errors of
// magnitude DefaultDelta — the original campaign semantics.
type CampaignConfig struct {
	// Blocks is the block count per matrix dimension (n / B).
	Blocks int `json:"blocks"`
	// BlockSize is B, used to pick elements inside a block.
	BlockSize int `json:"block_size"`
	// RatePerIteration is the expected number of fault arrivals per
	// outer iteration (Poisson).
	RatePerIteration float64 `json:"rate_per_iteration"`
	// Seed makes the campaign reproducible; each outer iteration draws
	// from its own SubSeed-derived stream, so generating the whole
	// campaign at once and concatenating per-iteration CampaignAt
	// slices yield identical scenarios.
	Seed int64 `json:"seed"`
	// Class picks where faults strike and how they perturb values.
	Class Class `json:"class"`
	// Delta is the additive magnitude for offset-flavor classes; zero
	// means DefaultDelta (made explicit by Normalized). Flip flavors
	// force it to zero — the Scenario then carries a Bit instead.
	Delta float64 `json:"delta"`
	// BurstSize is the faults per arrival for burst classes; zero
	// means DefaultBurstSize. Non-burst classes force it to zero.
	// Clamped to BlockSize (burst rows are distinct within a column).
	BurstSize int `json:"burst_size"`
}

// Normalized returns the config with every implicit default resolved:
// the Delta and BurstSize semantics of the configured class are made
// explicit, so two configs generate identical campaigns if and only
// if their normalized forms are equal. Campaign journals store the
// config exactly as given (a zero-value config round-trips unchanged)
// and normalize at the point of use.
func (cfg CampaignConfig) Normalized() CampaignConfig {
	switch cfg.Class.Flavor {
	case FlavorMantissa, FlavorExponent:
		cfg.Delta = 0 // magnitude comes from the flipped bit
	default:
		if cfg.Delta == 0 {
			cfg.Delta = DefaultDelta
		}
	}
	if cfg.Class.Burst {
		if cfg.BurstSize <= 0 {
			cfg.BurstSize = DefaultBurstSize
		}
		if cfg.BlockSize > 0 && cfg.BurstSize > cfg.BlockSize {
			cfg.BurstSize = cfg.BlockSize
		}
	} else {
		cfg.BurstSize = 0
	}
	return cfg
}

// SubSeed derives the RNG seed of one campaign iteration from the
// campaign seed (a splitmix64-style avalanche, so neighboring
// iterations get uncorrelated streams). Exported because the campaign
// engine reuses the same mix to derive per-trial seeds from a master
// seed, keeping every shard of a sharded campaign independently
// reproducible.
func SubSeed(seed int64, iter int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(int64(iter)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Campaign generates a reproducible list of fault scenarios: at each
// outer iteration j >= 1, a Poisson(RatePerIteration) number of
// arrivals strike per the configured Class. Storage strikes land in a
// uniformly random still-live factored block — a block (i, k) with
// k < j <= i, i.e. data that has been written and will be read again.
// Compute strikes land in a uniformly random GEMM output of the
// iteration — a trailing block (i, j) with j < i. Equivalent to
// concatenating CampaignAt over every iteration.
func Campaign(cfg CampaignConfig) []Scenario {
	cfg = cfg.Normalized()
	rng := rand.New(newStream(0))
	var out []Scenario
	for j := 1; j < cfg.Blocks; j++ {
		out = campaignAt(out, cfg, rng, j)
	}
	return out
}

// CampaignAt generates iteration iter's slice of the campaign alone.
// The per-iteration RNG stream is derived with SubSeed, so a campaign
// can be generated in one pass or split across iterations (or shards)
// without changing a single scenario.
func CampaignAt(cfg CampaignConfig, iter int) []Scenario {
	return campaignAt(nil, cfg.Normalized(), rand.New(newStream(0)), iter)
}

// campaignAt appends iteration j's scenarios to out. It requires a
// normalized config, and re-seeds rng with the iteration's SubSeed:
// rand.Rand.Seed restarts the source and drops any buffered draws, so
// one rng serves every iteration of a campaign.
func campaignAt(out []Scenario, cfg CampaignConfig, rng *rand.Rand, j int) []Scenario {
	if j < 1 || j >= cfg.Blocks {
		return out
	}
	if cfg.Class.Strike == StrikeCompute && j >= cfg.Blocks-1 {
		// The last iteration has no trailing blocks, hence no GEMM to
		// mis-compute.
		return out
	}
	rng.Seed(SubSeed(cfg.Seed, j))
	for n := poisson(rng, cfg.RatePerIteration); n > 0; n-- {
		out = append(out, strike(cfg, rng, j)...)
	}
	return out
}

// strike draws one arrival at iteration j: a single scenario, or
// BurstSize scenarios in one block column for burst classes. The draw
// order (block, column, rows, bits) is fixed — it is part of the
// campaign's reproducibility contract.
func strike(cfg CampaignConfig, rng *rand.Rand, j int) []Scenario {
	base := Scenario{Iter: j, Delta: cfg.Delta}
	if cfg.Class.Strike == StrikeCompute {
		base.Kind = Computation
		base.Op = OpGEMM
		base.BJ = j
		base.BI = j + 1 + rng.Intn(cfg.Blocks-j-1)
	} else {
		base.Kind = Storage
		base.BJ = rng.Intn(j)                // factored column
		base.BI = j + rng.Intn(cfg.Blocks-j) // row at or below the current panel
	}
	base.Col = rng.Intn(cfg.BlockSize)
	count := 1
	if cfg.Class.Burst {
		count = cfg.BurstSize
	}
	rows := []int{rng.Intn(cfg.BlockSize)}
	if count > 1 {
		rows = rng.Perm(cfg.BlockSize)[:count] // distinct rows, one column
	}
	out := make([]Scenario, count)
	for i := range out {
		s := base
		s.Row = rows[i]
		switch cfg.Class.Flavor {
		case FlavorMantissa:
			s.Bit = mantissaBitLo + rng.Intn(mantissaBitHi-mantissaBitLo)
		case FlavorExponent:
			s.Bit = exponentBitLo + rng.Intn(exponentBitHi-exponentBitLo)
		}
		out[i] = s
	}
	return out
}

// poisson draws from Poisson(lambda) by Knuth's method; fine for the
// small rates the campaigns use.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
