// Package campaign plans and executes sharded fault-injection
// reliability campaigns: a grid of (machine profile × scheme × fault
// class) cells, each expanded into seeded Poisson fault trials run on
// the sweep Scheduler, classified with reliability.Classify, journaled
// per shard for checkpointed resume, and aggregated into coverage
// rates with Wilson confidence intervals.
//
// Everything downstream of a Config is a pure function of it: the
// plan, every trial's fault scenarios, the journal identity, and the
// final report bytes. That is what makes kill-and-resume byte-identity
// testable and server-side dedup by fingerprint sound.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"abftchol/internal/core"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
)

// Config describes a whole campaign. The zero value is not runnable;
// Normalize fills documented defaults and validates the grid. All
// fields marshal explicitly so a config round-trips through the
// journal header unchanged.
type Config struct {
	// Machines are hetsim profile names (tardis, bulldozer64,
	// laptop). Default: laptop.
	Machines []string `json:"machines"`
	// Schemes are core scheme spellings (magma, cula, offline,
	// online, enhanced, scrub). Default: magma, online, enhanced.
	Schemes []string `json:"schemes"`
	// Classes are fault-class keys (fault.ParseClass spellings).
	// Default: storage-offset, storage-mantissa, storage-exponent,
	// compute-offset, storage-offset-burst.
	Classes []string `json:"classes"`

	// N is the matrix order of every trial. Default 512.
	N int `json:"n"`
	// BlockSize overrides the machine profile's block size when
	// positive. Default 0: use the profile's.
	BlockSize int `json:"block_size"`
	// K is the verification interval. Default 2.
	K int `json:"k"`
	// ChecksumVectors is the checksum code's m. Default 2 (corrects
	// one error per block column).
	ChecksumVectors int `json:"checksum_vectors"`

	// RatePerIteration is the Poisson fault arrival rate per
	// factorization iteration. Default 0.05.
	RatePerIteration float64 `json:"rate_per_iteration"`
	// Delta is the additive magnitude for offset classes; 0 means
	// fault.DefaultDelta. Ignored by bit-flip classes.
	Delta float64 `json:"delta"`
	// BurstSize is the strike count of burst classes; 0 means
	// fault.DefaultBurstSize.
	BurstSize int `json:"burst_size"`

	// TrialsPerCell is the number of independent trials per grid
	// cell. Default 200.
	TrialsPerCell int `json:"trials_per_cell"`
	// ShardTrials is the journaling granularity: trials per shard.
	// Default 50.
	ShardTrials int `json:"shard_trials"`
	// Seed roots every trial's derived fault stream.
	Seed int64 `json:"seed"`
}

// The bounds on one campaign's size. NewPlan builds every shard up
// front, about 160 B each, so MaxShards caps a plan near 16 MB; a
// million-trial campaign at the default 50 trials per shard plans
// 20,000 shards. MaxTrials caps the trials over all cells.
const (
	MaxTrials = 10_000_000
	MaxShards = 100_000
)

// DefaultSchemes is the default scheme axis: the unprotected baseline
// plus the paper's two online schemes.
func DefaultSchemes() []string { return []string{"magma", "online", "enhanced"} }

// DefaultClasses is the default fault-class axis: the three storage
// flavors, a compute strike, and the burst class that stresses
// Enhanced's per-interval correction bound.
func DefaultClasses() []string {
	return []string{"storage-offset", "storage-mantissa", "storage-exponent", "compute-offset", "storage-offset-burst"}
}

// Normalize fills defaults, validates every axis value, and returns
// the canonical config the plan, journal, and report all derive from.
// It is idempotent.
func (c Config) Normalize() (Config, error) {
	if len(c.Machines) == 0 {
		c.Machines = []string{"laptop"}
	}
	if len(c.Schemes) == 0 {
		c.Schemes = DefaultSchemes()
	}
	if len(c.Classes) == 0 {
		c.Classes = DefaultClasses()
	}
	if c.N == 0 {
		c.N = 512
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.ChecksumVectors == 0 {
		c.ChecksumVectors = 2
	}
	if c.RatePerIteration == 0 {
		c.RatePerIteration = 0.05
	}
	if c.TrialsPerCell == 0 {
		c.TrialsPerCell = 200
	}
	if c.ShardTrials == 0 {
		c.ShardTrials = 50
	}
	if c.ShardTrials > c.TrialsPerCell {
		c.ShardTrials = c.TrialsPerCell
	}
	if c.N < 0 || c.BlockSize < 0 || c.K < 0 || c.ChecksumVectors < 0 ||
		c.RatePerIteration < 0 || c.Delta < 0 || c.BurstSize < 0 ||
		c.TrialsPerCell < 0 || c.ShardTrials <= 0 {
		return Config{}, fmt.Errorf("campaign: negative config field")
	}
	// A saturating product: no factor or partial product passes
	// MaxTrials+1, so none overflows. With trials in bounds, cells and
	// shards are at most trials.
	trials := 1
	for _, f := range []int{len(c.Machines), len(c.Schemes), len(c.Classes), c.TrialsPerCell} {
		trials = min(trials*min(f, MaxTrials+1), MaxTrials+1)
	}
	if trials > MaxTrials {
		return Config{}, fmt.Errorf("campaign: %d machines × %d schemes × %d classes × %d trials exceed the bound of %d trials",
			len(c.Machines), len(c.Schemes), len(c.Classes), c.TrialsPerCell, MaxTrials)
	}
	cells := len(c.Machines) * len(c.Schemes) * len(c.Classes)
	if shards := cells * ((c.TrialsPerCell + c.ShardTrials - 1) / c.ShardTrials); shards > MaxShards {
		return Config{}, fmt.Errorf("campaign: %d shards of %d trials exceed the bound of %d shards", shards, c.ShardTrials, MaxShards)
	}
	for _, m := range c.Machines {
		if _, err := hetsim.ProfileByName(m); err != nil {
			return Config{}, fmt.Errorf("campaign: %w", err)
		}
	}
	for _, s := range c.Schemes {
		if _, err := core.ParseScheme(s); err != nil {
			return Config{}, fmt.Errorf("campaign: %w", err)
		}
	}
	for _, cl := range c.Classes {
		if _, err := fault.ParseClass(cl); err != nil {
			return Config{}, fmt.Errorf("campaign: %w", err)
		}
	}
	for _, m := range c.Machines {
		prof, _ := hetsim.ProfileByName(m)
		nb := c.BlockSize
		if nb == 0 {
			nb = prof.BlockSize
		}
		if c.N%nb != 0 || c.N/nb < 2 {
			return Config{}, fmt.Errorf("campaign: n=%d must be a multiple of block size %d with at least 2 blocks (machine %s)", c.N, nb, m)
		}
	}
	return c, nil
}

// Fingerprint is the campaign's identity: a SHA-256 over the
// canonical JSON of the normalized config. Journals and server-side
// dedup key on it, mirroring the Scheduler's per-point fingerprints.
func (c Config) Fingerprint() (string, error) {
	n, err := c.Normalize()
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
