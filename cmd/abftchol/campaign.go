package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"abftchol/internal/experiments"
	"abftchol/internal/reliability/campaign"
)

// campaignArgs bundles the -campaign mode's flags. The grid axes get
// their own flags; the per-trial knobs reuse the -run/-choose-k
// spellings (-n, -k, -vectors, -rate, -delta, -seed), and set records
// which of those the user spelled explicitly so untouched flags fall
// through to campaign.Config defaults instead of the -run defaults.
type campaignArgs struct {
	machines, schemes, classes string
	dir, out                   string
	trials, shardTrials        int
	n, k, vectors              int
	rate, delta                float64
	seed                       int64
	set                        map[string]bool
	server                     string
	workers                    int
}

// runCampaign executes (or resumes) a reliability campaign. Local runs
// journal per shard under -campaign-dir, keyed by the campaign
// fingerprint, so a killed run resumes where it stopped and produces
// bytes identical to an uninterrupted one. With -server the whole
// campaign runs on the daemon (which dedups identical configs); the
// report bytes are identical either way.
func runCampaign(a campaignArgs) error {
	cfg := campaign.Config{
		Machines: splitList(a.machines),
		Schemes:  splitList(a.schemes),
		Classes:  splitList(a.classes),
	}
	if a.set["n"] {
		cfg.N = a.n
	}
	if a.set["k"] {
		cfg.K = a.k
	}
	if a.set["vectors"] {
		cfg.ChecksumVectors = a.vectors
	}
	if a.set["rate"] {
		cfg.RatePerIteration = a.rate
	}
	if a.set["delta"] {
		cfg.Delta = a.delta
	}
	if a.set["seed"] {
		cfg.Seed = a.seed
	}
	cfg.TrialsPerCell = a.trials
	cfg.ShardTrials = a.shardTrials
	cfg, err := cfg.Normalize()
	if err != nil {
		return err
	}

	var data []byte
	if a.server != "" {
		if data, err = newClient(a.server).RunCampaign(cfg); err != nil {
			return err
		}
	} else {
		opts := campaign.RunOptions{Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "abftchol: "+format+"\n", args...)
		}}
		if a.dir != "" {
			fp, err := cfg.Fingerprint()
			if err != nil {
				return err
			}
			opts.JournalPath = filepath.Join(a.dir, fp[:16]+".jsonl")
		}
		rep, err := campaign.Run(context.Background(), cfg, experiments.NewScheduler(a.workers, nil), opts)
		if err != nil {
			return err
		}
		if data, err = rep.Marshal(); err != nil {
			return err
		}
	}
	if a.out != "" {
		return os.WriteFile(a.out, data, 0o644)
	}
	_, err = os.Stdout.Write(data)
	return err
}

// splitList turns a comma-separated flag value into its elements,
// dropping empty entries; "" means "use the default axis".
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
