package campaign

import (
	"context"
	"fmt"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/obs"
	"abftchol/internal/reliability"
)

// RunOptions configures one campaign execution.
type RunOptions struct {
	// JournalPath, when set, checkpoints every completed shard to
	// this append-only JSONL file and resumes from it on reopen.
	// Empty: in-memory only.
	JournalPath string
	// Metrics receives campaign.* accounting (nil: none).
	Metrics *obs.Registry
	// Logf receives coarse progress lines (nil: silent).
	Logf func(format string, args ...any)
}

func (o RunOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o RunOptions) inc(name string, d int64) {
	if o.Metrics != nil {
		o.Metrics.Add(name, d)
	}
}

// Run executes (or resumes) the campaign described by cfg on the
// given scheduler and returns its aggregated report. Shards execute
// in plan order; each shard's trials fan over the scheduler's worker
// pool, each trial is classified, and the shard's tally is journaled
// before the next shard starts. Cancellation is observed between
// shards — a canceled run returns an error wrapping ctx.Err(), and
// whatever the journal checkpointed resumes on the next Run. The
// returned report is a pure function of cfg — independent of
// scheduling order, resume points, and worker count.
func Run(ctx context.Context, cfg Config, sched *experiments.Scheduler, opts RunOptions) (*Report, error) {
	if sched == nil {
		return nil, fmt.Errorf("campaign: nil scheduler")
	}
	if sched.Remote() {
		// A remote trial comes back without its Result.Failure (a
		// failed job carries only its error text and wire code), and a
		// campaign's trials run server-side as one job kind anyway:
		// shipping ~10⁴ individual trial jobs over HTTP would swamp the
		// admission queue, and the shard journal could not checkpoint
		// them.
		return nil, fmt.Errorf("campaign: cannot classify trials through a remote scheduler; submit a campaign job to the daemon instead")
	}
	plan, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	fp, err := plan.Config.Fingerprint()
	if err != nil {
		return nil, err
	}

	var journal *Journal
	done := map[ShardKey]Counts{}
	if opts.JournalPath != "" {
		journal, done, err = OpenJournal(opts.JournalPath, fp, plan.Config)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	opts.inc("campaign.cells.planned", int64(len(plan.Cells)))
	opts.inc("campaign.shards.planned", int64(len(plan.Shards)))
	opts.inc("campaign.trials.planned", int64(plan.Trials()))
	opts.logf("campaign %.12s: %d cells, %d shards, %d trials (%d shards journaled)",
		fp, len(plan.Cells), len(plan.Shards), plan.Trials(), len(done))

	perCell := map[int]Counts{}
	resumed := 0
	for _, sh := range plan.Shards {
		// Re-check cancellation at every shard boundary: a daemon
		// shutdown (or a canceled CLI run) stops after the in-flight
		// shard, and the journal keeps what completed.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("campaign %.12s: canceled at a shard boundary: %w", fp, err)
		}
		cell := plan.Cells[sh.Cell]
		if counts, ok := done[ShardKey{sh.Cell, sh.Index}]; ok {
			c := perCell[sh.Cell]
			c.Merge(counts)
			perCell[sh.Cell] = c
			resumed++
			continue
		}
		points := make([]core.Options, 0, sh.Hi-sh.Lo)
		for trial := sh.Lo; trial < sh.Hi; trial++ {
			points = append(points, plan.TrialOptions(sh.Cell, trial))
		}
		results := sched.Execute(points, nil)
		var counts Counts
		for i, pr := range results {
			out, cerr := reliability.Classify(pr.Result, pr.Err)
			if cerr != nil {
				return nil, fmt.Errorf("campaign: cell %s trial %d: %w", cell.Key(), sh.Lo+i, cerr)
			}
			if err := counts.Add(out); err != nil {
				return nil, err
			}
		}
		if journal != nil {
			if err := journal.Append(ShardRecord{Cell: sh.Cell, Shard: sh.Index, Key: cell.Key(), Counts: counts}); err != nil {
				return nil, err
			}
		}
		c := perCell[sh.Cell]
		c.Merge(counts)
		perCell[sh.Cell] = c
		opts.inc("campaign.shards.executed", 1)
		opts.inc("campaign.trials.executed", int64(counts.Total()))
		opts.inc("campaign.outcome.clean", int64(counts.Clean))
		opts.inc("campaign.outcome.detected_corrected", int64(counts.Corrected))
		opts.inc("campaign.outcome.detected_uncorrectable", int64(counts.Uncorrectable))
		opts.inc("campaign.outcome.silent_corruption", int64(counts.Silent))
	}
	opts.inc("campaign.shards.resumed", int64(resumed))
	if resumed > 0 {
		opts.logf("campaign %.12s: resumed %d of %d shards from journal", fp, resumed, len(plan.Shards))
	}
	return BuildReport(plan, fp, perCell), nil
}
