package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/reliability"
	"abftchol/internal/reliability/campaign"
)

// The campaign workload runs the default reliability-campaign grid —
// laptop × {magma, online, enhanced} × 5 fault classes × 200 trials,
// 3000 model-plane trials — through campaign.Run on a 2-worker
// scheduler, journaling to a fresh directory. It does no blas or
// checksum arithmetic: the time goes to core/hetsim/fault bookkeeping,
// the scheduler's fan-out, classification and fsynced journal appends.
// A timed sample is a whole campaign of about a second; sub-second
// phases timed alone moved 7-14% between processes.
const campaignWorkers = 2

type campaignBench struct {
	scratch string
	cfg     campaign.Config
	plan    *campaign.Plan
	fp      string
	report  []byte // the reference run's report
}

func (c *campaignBench) setup(seed int64) error {
	return c.prepare(campaign.Config{Seed: seed})
}

// prepare plans cfg and runs it once for the reference report.
func (c *campaignBench) prepare(cfg campaign.Config) error {
	plan, err := campaign.NewPlan(cfg)
	if err != nil {
		return err
	}
	if c.fp, err = plan.Config.Fingerprint(); err != nil {
		return err
	}
	c.cfg, c.plan = cfg, plan
	c.report, _, _, err = c.runOnce()
	return err
}

// runOnce runs the campaign through campaign.Run on a fresh scheduler
// with a fresh journal and returns the report bytes and the wall and
// process CPU time campaign.Run took.
func (c *campaignBench) runOnce() ([]byte, time.Duration, time.Duration, error) {
	dir, err := os.MkdirTemp(c.scratch, "campaign-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(dir)
	sched := experiments.NewScheduler(campaignWorkers, nil)
	cpu, start := cpuTime(), time.Now()
	rep, err := campaign.Run(context.Background(), c.cfg, sched, campaign.RunOptions{JournalPath: filepath.Join(dir, "journal.jsonl")})
	took, cpu := time.Since(start), cpuTime()-cpu
	if err != nil {
		return nil, took, cpu, err
	}
	if rep.TotalTrials != c.plan.Trials() {
		return nil, took, cpu, fmt.Errorf("report tallies %d trials, the plan has %d", rep.TotalTrials, c.plan.Trials())
	}
	data, err := rep.Marshal()
	return data, took, cpu, err
}

func (c *campaignBench) measure(d time.Duration, t *tally) (sample, error) {
	trials := c.plan.Trials()
	var s sample
	m := startMeter()
	for begin := time.Now(); time.Since(begin) < d; {
		data, took, cpu, err := c.runOnce()
		if err == nil && !bytes.Equal(data, c.report) {
			err = errors.New("campaign report differs from the reference run's")
		}
		t.ops(trials, err)
		s.opMs = append(s.opMs, ms(took)/float64(trials))
		s.window(trials, cpu)
	}
	s.alloc = m.allocated()
	return s, nil
}

// replay re-runs campaign.Run's shard loop from the package's exported
// steps — Plan.TrialOptions, Scheduler.Execute, reliability.Classify,
// OpenJournal/Append and BuildReport — with a span around each, and
// returns the report bytes and the operation ID of its spans. Trials
// run on a scheduler whose run function times core.Run, so each trial
// is a child span of its shard's Execute span.
func (c *campaignBench) replay(tr *tracer) ([]byte, int64, error) {
	dir, err := os.MkdirTemp(c.scratch, "campaign-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	op := tr.newOp()
	root := tr.start(op, "campaign.replay")
	defer root.end()
	journal, done, err := campaign.OpenJournal(filepath.Join(dir, "journal.jsonl"), c.fp, c.plan.Config)
	if err != nil {
		return nil, op, err
	}
	defer journal.Close()
	if len(done) > 0 {
		return nil, op, fmt.Errorf("a fresh journal records %d shards", len(done))
	}
	// execute is the open Execute span. It is set before each Execute
	// call starts the goroutines that read it, and not changed until
	// Execute has joined them.
	var execute spanRef
	sched := experiments.NewRemoteScheduler(campaignWorkers, func(o core.Options) (core.Result, error) {
		sp := execute.child("core.trial")
		defer sp.end()
		return core.Run(o)
	})
	perCell := map[int]campaign.Counts{}
	for _, sh := range c.plan.Shards {
		shard := root.child("campaign.shard")
		sp := shard.child("fault.plan")
		points := make([]core.Options, 0, sh.Hi-sh.Lo)
		for trial := sh.Lo; trial < sh.Hi; trial++ {
			points = append(points, c.plan.TrialOptions(sh.Cell, trial))
		}
		sp.end()
		execute = shard.child("experiments.execute")
		results := sched.Execute(points, nil)
		execute.end()
		sp = shard.child("reliability.classify")
		var counts campaign.Counts
		for i, pr := range results {
			out, err := reliability.Classify(pr.Result, pr.Err)
			if err == nil {
				err = counts.Add(out)
			}
			if err != nil {
				return nil, op, fmt.Errorf("shard %d#%d trial %d: %w", sh.Cell, sh.Index, sh.Lo+i, err)
			}
		}
		sp.end()
		sp = shard.child("campaign.journal")
		err := journal.Append(campaign.ShardRecord{Cell: sh.Cell, Shard: sh.Index, Key: c.plan.Cells[sh.Cell].Key(), Counts: counts})
		sp.end()
		if err != nil {
			return nil, op, err
		}
		cell := perCell[sh.Cell]
		cell.Merge(counts)
		perCell[sh.Cell] = cell
		shard.end()
	}
	sp := root.child("campaign.report")
	data, err := campaign.BuildReport(c.plan, c.fp, perCell).Marshal()
	sp.end()
	return data, op, err
}

// layers alternates traced and untraced replays, checking each replayed
// report against campaign.Run's.
func (c *campaignBench) layers(d time.Duration, tr *tracer, t *tally) (map[string]metric, error) {
	trials := c.plan.Trials()
	var tracedOps []int64
	var tracedMs, plainMs []float64
	for i, begin := 0, time.Now(); i < 2 || time.Since(begin) < d; i++ {
		rtr := tr
		if i%2 == 1 {
			rtr = nil
		}
		start := time.Now()
		data, op, err := c.replay(rtr)
		took := ms(time.Since(start))
		if err == nil && !bytes.Equal(data, c.report) {
			err = errors.New("the replayed report differs from campaign.Run's")
		}
		t.ops(trials, err)
		if rtr == nil {
			plainMs = append(plainMs, took)
			continue
		}
		tracedMs = append(tracedMs, took)
		tracedOps = append(tracedOps, op)
	}

	spans := tr.byOp()
	perTrial := map[string][]float64{}
	var executeMs, executeSelfMs, journalMs, reportMs []float64
	var busy, executing time.Duration
	for _, op := range tracedOps {
		sums := sumByName(spans[op])
		for _, name := range []string{"fault.plan", "core.trial", "reliability.classify"} {
			perTrial[name] = append(perTrial[name], us(sums[name])/float64(trials))
		}
		busy += sums["core.trial"]
		executing += sums["experiments.execute"]
		children := childrenByParent(spans[op])
		for _, s := range spans[op] {
			switch s.Name {
			case "experiments.execute":
				executeMs = append(executeMs, ms(s.dur()))
				executeSelfMs = append(executeSelfMs, ms(selfTime(s, children[s.ID])))
			case "campaign.journal":
				journalMs = append(journalMs, ms(s.dur()))
			case "campaign.report":
				reportMs = append(reportMs, ms(s.dur()))
			}
		}
	}
	return map[string]metric{
		"fault.plan_us":               {median(perTrial["fault.plan"]), "us"},
		"core.trial_us":               {median(perTrial["core.trial"]), "us"},
		"reliability.classify_us":     {median(perTrial["reliability.classify"]), "us"},
		"experiments.execute_ms":      {median(executeMs), "ms"},
		"experiments.self_ms":         {median(executeSelfMs), "ms"},
		"experiments.busy_share":      {busy.Seconds() / (campaignWorkers * executing.Seconds()), "ratio"},
		"campaign.journal_ms":         {median(journalMs), "ms"},
		"campaign.report_ms":          {median(reportMs), "ms"},
		"trace.campaign_overhead_pct": {100 * (median(tracedMs)/median(plainMs) - 1), "%"},
	}, nil
}

func (*campaignBench) rescaled() bool { return false }
