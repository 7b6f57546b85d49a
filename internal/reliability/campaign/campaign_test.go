package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/obs"
)

// quickConfig is a small deterministic campaign used by the identity
// tests: 4 shards per cell so resume has real work to skip.
func quickConfig() Config {
	return Config{
		Schemes:          []string{"magma", "online", "enhanced"},
		Classes:          []string{"storage-offset", "storage-offset-burst"},
		N:                256,
		RatePerIteration: 0.2,
		TrialsPerCell:    24,
		ShardTrials:      6,
		Seed:             11,
	}
}

func runBytes(t *testing.T, cfg Config, workers int, journal string) []byte {
	t.Helper()
	r, err := Run(context.Background(), cfg, experiments.NewScheduler(workers, nil), RunOptions{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPlanShape(t *testing.T) {
	plan, err := NewPlan(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: 1 machine × 3 schemes × 5 classes, 200 trials in
	// 50-trial shards.
	if len(plan.Cells) != 15 {
		t.Fatalf("%d cells", len(plan.Cells))
	}
	if len(plan.Shards) != 15*4 {
		t.Fatalf("%d shards", len(plan.Shards))
	}
	if plan.Trials() != 15*200 {
		t.Fatalf("%d trials", plan.Trials())
	}
	// Shards tile each cell's trial range exactly.
	covered := map[int]int{}
	for _, sh := range plan.Shards {
		if sh.Lo >= sh.Hi {
			t.Fatalf("empty shard %+v", sh)
		}
		covered[sh.Cell] += sh.Hi - sh.Lo
	}
	for _, cell := range plan.Cells {
		if covered[cell.Index] != 200 {
			t.Fatalf("cell %s covers %d trials", cell.Key(), covered[cell.Index])
		}
		if !strings.Contains(cell.Key(), "/") {
			t.Fatalf("cell key %q", cell.Key())
		}
	}
	// Trial options are single-attempt and deterministic per index.
	a := plan.TrialOptions(3, 7)
	b := plan.TrialOptions(3, 7)
	if a.MaxAttempts != 1 {
		t.Fatalf("MaxAttempts = %d", a.MaxAttempts)
	}
	if len(a.Scenarios) != len(b.Scenarios) {
		t.Fatal("trial options not deterministic")
	}
	for i := range a.Scenarios {
		if a.Scenarios[i] != b.Scenarios[i] {
			t.Fatal("trial scenarios not deterministic")
		}
	}
	// Different trials draw different fault streams (statistically
	// certain at these sizes for at least one of the first few).
	differ := false
	for trial := 0; trial < 8 && !differ; trial++ {
		x := plan.TrialOptions(3, trial).Scenarios
		y := plan.TrialOptions(3, trial+8).Scenarios
		if len(x) != len(y) {
			differ = true
			continue
		}
		for i := range x {
			if x[i] != y[i] {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Fatal("all trials drew identical fault streams")
	}
}

// TestSerialVsParallelByteIdentical is the local half of the
// differential battery: the report is independent of worker count and
// scheduling order.
func TestSerialVsParallelByteIdentical(t *testing.T) {
	cfg := quickConfig()
	serial := runBytes(t, cfg, 1, "")
	parallel := runBytes(t, cfg, 8, "")
	if string(serial) != string(parallel) {
		t.Fatal("parallel report differs from serial")
	}
}

// TestJournalResumeByteIdentical kills a campaign mid-journal (by
// truncating its checkpoint to a prefix plus a torn half-record, the
// on-disk state an actual SIGKILL leaves) and proves the resumed
// run's report is byte-identical to the uninterrupted one.
func TestJournalResumeByteIdentical(t *testing.T) {
	cfg := quickConfig()
	dir := t.TempDir()

	reference := runBytes(t, cfg, 4, "")

	full := filepath.Join(dir, "full.jsonl")
	if got := runBytes(t, cfg, 4, full); string(got) != string(reference) {
		t.Fatal("journaled run differs from unjournaled")
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	wantShards := len(lines) - 1 // minus header
	if wantShards < 4 {
		t.Fatalf("journal too small to interrupt: %d shards", wantShards)
	}

	// Keep the header plus half the shards, then a torn half-record.
	cut := 1 + wantShards/2
	torn := strings.Join(lines[:cut], "\n") + "\n" + lines[cut][:len(lines[cut])/2]
	interrupted := filepath.Join(dir, "interrupted.jsonl")
	if err := os.WriteFile(interrupted, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	metrics := obs.NewRegistry()
	r, err := Run(context.Background(), cfg, experiments.NewScheduler(4, nil), RunOptions{JournalPath: interrupted, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	resumedBytes, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedBytes) != string(reference) {
		t.Fatal("resumed report differs from uninterrupted run")
	}
	if got := metrics.Counter("campaign.shards.resumed"); got != int64(cut-1) {
		t.Fatalf("resumed %d shards, want %d", got, cut-1)
	}
	if got := metrics.Counter("campaign.shards.executed"); got != int64(wantShards-(cut-1)) {
		t.Fatalf("executed %d shards, want %d", got, wantShards-(cut-1))
	}

	// After the resume the journal must be complete: a third run
	// executes nothing.
	metrics2 := obs.NewRegistry()
	if _, err := Run(context.Background(), cfg, experiments.NewScheduler(4, nil), RunOptions{JournalPath: interrupted, Metrics: metrics2}); err != nil {
		t.Fatal(err)
	}
	if got := metrics2.Counter("campaign.shards.executed"); got != 0 {
		t.Fatalf("replay executed %d shards", got)
	}
	if got := metrics2.Counter("campaign.trials.planned"); got != int64(6*24) {
		t.Fatalf("planned %d trials", got)
	}
}

// TestOpenJournalTruncatesTornTail: opening a journal whose last line
// is torn leaves only its intact lines on disk, so no byte of the torn
// append outlives the open, however little the resumed run appends.
func TestOpenJournalTruncatesTornTail(t *testing.T) {
	cfg := quickConfig()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	runBytes(t, cfg, 2, path)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := strings.SplitAfter(string(intact), "\n")[1:] // drop the header
	torn := records[0][:len(records[0])/2]
	if err := os.WriteFile(path, []byte(string(intact)+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	j, done, err := OpenJournal(path, fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if want := len(records) - 1; len(done) != want { // SplitAfter's trailing ""
		t.Fatalf("resumed %d shards, want %d", len(done), want)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(intact) {
		t.Fatalf("the journal holds %d bytes after the open, want its %d intact bytes (err %v)", len(got), len(intact), err)
	}
}

// TestJournalRejectsForeignCampaign: a journal keyed to one config
// cannot silently seed a different campaign.
func TestJournalRejectsForeignCampaign(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	cfg := quickConfig()
	runBytes(t, cfg, 2, path)

	other := cfg
	other.Seed = 999
	if _, err := Run(context.Background(), other, experiments.NewScheduler(2, nil), RunOptions{JournalPath: path}); err == nil || !strings.Contains(err.Error(), "belongs to campaign") {
		t.Fatalf("foreign journal accepted: %v", err)
	}
}

// TestJournalRejectsMidFileCorruption: only the *final* line may be
// torn; a mangled record with valid records after it is corruption.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	cfg := quickConfig()
	runBytes(t, cfg, 2, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = "{\"cell\": garbage\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), cfg, experiments.NewScheduler(2, nil), RunOptions{JournalPath: path}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption accepted: %v", err)
	}
}

// TestJournalShardCountMismatch: a journaled tally that disagrees
// with the plan's shard size is a config/journal mismatch, not data.
func TestJournalShardCountMismatch(t *testing.T) {
	cfg := quickConfig()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := OpenJournal(path, fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ShardRecord{Cell: 0, Shard: 0, Key: "laptop/magma/storage-offset", Counts: Counts{Clean: 1}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Run(context.Background(), cfg, experiments.NewScheduler(2, nil), RunOptions{JournalPath: path}); err == nil || !strings.Contains(err.Error(), "plan says") {
		t.Fatalf("undersized shard tally accepted: %v", err)
	}
}

// TestJournalRejectsHostileRecord: a record whose tally sums to the
// shard size but holds a negative count, or that names another cell
// than the plan's, or a shard the plan does not have, is journal
// corruption naming the shard, never merged into the report.
func TestJournalRejectsHostileRecord(t *testing.T) {
	cfg := quickConfig()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	const key = "laptop/magma/storage-offset"
	for _, tc := range []struct {
		name string
		rec  ShardRecord
		want string
	}{
		{"negative count", ShardRecord{Cell: 0, Shard: 0, Key: key, Counts: Counts{Clean: 8, Silent: -2}}, key + "#0"},
		{"foreign key", ShardRecord{Cell: 0, Shard: 1, Key: "laptop/online/storage-offset", Counts: Counts{Clean: 6}}, key + "#1"},
		{"shard not in plan", ShardRecord{Cell: 0, Shard: 4, Key: key, Counts: Counts{Clean: 6}}, "0#4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			j, _, err := OpenJournal(path, fp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(tc.rec); err != nil {
				t.Fatal(err)
			}
			j.Close()
			_, err = Run(context.Background(), cfg, experiments.NewScheduler(2, nil), RunOptions{JournalPath: path})
			if err == nil || !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("hostile record %+v: got %v, want a corruption error naming %s", tc.rec, err, tc.want)
			}
		})
	}
}

// FuzzJournalLoad: whatever bytes sit in the journal file, OpenJournal
// either fails or returns only shards the plan has, each tallying
// exactly its trials with no count outside [0, shard size]. The seed
// is a complete journal written by Run.
func FuzzJournalLoad(f *testing.F) {
	cfg := quickConfig()
	fp, err := cfg.Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	plan, err := NewPlan(cfg)
	if err != nil {
		f.Fatal(err)
	}
	seed := filepath.Join(f.TempDir(), "seed.jsonl")
	if _, err := Run(context.Background(), cfg, experiments.NewScheduler(2, nil), RunOptions{JournalPath: seed}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, done, err := OpenJournal(path, fp, cfg)
		if err != nil {
			return
		}
		j.Close()
		size := map[ShardKey]int{}
		for _, sh := range plan.Shards {
			size[ShardKey{sh.Cell, sh.Index}] = sh.Hi - sh.Lo
		}
		for k, c := range done {
			n, ok := size[k]
			if !ok {
				t.Fatalf("shard %+v is not in the plan", k)
			}
			for _, v := range []int{c.Clean, c.Corrected, c.Uncorrectable, c.Silent} {
				if v < 0 || v > n {
					t.Fatalf("shard %+v: count %d outside [0, %d]: %+v", k, v, n, c)
				}
			}
			if c.Total() != n {
				t.Fatalf("shard %+v tallies %d trials, plan says %d", k, c.Total(), n)
			}
		}
	})
}

// TestZeroConfigJournalRoundTrip: the all-defaults campaign config
// round-trips through the journal header unchanged (normalization
// happens before writing, and reopening with the same input config
// resolves to the same fingerprint).
func TestZeroConfigJournalRoundTrip(t *testing.T) {
	var zero Config
	fp, err := zero.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, done, err := OpenJournal(path, fp, zero)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(done) != 0 {
		t.Fatal("fresh journal has shards")
	}
	// Reopen with the zero config again: same identity, no error.
	j, _, err = OpenJournal(path, fp, zero)
	if err != nil {
		t.Fatalf("zero config failed to reopen its own journal: %v", err)
	}
	j.Close()
	// Normalized defaults are what the fingerprint covers.
	norm, err := zero.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := norm.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != fp2 {
		t.Fatal("normalization changed the fingerprint")
	}
	again, err := norm.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if f3, _ := again.Fingerprint(); f3 != fp {
		t.Fatal("Normalize not idempotent under fingerprinting")
	}
}

// TestRunHonorsCanceledContext: the shard loop checks its context
// before each shard, so a context canceled before the call runs no
// shard and returns the cancellation.
func TestRunHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	metrics := obs.NewRegistry()
	if _, err := Run(ctx, quickConfig(), experiments.NewScheduler(2, nil), RunOptions{Metrics: metrics}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a canceled context returned %v, want context.Canceled", err)
	}
	if got := metrics.Counter("campaign.shards.executed"); got != 0 {
		t.Fatalf("executed %d shards under a canceled context", got)
	}
}

func TestRunRejectsRemoteScheduler(t *testing.T) {
	remote := experiments.NewRemoteScheduler(2, func(core.Options) (core.Result, error) {
		return core.Result{}, nil
	})
	if _, err := Run(context.Background(), quickConfig(), remote, RunOptions{}); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("remote scheduler accepted: %v", err)
	}
	if _, err := Run(context.Background(), quickConfig(), nil, RunOptions{}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Machines: []string{"cray"}},
		{Schemes: []string{"hybrid"}},
		{Classes: []string{"cosmic-ray"}},
		{N: 100},                 // not a block-size multiple of laptop's 32
		{N: 32},                  // single block: no factored data to strike
		{RatePerIteration: -0.5}, // negative
	}
	for _, cfg := range bad {
		if _, err := cfg.Normalize(); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	norm, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.N != 512 || norm.K != 2 || norm.TrialsPerCell != 200 || norm.ShardTrials != 50 {
		t.Fatalf("defaults: %+v", norm)
	}
	if len(norm.Machines) != 1 || len(norm.Schemes) != 3 || len(norm.Classes) != 5 {
		t.Fatalf("default axes: %+v", norm)
	}
}

// TestConfigBoundsPlanSize pins the plan-size bounds: a body asking for
// 10^9 one-trial shards, or more shards than MaxShards within the trial
// bound, is rejected before NewPlan builds anything, and a campaign at
// both bounds passes.
func TestConfigBoundsPlanSize(t *testing.T) {
	var huge Config
	if err := json.Unmarshal([]byte(`{"trials_per_cell": 1000000000, "shard_trials": 1}`), &huge); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		huge,
		{TrialsPerCell: MaxShards + 1, ShardTrials: 1, Schemes: []string{"magma"}, Classes: []string{"storage-offset"}},
		{TrialsPerCell: MaxTrials/15 + 1, ShardTrials: MaxTrials}, // 15 default cells
	} {
		if _, err := cfg.Normalize(); err == nil {
			t.Errorf("trials_per_cell %d, shard_trials %d over %d cells accepted", cfg.TrialsPerCell, cfg.ShardTrials,
				max(len(cfg.Schemes), 3)*max(len(cfg.Classes), 5))
		}
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("NewPlan accepted trials_per_cell %d", cfg.TrialsPerCell)
		}
	}
	atBounds := Config{TrialsPerCell: MaxTrials, ShardTrials: MaxTrials / MaxShards, Schemes: []string{"magma"}, Classes: []string{"storage-offset"}}
	if _, err := atBounds.Normalize(); err != nil {
		t.Errorf("a campaign at both bounds: %v", err)
	}
}
