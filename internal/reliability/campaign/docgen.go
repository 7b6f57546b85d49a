package campaign

// This file generates the machine-derived parts of
// docs/RELIABILITY.md: the fault-class taxonomy (from fault.Classes),
// the outcome taxonomy (from reliability.Outcomes), and a sample
// campaign — config, completed journal, and aggregated report —
// actually executed in process. Campaign output is a pure function of
// the config, so the sample in the docs is not prose pretending to be
// output; it IS the output, byte for byte, and tools/gendoc's
// TestDocsCurrent re-records it on every test run to catch drift.

//go:generate go run ../../../tools/gendoc reliability

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"abftchol/internal/experiments"
	"abftchol/internal/fault"
	"abftchol/internal/reliability"
)

// Marker comments bracketing the generated sections of
// docs/RELIABILITY.md; tools/gendoc rewrites what is between them and
// the drift test asserts the embedding.
const (
	ClassesBegin  = "<!-- BEGIN GENERATED FAULT-CLASS TABLE (go generate ./internal/reliability/campaign) -->"
	ClassesEnd    = "<!-- END GENERATED FAULT-CLASS TABLE -->"
	OutcomesBegin = "<!-- BEGIN GENERATED OUTCOME TABLE (go generate ./internal/reliability/campaign) -->"
	OutcomesEnd   = "<!-- END GENERATED OUTCOME TABLE -->"
	SampleBegin   = "<!-- BEGIN GENERATED SAMPLE CAMPAIGN (go generate ./internal/reliability/campaign) -->"
	SampleEnd     = "<!-- END GENERATED SAMPLE CAMPAIGN -->"
)

// ClassesTable renders the closed fault-class set as a markdown table.
func ClassesTable() string {
	var b strings.Builder
	b.WriteString("| Class | Meaning |\n|---|---|\n")
	for _, c := range fault.Classes() {
		fmt.Fprintf(&b, "| `%s` | %s |\n", c.Key(), c.Describe())
	}
	return b.String()
}

// OutcomesTable renders the four-way trial taxonomy as a markdown
// table.
func OutcomesTable() string {
	var b strings.Builder
	b.WriteString("| Outcome | Meaning | Struck |\n|---|---|---|\n")
	for _, o := range reliability.Outcomes() {
		struck := "yes"
		if !o.Struck() {
			struck = "no"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", o, o.Describe(), struck)
	}
	return b.String()
}

// docConfig is the sample campaign the docs embed: two schemes against
// the paper's standard storage fault, small enough to run in
// milliseconds, seeded so every regeneration reproduces the same
// journal and report bytes.
func docConfig() Config {
	return Config{
		Schemes:          []string{"magma", "enhanced"},
		Classes:          []string{"storage-offset"},
		N:                256,
		RatePerIteration: 0.2,
		TrialsPerCell:    8,
		ShardTrials:      4,
		Seed:             11,
	}
}

// DocSample executes the sample campaign with a journal and renders
// the artifacts as markdown: the journal after completion and the
// aggregated report. tools/gendoc embeds the result in
// docs/RELIABILITY.md; the drift test re-records and compares.
func DocSample() (string, error) {
	dir, err := os.MkdirTemp("", "reldoc")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.jsonl")

	cfg, err := docConfig().Normalize()
	if err != nil {
		return "", err
	}
	rep, err := Run(context.Background(), cfg, experiments.NewScheduler(1, nil), RunOptions{JournalPath: path})
	if err != nil {
		return "", err
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	report, err := rep.Marshal()
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("The journal after the run — a header naming the campaign fingerprint\n")
	b.WriteString("plus one appended (and fsynced) record per completed shard. A rerun\n")
	b.WriteString("replays these records instead of re-executing their trials:\n\n")
	fmt.Fprintf(&b, "```json\n%s```\n\n", journal)
	b.WriteString("The aggregated report — what `abftchol -campaign` prints, what\n")
	b.WriteString("`GET /v1/campaigns/{id}/report` serves, and what resumes must\n")
	b.WriteString("reproduce byte for byte. Rates are conditioned on struck trials;\n")
	b.WriteString("`lo`/`hi` are Wilson 95% bounds:\n\n")
	fmt.Fprintf(&b, "```json\n%s```\n", report)
	return b.String(), nil
}
