package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"abftchol/internal/experiments"
	"abftchol/internal/reliability/campaign"
)

// testCampaignConfig is small enough for an HTTP round trip in test
// time but large enough that every scheme sees struck trials.
func testCampaignConfig() campaign.Config {
	return campaign.Config{
		Schemes:          []string{"magma", "online", "enhanced"},
		Classes:          []string{"storage-offset", "storage-offset-burst"},
		N:                256,
		RatePerIteration: 0.2,
		TrialsPerCell:    12,
		ShardTrials:      4,
		Seed:             31,
	}
}

// TestCampaignDifferentialLocalVsHTTP extends the local-vs-HTTP
// differential battery to the campaign job kind: the same config run
// serially in-process, in parallel in-process, and through a live
// daemon must produce byte-identical report bodies.
func TestCampaignDifferentialLocalVsHTTP(t *testing.T) {
	cfg := testCampaignConfig()

	serialReport, err := campaign.Run(context.Background(), cfg, experiments.NewScheduler(1, nil), campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialReport.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parallelReport, err := campaign.Run(context.Background(), cfg, experiments.NewScheduler(8, nil), campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parallelReport.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(parallel) {
		t.Fatal("parallel campaign differs from serial")
	}

	_, c := newTestServer(t, Config{Workers: 4})
	remote, err := c.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(remote) != string(serial) {
		t.Fatal("daemon campaign report differs from local run")
	}
}

// TestCampaignLifecycleAndDedup covers the wire surface: submit,
// status, fingerprint dedup of an identical config, and the error
// paths of the report endpoint.
func TestCampaignLifecycleAndDedup(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 4})
	cfg := testCampaignConfig()

	info, err := c.SubmitCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.ID, "c-") || info.Fingerprint == "" {
		t.Fatalf("submit response: %+v", info)
	}
	if info.Config.TrialsPerCell != cfg.TrialsPerCell {
		t.Fatalf("submit response did not echo the normalized config: %+v", info.Config)
	}

	// An identical config attaches to the same execution.
	dup, err := c.SubmitCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != info.ID {
		t.Fatalf("identical config got a new campaign: %s vs %s", dup.ID, info.ID)
	}
	if dup.Attached != 1 {
		t.Fatalf("attached = %d", dup.Attached)
	}
	// A different seed is a different campaign.
	other := cfg
	other.Seed = 99
	fresh, err := c.SubmitCampaign(other)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == info.ID || fresh.Fingerprint == info.Fingerprint {
		t.Fatal("distinct configs share a campaign")
	}

	done, err := c.WaitCampaign(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.FinishedAt == nil {
		t.Fatalf("terminal campaign: %+v", done)
	}
	report, err := c.CampaignReport(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), campaign.ReportKind) {
		t.Fatalf("report body lacks kind marker: %.120s", report)
	}

	// Wire errors: unknown ID, invalid config, unknown fields.
	if _, err := c.CampaignReport("c-999999"); err == nil || !strings.Contains(err.Error(), "no campaign") {
		t.Fatalf("unknown campaign: %v", err)
	}
	if _, err := c.SubmitCampaign(campaign.Config{Schemes: []string{"hybrid"}}); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("invalid config accepted: %v", err)
	}

	// The global metrics snapshot carries the campaign accounting.
	if _, err := c.WaitCampaign(fresh.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.reg.Counter("server.campaigns.submitted"); got != 2 {
		t.Fatalf("campaigns.submitted = %d", got)
	}
	if got := s.reg.Counter("server.campaigns.deduped"); got != 1 {
		t.Fatalf("campaigns.deduped = %d", got)
	}
	if got := s.reg.Counter("campaign.trials.executed"); got == 0 {
		t.Fatal("campaign trial counters did not merge into the global registry")
	}
}

// TestCampaignSpawnOrderedBeforeShutdownWait races a campaign
// submission against Shutdown on a daemon mounted without a listener,
// where no HTTP-handler join orders the two. A campaign the daemon
// accepted must be finished when Shutdown returns, and under -race a
// spawn not ordered before Shutdown's join fails the test.
func TestCampaignSpawnOrderedBeforeShutdownWait(t *testing.T) {
	cfg, err := campaign.Config{
		Schemes: []string{"magma"}, Classes: []string{"storage-offset"},
		N: 256, TrialsPerCell: 1, ShardTrials: 1, Seed: 1,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		s, err := New(Config{Workers: 1, Clock: realClock()})
		if err != nil {
			t.Fatal(err)
		}
		var cj *campaignJob
		var accepted bool
		started, submitted := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(submitted)
			close(started)
			cj, _, accepted = s.newCampaign(cfg, fp)
		}()
		<-started
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		<-submitted
		if !accepted {
			continue
		}
		var state State
		s.st.Do(func(sh *shared) { state = sh.campaigns[cj.id].state })
		if state != StateDone {
			t.Fatalf("round %d: campaign %s is %s after Shutdown returned", round, cj.id, state)
		}
	}
}

// TestCampaignSubmitRejectsOversizedPlan: a body asking for 10^9
// one-trial shards is a 400, not a plan the daemon tries to build.
func TestCampaignSubmitRejectsOversizedPlan(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(c.Base+"/v1/campaigns", "application/json",
		strings.NewReader(`{"trials_per_cell": 1000000000, "shard_trials": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid_request") {
		t.Fatalf("status %d, body %s; want 400 invalid_request", resp.StatusCode, body)
	}
	var n int
	s.st.Do(func(sh *shared) { n = len(sh.campaigns) })
	if n != 0 {
		t.Fatalf("%d campaigns registered after a rejected submit", n)
	}
}
