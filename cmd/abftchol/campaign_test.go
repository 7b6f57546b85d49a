package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runMainEnv makes the test binary run abftchol's main instead of its
// tests. Only TestCampaignKillResume sets it, when it runs the command
// by re-executing its own binary, so no go build runs inside the test.
const runMainEnv = "ABFTCHOL_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// campaignFlags is the one grid the kill-and-resume session revolves
// around; it must stay identical across runs so the journal
// fingerprint matches. Small N keeps each trial cheap; many small
// shards give the SIGKILL a wide window to land mid-campaign.
var campaignFlags = []string{
	"-campaign",
	"-schemes", "magma,online,enhanced",
	"-classes", "storage-offset,storage-offset-burst",
	"-n", "256", "-rate", "0.2",
	"-trials", "600", "-shard-trials", "25",
	"-seed", "7",
}

// totalShards is what campaignFlags plan: 3 schemes x 2 classes cells,
// 600/25 shards each.
const totalShards = 3 * 2 * (600 / 25)

// TestCampaignKillResume runs a reference campaign to completion,
// starts the identical campaign in a fresh journal directory and
// SIGKILLs it mid-shard (watching the journal grow to time the kill),
// resumes from the torn journal, and requires the resumed report to be
// byte-identical to the uninterrupted one. A replay of the completed
// journal must then execute nothing and print the same bytes.
func TestCampaignKillResume(t *testing.T) {
	work := t.TempDir()
	ref, stderr := campaignReport(t, work, "", "reference")
	if !strings.Contains(stderr, fmt.Sprintf("%d shards", totalShards)) {
		t.Errorf("the reference campaign did not plan %d shards; stderr:\n%s", totalShards, stderr)
	}
	if len(ref) == 0 {
		t.Fatal("the reference report is empty")
	}

	dir := filepath.Join(work, "journal")
	lines := killMidCampaign(t, work, dir)
	if lines < 2 {
		t.Errorf("the journal kept %d lines, want a header and at least one shard", lines)
	}
	if lines >= totalShards+1 {
		t.Errorf("the journal holds all %d shard records; the kill tore nothing", lines-1)
	}

	resumed, stderr := campaignReport(t, work, dir, "resumed")
	if !strings.Contains(stderr, "resumed") {
		t.Errorf("the resumed run reports no resumed shards; stderr:\n%s", stderr)
	}
	if string(resumed) != string(ref) {
		t.Errorf("the resumed report (%d bytes) differs from the uninterrupted one (%d bytes)", len(resumed), len(ref))
	}

	replay, stderr := campaignReport(t, work, dir, "replay")
	if want := fmt.Sprintf("resumed %d of %d shards", totalShards, totalShards); !strings.Contains(stderr, want) {
		t.Errorf("the replay does not report %q; stderr:\n%s", want, stderr)
	}
	if string(replay) != string(ref) {
		t.Errorf("the replayed report (%d bytes) differs from the uninterrupted one (%d bytes)", len(replay), len(ref))
	}
}

// campaignCommand is abftchol run in work with campaignFlags, journaled
// in dir (none when empty), writing its report to out.
func campaignCommand(t *testing.T, work, dir, out string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append(append([]string{}, campaignFlags...), "-campaign-dir", dir, "-out", out)
	cmd := exec.Command(exe, args...)
	cmd.Dir = work
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// campaignReport runs the campaign to completion and returns the
// report it wrote to work/<name>.json and its stderr.
func campaignReport(t *testing.T, work, dir, name string) ([]byte, string) {
	t.Helper()
	out := filepath.Join(work, name+".json")
	cmd := campaignCommand(t, work, dir, out)
	stderr := &strings.Builder{}
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("the %s run: %v; stderr:\n%s", name, err, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data, stderr.String()
}

// killMidCampaign starts the journaled campaign and SIGKILLs it once
// the journal holds a handful of shard records, returning the torn
// journal's line count. If the campaign wins the race and finishes
// first, the journal is truncated to half its records instead, so the
// resume still starts from a torn journal.
func killMidCampaign(t *testing.T, work, dir string) int {
	t.Helper()
	cmd := campaignCommand(t, work, dir, os.DevNull)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	const killAfter = 12 // header + a dozen shard records: well inside the run
	deadline := time.After(60 * time.Second)
	for {
		select {
		case <-done:
			t.Log("the campaign finished before the kill landed; truncating its journal instead")
			return truncateJournal(t, dir)
		case <-deadline:
			cmd.Process.Kill()
			<-done
			t.Fatal("the campaign was still running after 60s")
		case <-time.After(2 * time.Millisecond):
			if n := journalLines(dir); n > killAfter {
				cmd.Process.Signal(syscall.SIGKILL)
				<-done
				t.Logf("killed the campaign with the journal at %d lines", n)
				return journalLines(dir)
			}
		}
	}
}

// journal reads the one fingerprint-named journal in dir.
func journal(dir string) (string, []byte, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(paths) != 1 {
		return "", nil, fmt.Errorf("expected one journal in %s, found %d", dir, len(paths))
	}
	data, err := os.ReadFile(paths[0])
	return paths[0], data, err
}

// journalLines counts the journal's newline-terminated records; none
// before the campaign creates it.
func journalLines(dir string) int {
	_, data, _ := journal(dir)
	return strings.Count(string(data), "\n")
}

// truncateJournal rewrites the journal keeping the header plus half
// the shard records, and returns the lines kept.
func truncateJournal(t *testing.T, dir string) int {
	t.Helper()
	path, data, err := journal(dir)
	if err != nil {
		t.Fatal(err)
	}
	all := strings.SplitAfter(string(data), "\n")
	keep := 1 + (len(all)-1)/2
	if keep < 2 {
		t.Fatalf("the journal is too short to tear (%d lines)", len(all))
	}
	if err := os.WriteFile(path, []byte(strings.Join(all[:keep], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return keep
}
