package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// The campaign session runs a reference reliability campaign to
// completion through cmd/abftchol, starts the identical campaign in a
// fresh journal directory and SIGKILLs it mid-shard (watching the
// journal grow to time the kill), resumes from the torn journal, and
// proves the resumed report is byte-identical to the uninterrupted
// one.

// campaignFlags is the one grid the whole session revolves around; it
// must stay identical across runs so the journal fingerprint matches.
// Small N keeps each trial cheap; many small shards give the SIGKILL a
// wide window to land mid-campaign.
var campaignFlags = []string{
	"-campaign",
	"-schemes", "magma,online,enhanced",
	"-classes", "storage-offset,storage-offset-burst",
	"-n", "256", "-rate", "0.2",
	"-trials", "600", "-shard-trials", "25",
	"-seed", "7",
}

// totalShards is what the flags above plan: 3 schemes x 2 classes
// cells, 600/25 shards each.
const totalShards = 3 * 2 * (600 / 25)

func (s *smoke) campaign() error {
	bin, err := s.build("./cmd/abftchol")
	if err != nil {
		return err
	}

	// ---- reference: uninterrupted, unjournaled -------------------------
	ref, stderr, err := s.report(bin, "", "reference")
	if err != nil {
		return err
	}
	s.check(strings.Contains(stderr, fmt.Sprintf("%d shards", totalShards)),
		"reference campaign planned %d shards", totalShards)
	s.check(len(ref) > 0, "reference report written (%d bytes)", len(ref))

	// ---- interrupted: SIGKILL while the journal is growing -------------
	dir := filepath.Join(s.work, "journal")
	lines, err := s.killMidCampaign(bin, dir)
	if err != nil {
		return err
	}
	s.check(lines >= 2, "journal survived the kill with a header and >=1 shard (%d lines)", lines)
	s.check(lines < totalShards+1, "journal is incomplete: %d of %d shard records", lines-1, totalShards)

	// ---- resume --------------------------------------------------------
	resumed, stderr, err := s.report(bin, dir, "resumed")
	if err != nil {
		return err
	}
	s.check(strings.Contains(stderr, "resumed"), "resume run reports resumed shards")
	s.check(string(resumed) == string(ref),
		"resumed report byte-identical to the uninterrupted run (%d bytes)", len(resumed))

	// ---- replay: a completed journal executes nothing ------------------
	replay, stderr, err := s.report(bin, dir, "replay")
	if err != nil {
		return err
	}
	s.check(strings.Contains(stderr, fmt.Sprintf("resumed %d of %d shards", totalShards, totalShards)),
		"replay resumes all %d shards from the journal", totalShards)
	s.check(string(replay) == string(ref), "replayed report byte-identical too")
	return nil
}

// report runs the campaign to completion, journaled in dir (none when
// empty), and returns the report it wrote to <name>.json and its
// stderr transcript.
func (s *smoke) report(bin, dir, name string) ([]byte, string, error) {
	out := filepath.Join(s.work, name+".json")
	args := append(append([]string{}, campaignFlags...), "-campaign-dir", dir, "-out", out)
	s.logf("$ abftchol %s", strings.Join(args, " "))
	cmd := exec.Command(bin, args...)
	stderr := &strings.Builder{}
	cmd.Stderr = stderr
	err := cmd.Run()
	for _, line := range strings.Split(strings.TrimRight(stderr.String(), "\n"), "\n") {
		if line != "" {
			s.logf("    %s", line)
		}
	}
	if err != nil {
		return nil, "", fmt.Errorf("%s run: %v", name, err)
	}
	data, err := os.ReadFile(out)
	return data, stderr.String(), err
}

// killMidCampaign starts the journaled campaign and SIGKILLs it once
// the journal holds a handful of shard records, returning the torn
// journal's line count. If the campaign wins the race and finishes
// first, the journal is truncated to half its records instead so the
// resume leg still gets exercised.
func (s *smoke) killMidCampaign(bin, dir string) (int, error) {
	args := append(append([]string{}, campaignFlags...), "-campaign-dir", dir, "-out", os.DevNull)
	s.logf("$ abftchol %s   # SIGKILL mid-shard", strings.Join(args, " "))
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("start: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	const killAfter = 12 // header + a dozen shard records: well inside the run
	deadline := time.After(60 * time.Second)
	for {
		select {
		case <-done:
			// Finished before the kill: truncate to simulate the tear.
			n, err := s.truncateJournal(dir)
			s.logf("    (campaign finished before the kill landed; journal truncated instead)")
			return n, err
		case <-deadline:
			cmd.Process.Kill()
			<-done
			return 0, fmt.Errorf("campaign still running after 60s")
		case <-time.After(2 * time.Millisecond):
			if n := journalLines(dir); n > killAfter {
				s.logf("$ kill -KILL %d   # journal at %d lines", cmd.Process.Pid, n)
				cmd.Process.Signal(syscall.SIGKILL)
				<-done
				return journalLines(dir), nil
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
// the shard records — the fallback tear for hosts fast enough to
// finish before the kill lands — and returns the lines kept.
func (s *smoke) truncateJournal(dir string) (int, error) {
	path, data, err := journal(dir)
	if err != nil {
		return 0, err
	}
	all := strings.SplitAfter(string(data), "\n")
	keep := 1 + (len(all)-1)/2
	if keep < 2 {
		return 0, fmt.Errorf("journal too short to tear (%d lines)", len(all))
	}
	s.logf("$ truncate %s to %d lines", filepath.Base(path), keep)
	return keep, os.WriteFile(path, []byte(strings.Join(all[:keep], "")), 0o644)
}
