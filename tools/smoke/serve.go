package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"abftchol/internal/server"
)

// The serve session boots cmd/abftd on a random port, drives a submit
// → poll → fetch session through the reference client, proves the
// dedup and warm-cache paths execute zero kernels (by reading
// kernel-launch counters out of the daemon's own metrics), and
// SIGTERMs the daemon through a graceful drain — twice, restarting
// against the same on-disk result store to exercise cache-served jobs
// across processes.

// jobReq is the one point the whole session revolves around; it must
// stay identical across submissions so the fingerprint matches.
var jobReq = server.JobRequest{
	Machine: "laptop", N: 768, Scheme: "enhanced", K: 2, Inject: "storage@3",
}

func (s *smoke) serve() error {
	bin, err := s.build("./cmd/abftd")
	if err != nil {
		return err
	}
	cacheDir := filepath.Join(s.work, "cache")
	metricsOut := filepath.Join("artifacts", "serve-smoke-metrics.json")

	// ---- first daemon: cold cache --------------------------------------
	d, err := s.boot(bin, cacheDir, "-metrics-out", metricsOut)
	if err != nil {
		return err
	}
	c := d.client

	s.logf("-- submit %s n=%d %s inject=%s", jobReq.Machine, jobReq.N, jobReq.Scheme, jobReq.Inject)
	info, err := s.submitWait(c)
	if err != nil {
		return err
	}
	s.check(info.State == server.StateDone, "job %s reaches done (state %s)", info.ID, info.State)
	s.check(info.Executed != nil && *info.Executed, "cold job executed the factorization")
	res, err := c.Result(info.ID)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	s.check(res.Result.Corrections == 1, "injected storage error corrected (corrections=%d)", res.Result.Corrections)
	potf2 := s.counters(c, info.ID)["kernel.launches.potf2"]
	s.check(potf2 > 0, "cold job launched kernels (potf2=%d)", potf2)

	s.logf("-- duplicate submit (same point)")
	dup, err := s.submitWait(c)
	if err != nil {
		return err
	}
	s.check(dup.State == server.StateDone, "duplicate %s reaches done", dup.ID)
	s.check(dup.Executed != nil && !*dup.Executed, "duplicate served without executing")
	dupPotf2 := s.counters(c, dup.ID)["kernel.launches.potf2"]
	s.check(dupPotf2 == 0, "duplicate launched zero kernels (potf2=%d)", dupPotf2)

	h, err := c.Health()
	if err != nil {
		return fmt.Errorf("health: %w", err)
	}
	s.check(h.Status == "ok" && h.Jobs[server.StateDone] == 2, "healthz: status=%s done=%d", h.Status, h.Jobs[server.StateDone])

	if err := s.drain(d); err != nil {
		return err
	}
	if _, err := os.Stat(metricsOut); err != nil {
		s.check(false, "metrics flushed on shutdown: %v", err)
	} else {
		s.check(true, "metrics flushed to %s on shutdown", metricsOut)
	}

	// ---- second daemon: warm cache, fresh process ----------------------
	s.logf("-- restart against the same result store")
	d2, err := s.boot(bin, cacheDir)
	if err != nil {
		return err
	}
	c2 := d2.client
	warm, err := s.submitWait(c2)
	if err != nil {
		return err
	}
	s.check(warm.State == server.StateDone, "warm job %s reaches done", warm.ID)
	s.check(warm.Executed != nil && !*warm.Executed, "warm job served from the on-disk store")
	warmCounters := s.counters(c2, warm.ID)
	warmPotf2, hits := warmCounters["kernel.launches.potf2"], warmCounters["sweep.cache.hits"]
	s.check(warmPotf2 == 0 && hits == 1, "warm job executed zero kernels (potf2=%d, cache hits=%d)", warmPotf2, hits)
	warmRes, err := c2.Result(warm.ID)
	if err != nil {
		return fmt.Errorf("warm result: %w", err)
	}
	coldJSON, _ := json.Marshal(res.Result)
	warmJSON, _ := json.Marshal(warmRes.Result)
	s.check(string(coldJSON) == string(warmJSON), "warm result byte-identical to the cold run's")

	return s.drain(d2)
}

// submitWait submits jobReq, logs the accepted job, and waits for it
// to settle.
func (s *smoke) submitWait(c *server.Client) (server.JobInfo, error) {
	info, err := c.Submit(jobReq)
	if err != nil {
		return info, fmt.Errorf("submit: %w", err)
	}
	s.logf("   %s %s fingerprint=%s", info.ID, info.State, info.Fingerprint)
	if info, err = c.Wait(info.ID); err != nil {
		return info, fmt.Errorf("wait: %w", err)
	}
	return info, nil
}

// daemon is one running abftd process and a client for it.
type daemon struct {
	cmd    *exec.Cmd
	client *server.Client
	stderr *strings.Builder
}

// boot starts abftd on a random port with two workers and a result
// store in cacheDir, and parses the resolved address off its stdout.
func (s *smoke) boot(bin, cacheDir string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-cache", "-cache-dir", cacheDir}, extra...)
	s.logf("$ %s %s", filepath.Base(bin), strings.Join(args, " "))
	cmd := exec.Command(bin, args...)
	stderr := &strings.Builder{}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start abftd: %w", err)
	}
	sc := bufio.NewScanner(stdout)
	const prefix = "abftd: listening on "
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), prefix) {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("abftd printed %q, not a listen line; stderr:\n%s", sc.Text(), stderr.String())
	}
	line := sc.Text()
	s.logf("  %s", line)
	// Keep draining stdout so the child never blocks on a full pipe.
	go io.Copy(io.Discard, stdout)
	c := &server.Client{Base: strings.TrimPrefix(line, prefix), Name: "serve-smoke"}
	return &daemon{cmd: cmd, client: c, stderr: stderr}, nil
}

// drain SIGTERMs the daemon and verifies a clean exit.
func (s *smoke) drain(d *daemon) error {
	s.logf("$ kill -TERM %d", d.cmd.Process.Pid)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		s.check(err == nil, "daemon exited cleanly after SIGTERM (err=%v)", err)
	case <-time.After(90 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon did not drain within 90s; stderr:\n%s", d.stderr.String())
	}
	s.check(strings.Contains(d.stderr.String(), "abftd: drained"), "drain completed (stderr reports \"abftd: drained\")")
	return nil
}

// counters reads the counters of a job's private metrics snapshot. A
// snapshot that cannot be read or decoded is a failed expectation, and
// its counters read as zero.
func (s *smoke) counters(c *server.Client, id string) map[string]int64 {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	data, err := c.JobMetrics(id)
	if err == nil {
		err = json.Unmarshal(data, &snap)
	}
	if err != nil {
		s.check(false, "metrics of %s: %v", id, err)
	}
	return snap.Counters
}
