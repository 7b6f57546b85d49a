package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"abftchol/internal/server"
)

// runMainEnv makes the test binary run abftd's main instead of its
// tests. Only TestServeSession sets it, when it starts the daemon by
// re-executing its own binary, so no go build runs inside the test.
const runMainEnv = "ABFTD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// jobReq is the one point the whole session revolves around; it must
// stay identical across submissions so the fingerprint matches.
var jobReq = server.JobRequest{
	Machine: "laptop", N: 768, Scheme: "enhanced", K: 2, Inject: "storage@3",
}

// TestServeSession boots abftd on a random port and drives a submit →
// poll → fetch session through the reference client. It proves that
// the dedup and warm-cache paths execute zero kernels (reading
// kernel-launch counters out of the daemon's own metrics) and SIGTERMs
// the daemon through a graceful drain that flushes its metrics. It
// does so twice, the second daemon restarting against the first one's
// on-disk result store, so a job is served from the cache across
// processes.
func TestServeSession(t *testing.T) {
	work := t.TempDir()
	cacheDir := filepath.Join(work, "cache")
	metricsOut := filepath.Join(work, "metrics.json")

	// First daemon: cold cache.
	d := boot(t, work, cacheDir, "-metrics-out", metricsOut)
	info := submitWait(t, d.client)
	if info.State != server.StateDone {
		t.Errorf("job %s is %s, want done", info.ID, info.State)
	}
	if info.Executed == nil || !*info.Executed {
		t.Error("the cold job did not execute the factorization")
	}
	res, err := d.client.Result(info.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Result.Corrections != 1 {
		t.Errorf("the injected storage error got %d corrections, want 1", res.Result.Corrections)
	}
	if potf2 := jobCounters(t, d.client, info.ID)["kernel.launches.potf2"]; potf2 == 0 {
		t.Error("the cold job launched no potf2 kernel")
	}

	dup := submitWait(t, d.client)
	if dup.State != server.StateDone {
		t.Errorf("duplicate %s is %s, want done", dup.ID, dup.State)
	}
	if dup.Executed == nil || *dup.Executed {
		t.Error("the duplicate was not served without executing")
	}
	if potf2 := jobCounters(t, d.client, dup.ID)["kernel.launches.potf2"]; potf2 != 0 {
		t.Errorf("the duplicate launched %d potf2 kernels, want 0", potf2)
	}
	h, err := d.client.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Status != "ok" || h.Jobs[server.StateDone] != 2 {
		t.Errorf("healthz: status %s, %d done; want ok, 2 done", h.Status, h.Jobs[server.StateDone])
	}

	drain(t, d)
	data, err := os.ReadFile(metricsOut)
	flushed := counters(t, "the metrics flushed on shutdown", data, err)
	if done, executed := flushed["server.jobs.done"], flushed["sweep.points.executed"]; done != 2 || executed != 1 {
		t.Errorf("the flushed metrics count %d jobs done and %d points executed, want 2 and 1", done, executed)
	}

	// Second daemon: a fresh process over the same result store.
	d2 := boot(t, work, cacheDir)
	warm := submitWait(t, d2.client)
	if warm.State != server.StateDone {
		t.Errorf("warm job %s is %s, want done", warm.ID, warm.State)
	}
	if warm.Executed == nil || *warm.Executed {
		t.Error("the warm job was not served from the on-disk store")
	}
	wc := jobCounters(t, d2.client, warm.ID)
	if potf2, hits := wc["kernel.launches.potf2"], wc["sweep.cache.hits"]; potf2 != 0 || hits != 1 {
		t.Errorf("the warm job launched %d potf2 kernels with %d cache hits, want 0 and 1", potf2, hits)
	}
	warmRes, err := d2.client.Result(warm.ID)
	if err != nil {
		t.Fatalf("warm result: %v", err)
	}
	coldJSON, _ := json.Marshal(res.Result)
	warmJSON, _ := json.Marshal(warmRes.Result)
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("the warm result differs from the cold run's:\n%s\n%s", warmJSON, coldJSON)
	}
	drain(t, d2)
}

// daemon is one running abftd process and a client for it.
type daemon struct {
	cmd    *exec.Cmd
	client *server.Client
	stderr *strings.Builder
	done   chan struct{} // closed once the process has exited
	err    error         // its exit status, set before done closes
}

// boot starts abftd in dir on a random port with two workers and a
// result store in cacheDir, and reads the resolved address off its
// stdout. The test's cleanup kills a daemon that is still running.
func boot(t *testing.T, dir, cacheDir string, extra ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-cache", "-cache-dir", cacheDir}, extra...)
	d := &daemon{cmd: exec.Command(exe, args...), stderr: &strings.Builder{}, done: make(chan struct{})}
	d.cmd.Dir = dir
	d.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	d.cmd.Stderr = d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start abftd: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	line := ""
	if sc.Scan() {
		line = sc.Text()
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	go func() {
		io.Copy(io.Discard, stdout)
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
	})
	const prefix = "abftd: listening on "
	if !strings.HasPrefix(line, prefix) {
		d.cmd.Process.Kill()
		<-d.done
		t.Fatalf("abftd printed %q, not a listen line; stderr:\n%s", line, d.stderr)
	}
	t.Logf("abftd %s: %s", strings.Join(args, " "), line)
	d.client = &server.Client{Base: strings.TrimPrefix(line, prefix), Name: "serve-session"}
	return d
}

// submitWait submits jobReq and waits for the job to settle.
func submitWait(t *testing.T, c *server.Client) server.JobInfo {
	t.Helper()
	info, err := c.Submit(jobReq)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if info, err = c.Wait(info.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return info
}

// drain SIGTERMs the daemon and requires a clean exit after a
// completed drain.
func drain(t *testing.T, d *daemon) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case <-d.done:
	case <-time.After(90 * time.Second):
		t.Fatalf("abftd did not drain within 90s")
	}
	if d.err != nil {
		t.Errorf("abftd exited with %v after SIGTERM; stderr:\n%s", d.err, d.stderr)
	}
	if !strings.Contains(d.stderr.String(), "abftd: drained") {
		t.Errorf("abftd's stderr does not report the drain:\n%s", d.stderr)
	}
}

// jobCounters reads the counters of a job's private metrics snapshot.
func jobCounters(t *testing.T, c *server.Client, id string) map[string]int64 {
	t.Helper()
	data, err := c.JobMetrics(id)
	return counters(t, "the metrics of "+id, data, err)
}

// counters decodes the counters of a metrics snapshot. A snapshot that
// could not be read or decoded fails the test, and its counters read
// as zero.
func counters(t *testing.T, what string, data []byte, err error) map[string]int64 {
	t.Helper()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err == nil {
		err = json.Unmarshal(data, &snap)
	}
	if err != nil {
		t.Errorf("%s: %v", what, err)
	}
	return snap.Counters
}
