package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/fault"
	"abftchol/internal/mat"
	"abftchol/internal/obs"
)

// realClock is fine in tests (determinism exempts _test.go files here).
func realClock() Clock { return Clock{Now: time.Now, After: time.After} }

// newTestServer boots a daemon behind an httptest listener and owns
// its drain.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Clock.Now == nil {
		cfg.Clock = realClock()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, &Client{Base: ts.URL}
}

// gatedSched swaps the server's scheduler for one whose executions
// block until the gate closes — controllable congestion for queue,
// timeout, and drain tests.
func gatedSched(s *Server, workers int, gate chan struct{}) {
	s.sched = experiments.NewRemoteScheduler(workers, func(o core.Options) (core.Result, error) {
		<-gate
		return core.Result{N: o.N, Scheme: o.Scheme}, nil
	})
}

func smallReq() JobRequest {
	return JobRequest{Machine: "laptop", N: 512, Scheme: "enhanced", K: 2}
}

func mustSubmit(t *testing.T, c *Client, req JobRequest) JobInfo {
	t.Helper()
	info, err := c.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if info.State != StateQueued || info.ID == "" || info.Fingerprint == "" {
		t.Fatalf("submit response: %+v", info)
	}
	return info
}

func TestJobLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	req := smallReq()
	req.Inject = "storage@1"
	req.Trace = true
	info := mustSubmit(t, c, req)
	if info.ID != "j-000001" {
		t.Fatalf("first job ID = %q", info.ID)
	}

	done, err := c.Wait(info.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if done.State != StateDone || done.Executed == nil || !*done.Executed {
		t.Fatalf("terminal info: %+v", done)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", done)
	}

	res, err := c.Result(info.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Result.N != 512 || res.Result.Corrections == 0 {
		t.Fatalf("result body: %+v", res.Result)
	}
	if res.Fingerprint != info.Fingerprint {
		t.Fatalf("fingerprint drifted: %s vs %s", res.Fingerprint, info.Fingerprint)
	}

	snap, err := c.JobMetrics(info.ID)
	if err != nil {
		t.Fatalf("job metrics: %v", err)
	}
	if !bytes.Contains(snap, []byte("kernel.launches.potf2")) {
		t.Fatalf("job metrics missing kernel counters: %.200s", snap)
	}

	trace, err := c.Trace(info.ID)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if n, err := obs.ValidateChromeTrace(trace); err != nil || n == 0 {
		t.Fatalf("trace invalid (%d events): %v", n, err)
	}

	h, err := c.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Status != "ok" || h.Jobs[StateDone] != 1 {
		t.Fatalf("health: %+v", h)
	}
}

// TestConcurrentDedup is the acceptance criterion: two identical
// concurrent submissions share one execution, proven by the kernel
// counters in the global registry.
func TestConcurrentDedup(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4})
	req := smallReq()

	type sub struct {
		info JobInfo
		err  error
	}
	results := make(chan sub, 2)
	for i := 0; i < 2; i++ {
		go func() {
			info, err := c.Submit(req)
			if err == nil {
				info, err = c.Wait(info.ID)
			}
			results <- sub{info, err}
		}()
	}
	var infos []JobInfo
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("submission %d: %v", i, r.err)
		}
		if r.info.State != StateDone {
			t.Fatalf("submission %d: %+v", i, r.info)
		}
		infos = append(infos, r.info)
	}
	if infos[0].Fingerprint != infos[1].Fingerprint {
		t.Fatalf("identical requests got different fingerprints")
	}
	executed := 0
	for _, info := range infos {
		if info.Executed != nil && *info.Executed {
			executed++
		}
	}
	if executed != 1 {
		t.Fatalf("want exactly 1 executing job, got %d", executed)
	}

	// The kernel counters are the proof: the merged registry holds one
	// run's worth of launches, and one reference run says how much that
	// is.
	ref := obs.NewRegistry()
	sink := &experiments.Obs{Metrics: ref}
	o, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	if pr := experiments.NewScheduler(1, nil).Execute([]core.Options{o}, sink)[0]; pr.Err != nil {
		t.Fatal(pr.Err)
	}

	global := fetchMetrics(t, c)
	if got, want := counter(t, global, "kernel.launches.potf2"), counter(t, snapshotOf(t, ref), "kernel.launches.potf2"); got != want || want == 0 {
		t.Fatalf("kernel.launches.potf2 = %v, want one run's worth %v", got, want)
	}
	if got := counter(t, global, "server.jobs.done"); got != 2 {
		t.Fatalf("server.jobs.done = %v", got)
	}
	if got := counter(t, global, "server.jobs.deduped"); got != 1 {
		t.Fatalf("server.jobs.deduped = %v", got)
	}
	if got := counter(t, global, "sweep.points.executed"); got != 1 {
		t.Fatalf("sweep.points.executed = %v", got)
	}
}

// fetchMetrics grabs and decodes the global snapshot.
func fetchMetrics(t *testing.T, c *Client) map[string]interface{} {
	t.Helper()
	data, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return decodeSnapshot(t, data)
}

func snapshotOf(t *testing.T, reg *obs.Registry) map[string]interface{} {
	t.Helper()
	data, err := reg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return decodeSnapshot(t, data)
}

func decodeSnapshot(t *testing.T, data []byte) map[string]interface{} {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	return m
}

// counter digs one counter's value out of a decoded snapshot
// ({"counters": {...}, "values": {...}, "histograms": {...}}).
func counter(t *testing.T, snap map[string]interface{}, name string) float64 {
	t.Helper()
	counters, ok := snap["counters"].(map[string]interface{})
	if !ok {
		t.Fatalf("snapshot has no counters map")
	}
	f, ok := counters[name].(float64)
	if !ok {
		t.Fatalf("snapshot counter %q missing or non-numeric: %v", name, counters[name])
	}
	return f
}

func TestQueueFullRejectsWith429(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	gatedSched(s, 1, gate)
	defer close(gate)

	// Job 1 occupies the only worker; job 2 fills the depth-1 queue.
	j1 := mustSubmit(t, c, JobRequest{Machine: "laptop", N: 256, Scheme: "magma"})
	waitState(t, c, j1.ID, StateRunning)
	mustSubmit(t, c, JobRequest{Machine: "laptop", N: 512, Scheme: "magma"})

	_, err := c.Submit(JobRequest{Machine: "laptop", N: 768, Scheme: "magma"})
	var apiErr *APIError
	if !errorAs(err, &apiErr) || apiErr.Err.Code != "queue_full" {
		t.Fatalf("third submit: %v", err)
	}
}

// errorAs is errors.As without the import dance for *APIError.
func errorAs(err error, target **APIError) bool {
	if e, ok := err.(*APIError); ok {
		*target = e
		return true
	}
	return false
}

// waitState polls (long-poll-free, state may regress past the target)
// until the job reaches at least the wanted state.
func waitState(t *testing.T, c *Client, id string, want State) JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var info JobInfo
		if err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &info); err != nil {
			t.Fatalf("poll: %v", err)
		}
		if info.State == want || info.State.Terminal() {
			if info.State != want {
				t.Fatalf("job %s reached %s, wanted %s", id, info.State, want)
			}
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobInfo{}
}

func TestRateLimit429AndRetryAfter(t *testing.T) {
	// A frozen clock never refills the bucket, so the third submission
	// from one client deterministically trips the limit.
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	frozen := Clock{Now: func() time.Time { return t0 }, After: time.After}
	s, c := newTestServer(t, Config{Workers: 1, RatePerSec: 0.5, RateBurst: 2, Clock: frozen})
	gatedSched(s, 1, closedGate())

	c.Name = "tester"
	mustSubmit(t, c, JobRequest{Machine: "laptop", N: 256, Scheme: "magma"})
	mustSubmit(t, c, JobRequest{Machine: "laptop", N: 512, Scheme: "magma"})

	resp := rawSubmit(t, c, "tester", smallReq())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status = %d", resp.StatusCode)
	}
	// (1 - 0 tokens) / 0.5 per second = 2 s.
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	var envelope APIError
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Err.Code != "rate_limited" {
		t.Fatalf("envelope %+v, %v", envelope, err)
	}

	// A different client has its own bucket.
	c2 := &Client{Base: c.Base, Name: "other"}
	mustSubmit(t, c2, JobRequest{Machine: "laptop", N: 768, Scheme: "magma"})
}

func closedGate() chan struct{} {
	gate := make(chan struct{})
	close(gate)
	return gate
}

func rawSubmit(t *testing.T, c *Client, client string, req JobRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Client", client)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestJobTimeout(t *testing.T) {
	gate := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	gatedSched(s, 1, gate)
	defer close(gate)

	info := mustSubmit(t, c, smallReq())
	done, err := c.Wait(info.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if done.State != StateFailed || !strings.Contains(done.Error, "timeout") {
		t.Fatalf("timed-out job: %+v", done)
	}
}

func TestCancelSemantics(t *testing.T) {
	gate := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1})
	gatedSched(s, 1, gate)
	defer close(gate)

	running := mustSubmit(t, c, JobRequest{Machine: "laptop", N: 256, Scheme: "magma"})
	waitState(t, c, running.ID, StateRunning)
	queued := mustSubmit(t, c, JobRequest{Machine: "laptop", N: 512, Scheme: "magma"})

	// Queued → canceled.
	var info JobInfo
	if err := c.do(http.MethodDelete, "/v1/jobs/"+queued.ID, nil, &info); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if info.State != StateCanceled {
		t.Fatalf("canceled job: %+v", info)
	}

	// Running → 409.
	err := c.do(http.MethodDelete, "/v1/jobs/"+running.ID, nil, nil)
	var apiErr *APIError
	if !errorAs(err, &apiErr) || apiErr.Err.Code != "not_cancelable" {
		t.Fatalf("cancel running: %v", err)
	}

	// Result of a canceled job → job_failed.
	_, err = c.Result(queued.ID)
	if !errorAs(err, &apiErr) || apiErr.Err.Code != "job_failed" {
		t.Fatalf("result of canceled: %v", err)
	}
}

func TestErrorEnvelopes(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})

	var apiErr *APIError
	if err := c.do(http.MethodGet, "/v1/jobs/j-999999", nil, nil); !errorAs(err, &apiErr) || apiErr.Err.Code != "unknown_job" {
		t.Fatalf("unknown job: %v", err)
	}
	if _, err := c.Submit(JobRequest{Machine: "laptop", N: 512}); !errorAs(err, &apiErr) || apiErr.Err.Code != "invalid_request" {
		t.Fatalf("missing scheme: %v", err)
	}
	if _, err := c.Submit(JobRequest{Machine: "nonesuch", N: 512, Scheme: "enhanced"}); !errorAs(err, &apiErr) || apiErr.Err.Code != "invalid_request" {
		t.Fatalf("bad machine: %v", err)
	}

	// Unknown fields are rejected, not silently dropped.
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json",
		strings.NewReader(`{"machine":"laptop","n":512,"scheme":"enhanced","shceme_typo":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d", resp.StatusCode)
	}

	// A done job without trace:true has no timeline.
	info := mustSubmit(t, c, smallReq())
	if _, err := c.Wait(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(info.ID); !errorAs(err, &apiErr) || apiErr.Err.Code != "no_trace" {
		t.Fatalf("trace of untraced: %v", err)
	}
}

// TestInvalidScenariosFailTheJob: raw scenarios a client sends that
// the factorization cannot host (a block outside the grid, an element
// outside the block, a bit outside the float64) fail their job with
// core's validation error; the worker survives to run the next job.
func TestInvalidScenariosFailTheJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	for _, sc := range []fault.Scenario{
		{Kind: fault.Storage, Iter: 2, BI: 99, BJ: 0, Row: 1, Col: 2},
		{Kind: fault.Computation, Iter: 2, BI: -1, BJ: -1, Row: 40, Col: 1},
		{Kind: fault.Storage, Iter: 2, BI: -1, BJ: -1, Row: 1, Col: 2, Bit: 64},
	} {
		req := smallReq()
		req.Scenarios = []fault.Scenario{sc}
		info := mustSubmit(t, c, req)
		done, err := c.Wait(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateFailed || !strings.Contains(done.Error, "Scenarios[0]") {
			t.Fatalf("scenario %+v: job ended %s with error %q, want failed with a Scenarios[0] validation error", sc, done.State, done.Error)
		}
	}
	info := mustSubmit(t, c, smallReq())
	if done, err := c.Wait(info.ID); err != nil || done.State != StateDone {
		t.Fatalf("valid job after the rejected ones: %+v, %v", done, err)
	}
}

// TestJobErrorCodeIsResultFailure: a failed job's error_code is the
// code of the Result.Failure its run set, its error text is the run's
// error, and the client's RunPoint error renders that text exactly. An
// options error has no class and codes as internal.
func TestJobErrorCodeIsResultFailure(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	storage := fault.Scenario{Kind: fault.Storage, Iter: 4, BI: 5, BJ: 2, Row: 3, Col: 7, Delta: 100}
	second := storage
	second.Row = 6
	for _, tc := range []struct {
		scheme string
		scns   []fault.Scenario
		n      int
		want   string
	}{
		{"online", []fault.Scenario{storage}, 256, core.FailureRejected.Code()},
		{"enhanced", []fault.Scenario{storage, second}, 256, core.FailureUncorrectable.Code()},
		{"enhanced", nil, 250, CodeInternalError}, // not a block multiple
	} {
		req := JobRequest{Machine: "laptop", N: tc.n, BlockSize: 32, Scheme: tc.scheme, K: 2, MaxAttempts: 1, Scenarios: tc.scns}
		o, err := req.Options()
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := core.Run(o)
		if runErr == nil {
			t.Fatalf("%s n=%d: local run did not fail", tc.scheme, tc.n)
		}
		if code := res.Failure.Code(); code != tc.want && !(code == "" && tc.want == CodeInternalError) {
			t.Fatalf("%s n=%d: local Result.Failure codes as %q, want %q", tc.scheme, tc.n, code, tc.want)
		}
		done, err := c.Wait(mustSubmit(t, c, req).ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateFailed || done.ErrorCode != tc.want || done.Error != runErr.Error() {
			t.Fatalf("%s n=%d: job ended %s with %q / %q, want failed with %q / %q",
				tc.scheme, tc.n, done.State, done.ErrorCode, done.Error, tc.want, runErr)
		}
		if _, err := c.RunPoint(o); err == nil || err.Error() != done.Error {
			t.Fatalf("%s n=%d: RunPoint error %v, want the text %q", tc.scheme, tc.n, err, done.Error)
		}
	}
}

func TestEventsStreamReplaysLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	info := mustSubmit(t, c, smallReq())
	if _, err := c.Wait(info.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.Base + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	iQ := strings.Index(body, "event: queued")
	iR := strings.Index(body, "event: running")
	iD := strings.Index(body, "event: done")
	if iQ < 0 || iR < iQ || iD < iR {
		t.Fatalf("stream out of order:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestLongPollReturnsOnCompletion(t *testing.T) {
	gate := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1})
	gatedSched(s, 1, gate)

	info := mustSubmit(t, c, smallReq())
	waitState(t, c, info.ID, StateRunning)

	start := time.Now()
	pollDone := make(chan JobInfo, 1)
	go func() {
		var got JobInfo
		if err := c.do(http.MethodGet, "/v1/jobs/"+info.ID+"?wait=30s", nil, &got); err == nil {
			pollDone <- got
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the poll park server-side
	close(gate)
	select {
	case got := <-pollDone:
		if got.State != StateDone {
			t.Fatalf("long-poll returned %+v", got)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("long-poll blocked %v; should return on completion", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned after completion")
	}
}

// TestHandlerWaitsEndOnClientCancel opens a ?wait= long-poll and an
// SSE stream on a job that stays queued, cancels each request's
// context, and requires both handlers to return and the goroutines
// they held to be joined. The wait's expiry never fires and the daemon
// does not drain, so the client going away is the only way out.
func TestHandlerWaitsEndOnClientCancel(t *testing.T) {
	asked := make(chan time.Duration, 1)
	clock := Clock{Now: time.Now, After: func(d time.Duration) <-chan time.Time {
		asked <- d
		return nil
	}}
	s, err := New(Config{Workers: 1, QueueDepth: 4, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	gatedSched(s, 1, gate)
	returned := make(chan string, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if r.URL.RawQuery != "" || strings.HasSuffix(r.URL.Path, "/events") {
			returned <- r.URL.String()
		}
	}))
	defer func() {
		close(gate)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()
	c := &Client{Base: ts.URL}
	running := mustSubmit(t, c, smallReq())
	waitState(t, c, running.ID, StateRunning)
	queued := mustSubmit(t, c, smallReq())
	before := runtime.NumGoroutine()

	pollCtx, cancelPoll := context.WithCancel(context.Background())
	defer cancelPoll()
	pollReq, err := http.NewRequestWithContext(pollCtx, http.MethodGet, ts.URL+"/v1/jobs/"+queued.ID+"?wait=60s", nil)
	if err != nil {
		t.Fatal(err)
	}
	pollErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(pollReq)
		if err == nil {
			resp.Body.Close()
		}
		pollErr <- err
	}()
	select {
	case <-asked: // the long-poll holds its expiry and is about to wait
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never asked the clock for its expiry")
	}

	sseCtx, cancelSSE := context.WithCancel(context.Background())
	defer cancelSSE()
	sseReq, err := http.NewRequestWithContext(sseCtx, http.MethodGet, ts.URL+"/v1/jobs/"+queued.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The queued event is flushed before the stream waits.
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || line != "event: queued\n" {
		t.Fatalf("first SSE line %q (%v), want the queued event", line, err)
	}

	cancelPoll()
	cancelSSE()
	for range 2 {
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatal("a handler still waits after its client canceled the request")
		}
	}
	if err := <-pollErr; err == nil {
		t.Fatal("canceled long-poll returned a response")
	}
	assertGoroutinesJoined(t, before)
}

// TestLongPollWaitBoundary covers the ?wait= parser that the job and
// campaign status routes share: a malformed or negative wait is a 400
// invalid_request, and a wait past maxWait is clamped to it before the
// clock is asked for the expiry.
func TestLongPollWaitBoundary(t *testing.T) {
	asked := make(chan time.Duration, 1)
	fired := make(chan time.Time)
	close(fired)
	clock := Clock{Now: time.Now, After: func(d time.Duration) <-chan time.Time {
		asked <- d
		return fired
	}}
	s, c := newTestServer(t, Config{Workers: 1, Clock: clock})
	gatedSched(s, 1, closedGate())
	job := mustSubmit(t, c, smallReq())
	camp, err := c.SubmitCampaign(testCampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"/v1/jobs/" + job.ID, "/v1/campaigns/" + camp.ID} {
		for _, tc := range []struct {
			wait    string
			status  int
			message string
		}{
			{"abc", http.StatusBadRequest, `bad wait "abc": want a duration like 30s`},
			{"-1s", http.StatusBadRequest, `bad wait "-1s": want a duration like 30s`},
			{"10m", http.StatusOK, ""},
		} {
			resp, err := http.Get(c.Base + route + "?wait=" + tc.wait)
			if err != nil {
				t.Fatal(err)
			}
			var envelope APIError
			err = json.NewDecoder(resp.Body).Decode(&envelope)
			resp.Body.Close()
			if err != nil || resp.StatusCode != tc.status {
				t.Fatalf("%s?wait=%s: HTTP %d (%v), want %d", route, tc.wait, resp.StatusCode, err, tc.status)
			}
			if tc.status != http.StatusOK {
				if envelope.Err.Code != "invalid_request" || envelope.Err.Message != tc.message {
					t.Fatalf("%s?wait=%s: error %+v, want invalid_request %q", route, tc.wait, envelope.Err, tc.message)
				}
				continue
			}
			select {
			case d := <-asked:
				if d != maxWait {
					t.Fatalf("%s?wait=%s asked the clock for %v, want the %v cap", route, tc.wait, d, maxWait)
				}
			default:
				t.Fatalf("%s?wait=%s answered without asking the clock for an expiry", route, tc.wait)
			}
		}
	}
}

// TestShutdownMetricsReplacedWhole pins the shutdown flush's
// temp-file-plus-rename write: a stale file at the path is replaced by
// one complete snapshot and no temp file is left beside it; a path in
// a missing directory fails loudly and leaves nothing behind.
func TestShutdownMetricsReplacedWhole(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	stale := []byte(`{"stale": tru`)
	if err := os.WriteFile(metricsPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	// A reader holding the old file keeps reading the old file whole: the
	// flush swaps the directory entry rather than truncating in place.
	reader, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	s, err := New(Config{Workers: 1, QueueDepth: 4, Clock: realClock(), MetricsPath: metricsPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if old, err := io.ReadAll(reader); err != nil || !bytes.Equal(old, stale) {
		t.Fatalf("open reader saw %q (%v) after the flush, want the old file %q", old, err, stale)
	}
	flushed, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap := decodeSnapshot(t, flushed); snap["counters"] == nil {
		t.Fatalf("flushed file is not a registry snapshot: %.200s", flushed)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "metrics.json" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after the flush, want only metrics.json", names)
	}
	if info, err := os.Stat(metricsPath); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("metrics file mode %v (%v), want 0644", info.Mode().Perm(), err)
	}

	missing := filepath.Join(dir, "absent", "metrics.json")
	s, err = New(Config{Workers: 1, QueueDepth: 4, Clock: realClock(), MetricsPath: missing})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err == nil {
		t.Fatal("shutdown into a missing directory reported no metrics flush error")
	}
}

// TestGracefulShutdown is the drain acceptance criterion: in-flight
// jobs finish, the queue drains, new submissions are refused, metrics
// flush, and no goroutines leak (the -race run makes the joins real).
func TestGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")

	gate := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: 8, Clock: realClock(), MetricsPath: metricsPath}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gatedSched(s, 1, gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	inflight := mustSubmit(t, c, JobRequest{Machine: "laptop", N: 256, Scheme: "magma"})
	waitState(t, c, inflight.ID, StateRunning)
	queued := mustSubmit(t, c, JobRequest{Machine: "laptop", N: 512, Scheme: "magma"})

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Submissions are refused once draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Submit(smallReq())
		var apiErr *APIError
		if errorAs(err, &apiErr) && apiErr.Err.Code == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw draining rejection; last err %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(gate) // let the in-flight job (and then the queued one) finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Both accepted jobs reached done — drain finished the work.
	for _, id := range []string{inflight.ID, queued.ID} {
		var info JobInfo
		if err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &info); err != nil {
			t.Fatalf("post-drain poll %s: %v", id, err)
		}
		if info.State != StateDone {
			t.Fatalf("job %s after drain: %+v", id, info)
		}
	}

	// Metrics were flushed.
	flushed, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics flush: %v", err)
	}
	decodeSnapshot(t, flushed)
	if !bytes.Contains(flushed, []byte("server.jobs.submitted")) {
		t.Fatalf("flushed snapshot missing server counters: %.200s", flushed)
	}

	// Second Shutdown is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	// Goroutines drained (workers, execs, watchers).
	ts.Close()
	assertGoroutinesJoined(t, before)
}

// assertGoroutinesJoined fails the test unless the goroutine count
// settles back to at most before+2 within five seconds.
func assertGoroutinesJoined(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDeadlineCancelsQueued drains past its deadline with a
// factorization running, one queued and a campaign in flight: the
// queued job and the campaign are canceled, the running job finishes,
// and every execution goroutine is joined.
func TestShutdownDeadlineCancelsQueued(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: 8, Clock: realClock()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gatedSched(s, 1, gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	inflight := mustSubmit(t, c, JobRequest{Machine: "laptop", N: 256, Scheme: "magma"})
	waitState(t, c, inflight.ID, StateRunning)
	queued := mustSubmit(t, c, JobRequest{Machine: "laptop", N: 512, Scheme: "magma"})
	long := testCampaignConfig()
	long.TrialsPerCell = 20000 // far more shards than the deadline allows
	camp, err := c.SubmitCampaign(long)
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Past the deadline the queued job is canceled; release the gate so
	// the in-flight one can finish and the drain converge.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	var info JobInfo
	if err := c.do(http.MethodGet, "/v1/jobs/"+queued.ID, nil, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != StateCanceled {
		t.Fatalf("queued job after deadline drain: %+v", info)
	}
	if err := c.do(http.MethodGet, "/v1/jobs/"+inflight.ID, nil, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone {
		t.Fatalf("in-flight job after drain: %+v", info)
	}
	var cinfo CampaignInfo
	if err := c.do(http.MethodGet, "/v1/campaigns/"+camp.ID, nil, &cinfo); err != nil {
		t.Fatal(err)
	}
	if cinfo.State != StateCanceled {
		t.Fatalf("in-flight campaign after deadline drain: %+v", cinfo)
	}
	ts.Close()
	assertGoroutinesJoined(t, before)
}

// TestDifferentialHTTPvsLocal is the satellite: the same core.Options
// through the daemon and through a local scheduler (the cmd/abftchol
// -run path) yield byte-identical result and metrics bytes.
func TestDifferentialHTTPvsLocal(t *testing.T) {
	req := JobRequest{Machine: "laptop", N: 768, Scheme: "enhanced", K: 2, Inject: "storage@1,computation@2"}
	o, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}

	// Local half: exactly what cmd/abftchol -run -metrics-out does.
	reg := obs.NewRegistry()
	sink := &experiments.Obs{Metrics: reg}
	pr := experiments.NewScheduler(1, nil).Execute([]core.Options{o}, sink)[0]
	if pr.Err != nil {
		t.Fatal(pr.Err)
	}
	localMetrics, err := reg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	localResult, err := json.MarshalIndent(experiments.ToWire(pr.Result), "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	// Remote half.
	_, c := newTestServer(t, Config{Workers: 2})
	info := mustSubmit(t, c, req)
	if _, err := c.Wait(info.ID); err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	remoteResult, err := json.MarshalIndent(res.Result, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localResult, remoteResult) {
		t.Fatalf("results differ:\nlocal:\n%s\nremote:\n%s", localResult, remoteResult)
	}
	remoteMetrics, err := c.JobMetrics(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localMetrics, remoteMetrics) {
		t.Fatalf("metrics differ:\nlocal:\n%s\nremote:\n%s", localMetrics, remoteMetrics)
	}

	// And the fingerprint the daemon reports is the scheduler's.
	if want := experiments.Fingerprint(o); info.Fingerprint != want {
		t.Fatalf("fingerprint %s, want %s", info.Fingerprint, want)
	}
}

// TestRemoteScheduler drives experiments.NewRemoteScheduler through
// the real client against a live daemon — the cmd/abftchol -server
// -exp path.
func TestRemoteScheduler(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4})
	remote := experiments.NewRemoteScheduler(2, c.RunPoint)
	local := experiments.NewScheduler(1, nil)

	points := []core.Options{}
	for _, n := range []int{512, 768} {
		o, err := JobRequest{Machine: "laptop", N: n, Scheme: "online"}.Options()
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, o)
	}
	// Duplicate point: remote dedup goes through the same memo.
	points = append(points, points[0])

	lres := local.Execute(points, nil)
	rres := remote.Execute(points, nil)
	for i := range points {
		if lres[i].Err != nil || rres[i].Err != nil {
			t.Fatalf("point %d: local %v remote %v", i, lres[i].Err, rres[i].Err)
		}
		lw, _ := json.Marshal(experiments.ToWire(lres[i].Result))
		rw, _ := json.Marshal(experiments.ToWire(rres[i].Result))
		if !bytes.Equal(lw, rw) {
			t.Fatalf("point %d differs:\nlocal  %s\nremote %s", i, lw, rw)
		}
	}
	if rres[2].Executed {
		t.Fatal("duplicate point executed remotely; memo should have served it")
	}

	// A validation error surfaces as the run error, like core.Run.
	bad := points[0]
	bad.N = 333 // not a block multiple
	if pr := remote.Execute([]core.Options{bad}, nil)[0]; pr.Err == nil {
		t.Fatal("invalid options survived the remote round trip")
	} else if lpr := local.Execute([]core.Options{bad}, nil)[0]; lpr.Err == nil ||
		!strings.Contains(pr.Err.Error(), lpr.Err.Error()) {
		t.Fatalf("remote error %q does not carry local error %q", pr.Err, lpr.Err)
	}
}

// TestCacheAsResultStore: a daemon attached to a warm on-disk cache
// serves a repeat job with zero kernel launches.
func TestCacheAsResultStore(t *testing.T) {
	dir := t.TempDir()
	req := smallReq()
	o, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache out-of-process (the CLI's -cache path).
	warm := experiments.NewCache(dir)
	if pr := experiments.NewScheduler(1, warm).Execute([]core.Options{o}, nil)[0]; pr.Err != nil {
		t.Fatal(pr.Err)
	}

	_, c := newTestServer(t, Config{Workers: 1, Cache: experiments.NewCache(dir)})
	info := mustSubmit(t, c, req)
	done, err := c.Wait(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Executed == nil || *done.Executed {
		t.Fatalf("cache-served job should not execute: %+v", done)
	}
	global := fetchMetrics(t, c)
	if got := counter(t, global, "kernel.launches.potf2"); got != 0 {
		t.Fatalf("cache-served job launched %v kernels", got)
	}
	if got := counter(t, global, "sweep.cache.hits"); got != 1 {
		t.Fatalf("sweep.cache.hits = %v", got)
	}
}

func TestRequestOptionRoundTrip(t *testing.T) {
	req := JobRequest{Machine: "tardis", N: 10240, Scheme: "scrub", Variant: "right", K: 3,
		ChecksumVectors: 4, Placement: "cpu", Inject: "storage@4,computation@7", Delta: 2.5, MaxAttempts: 5}
	o, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	back, err := RequestFromOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := back.Options()
	if err != nil {
		t.Fatal(err)
	}
	if experiments.Fingerprint(o) != experiments.Fingerprint(o2) {
		t.Fatalf("round trip changed the fingerprint:\n%+v\n%+v", o, o2)
	}
	if o2.Scheme != core.SchemeOnlineScrub || o2.Variant != core.RightLooking ||
		o2.Placement != core.PlaceCPU || len(o2.Scenarios) != 2 || o2.Scenarios[0].Delta != 2.5 {
		t.Fatalf("round-tripped options: %+v", o2)
	}

	// Defaults: ConcurrentRecalc nil means on; zero Delta means 1e5.
	o3, err := JobRequest{Machine: "laptop", N: 512, Scheme: "online", Inject: "storage@1"}.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !o3.ConcurrentRecalc || o3.Scenarios[0].Delta != 1e5 {
		t.Fatalf("defaults: %+v", o3)
	}

	// Real-plane options cannot travel.
	bad := o
	bad.Data = mat.RandSPD(64, 1)
	if _, err := RequestFromOptions(bad); err == nil {
		t.Fatal("real-plane options serialized")
	}
}
