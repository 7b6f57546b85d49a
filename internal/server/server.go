// Package server is the ABFT-as-a-service layer: a small HTTP+JSON
// daemon (cmd/abftd) that accepts factorization jobs, executes them on
// the sweep engine's scheduler, and serves results, traces, and
// metrics. The request plane deliberately owns nothing numerical — a
// job is parsed into the same core.Options a CLI run builds, its
// identity is the scheduler's canonical fingerprint, and its result is
// the cache's wire form — so serving a point over HTTP is
// byte-equivalent to running it locally (the differential tests pin
// this).
//
// Concurrency shape: submissions pass admission control (a token
// bucket per client, then a bounded queue) and park as queued jobs; a
// fixed worker pool drains the queue, running each job through one
// shared experiments.Scheduler, whose singleflight memoization merges
// identical concurrent submissions into one execution. All wall-clock
// access goes through an injected Clock so the package stays inside
// the determinism analyzer's scope; cmd/abftd wires the real clock.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/guard"
	"abftchol/internal/hetsim"
	"abftchol/internal/obs"
)

// Clock abstracts the two time operations the daemon needs. The
// determinism analyzer bans direct wall-clock reads in this package
// (deterministic-output discipline); production wiring lives in
// cmd/abftd (RealClock there), and tests or documentation generators
// substitute fixed clocks to make whole HTTP sessions reproducible.
type Clock struct {
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
}

// Config parameterizes a daemon.
type Config struct {
	// Workers bounds concurrent factorizations (<= 0 means 4).
	Workers int
	// QueueDepth bounds accepted-but-unstarted jobs (<= 0 means 64);
	// submissions beyond it are rejected with 429 queue_full.
	QueueDepth int
	// JobTimeout bounds a job's life from submission; 0 means none. An
	// expired job is failed (the factorization itself, once started, is
	// not preemptible — its goroutine is joined at shutdown).
	JobTimeout time.Duration
	// RatePerSec and RateBurst configure the per-client token bucket
	// (keyed by X-Client header, else the remote host). RatePerSec <= 0
	// disables rate limiting; RateBurst <= 0 defaults to 8.
	RatePerSec float64
	RateBurst  int
	// Cache, when set, is the on-disk result store shared with the CLI:
	// a job whose fingerprint was ever executed — by any process — is
	// served without running a kernel.
	Cache *experiments.Cache
	// Clock is required (see type comment).
	Clock Clock
	// MetricsPath, when set, receives the global registry snapshot on
	// shutdown — the "flush metrics" half of graceful drain.
	MetricsPath string
}

// errDraining and errQueueFull are enqueue's refusals.
var (
	errDraining  = errors.New("draining")
	errQueueFull = errors.New("queue full")
)

// stateEvent is one lifecycle transition, kept per job for the SSE
// stream.
type stateEvent struct {
	State State     `json:"state"`
	Time  time.Time `json:"time"`
	Error string    `json:"error,omitempty"`
}

// job is one submission's identity, fixed when it is accepted and
// readable without the lock. Its lifecycle is a jobStatus in the
// server's shared state. execDone is closed by the executing
// goroutine.
type job struct {
	id        string
	fp        string
	req       JobRequest
	opts      core.Options
	submitted time.Time
	execDone  chan struct{}
}

// jobStatus is a job's lifecycle. It lives in shared.jobs, so only
// code holding the server lock reaches it. changed is
// closed-and-replaced on every transition (a broadcast that
// long-polls and SSE streams select on).
type jobStatus struct {
	*job
	state    State
	errCode  string // a JobErrorCodes code, set with errText when it fails or is canceled
	errText  string
	started  time.Time
	finished time.Time
	executed bool
	result   core.Result
	metrics  []byte // this job's private registry snapshot
	trace    *hetsim.Trace
	history  []stateEvent
	changed  chan struct{}
}

// shared is what the daemon's handlers and workers share. It is
// reachable only inside Server.st.Do, which holds the lock, so its
// methods run with the lock held by construction.
type shared struct {
	jobs          map[string]*jobStatus // by job ID
	seq           int
	campaigns     map[string]*campaignStatus // by campaign ID
	campaignsByFP map[string]*campaignStatus
	cseq          int
	draining      bool
}

// Server is the daemon: an HTTP handler plus the worker pool behind
// it. Construct with New, serve with Serve (or mount Handler in a test
// server), and always Shutdown — the workers are live goroutines.
type Server struct {
	cfg     Config
	sched   *experiments.Scheduler
	reg     *obs.Registry // global /metrics registry; jobs merge in on completion
	limiter *rateLimiter
	queue   chan *job
	quit    chan struct{} // closed by Shutdown: stop accepting, drain
	httpSrv *http.Server
	mux     *http.ServeMux

	workers guard.Group // the fixed worker pool
	execs   guard.Group // in-flight executions (a factorization may outlive its worker on timeout)

	// execCtx scopes daemon-owned executions that can observe
	// cancellation mid-flight (campaign shard loops); cancelExec fires
	// when a shutdown deadline expires. Factorizations are not
	// preemptible and ignore it.
	execCtx    context.Context
	cancelExec context.CancelFunc

	st guard.Mutex[shared]
}

// New builds a daemon and starts its worker pool. The caller owns the
// lifecycle: Serve (or Handler) to expose it, Shutdown to drain it.
func New(cfg Config) (*Server, error) {
	if cfg.Clock.Now == nil || cfg.Clock.After == nil {
		return nil, fmt.Errorf("server: Config.Clock is required (cmd/abftd wires the real clock; tests inject fixed ones)")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RateBurst <= 0 {
		cfg.RateBurst = 8
	}
	s := &Server{
		cfg:   cfg,
		sched: experiments.NewScheduler(cfg.Workers, cfg.Cache),
		reg:   obs.NewRegistry(),
		queue: make(chan *job, cfg.QueueDepth),
		quit:  make(chan struct{}),
	}
	s.st.Do(func(sh *shared) {
		sh.jobs = make(map[string]*jobStatus)
		sh.campaigns = make(map[string]*campaignStatus)
		sh.campaignsByFP = make(map[string]*campaignStatus)
	})
	// Background is correct here: New is the root of the daemon's
	// lifetime, not a request path; Shutdown owns the cancel.
	s.execCtx, s.cancelExec = context.WithCancel(context.Background())
	if cfg.RatePerSec > 0 {
		s.limiter = newRateLimiter(cfg.RatePerSec, float64(cfg.RateBurst), cfg.Clock.Now)
	}
	s.mux = s.routes()
	s.httpSrv = &http.Server{Handler: s.mux}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Go(s.worker)
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler, for mounting in tests
// without a listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. A closed-listener
// exit is a clean return, not an error.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown is the graceful drain: mark draining (submissions get 503),
// close the listener and wait for in-flight handlers, let the workers
// finish every job already accepted, then flush the metrics snapshot.
// If ctx expires first, still-queued jobs are canceled so the drain
// converges (running factorizations are joined regardless — core.Run
// always terminates). Safe to call once; later calls return nil
// immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	var already bool
	s.st.Do(func(sh *shared) { already, sh.draining = sh.draining, true })
	if already {
		return nil
	}
	close(s.quit)

	// Listener first: stop accepting. Long-polls and SSE streams select
	// on quit, so handlers return promptly.
	httpErr := s.httpSrv.Shutdown(ctx)

	finished := make(chan struct{})
	var waiter guard.Group
	waiter.Go(func() {
		defer close(finished)
		s.workers.Wait()
		// A submission racing the quit signal can land in the queue
		// after every worker saw it empty and exited; the listener is
		// closed so the queue is final — drain any such straggler.
		// (Canceled-by-deadline jobs pass through here too and are
		// skipped by claimRunning.)
	drain:
		for {
			select {
			case j := <-s.queue:
				s.process(j)
			default:
				break drain
			}
		}
		s.execs.Wait()
	})
	select {
	case <-finished:
	case <-ctx.Done():
		// Deadline expired: stop campaign shard loops at their next
		// boundary and cancel still-queued jobs.
		s.cancelExec()
		s.cancelQueued("canceled: daemon shutdown deadline expired before the job started")
	}
	// The join converges: factorizations always terminate and canceled
	// campaigns stop at the next shard boundary.
	waiter.Wait()
	s.cancelExec()
	// Anything still queued lost the submit/drain race and will never
	// be picked up; give it a terminal state so watchers unblock.
	s.cancelQueued("canceled: daemon shut down before the job started")

	if s.cfg.MetricsPath != "" {
		snap, err := s.reg.Snapshot()
		if err == nil {
			err = writeFileAtomic(s.cfg.MetricsPath, snap)
		}
		if err != nil && httpErr == nil {
			httpErr = fmt.Errorf("server: metrics flush: %w", err)
		}
	}
	return httpErr
}

// writeFileAtomic replaces path with data whole: it writes and syncs a
// temp file beside path and renames it into place, so a reader, or a
// crash mid-write, never sees a truncated snapshot. The temp file is
// removed on every failure.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Chmod(0o644)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// Metrics returns the global registry snapshot (the /metrics body).
func (s *Server) Metrics() ([]byte, error) { return s.reg.Snapshot() }

// worker drains the queue until quit, then drains whatever was already
// accepted and exits.
func (s *Server) worker() {
	for {
		select {
		case j := <-s.queue:
			s.process(j)
		case <-s.quit:
			for {
				select {
				case j := <-s.queue:
					s.process(j)
				default:
					return
				}
			}
		}
	}
}

// process runs one dequeued job: claim it (it may have been canceled
// while queued, or its deadline may have passed), execute on a
// tracked goroutine, and wait for completion or the deadline —
// whichever first. On timeout the job is failed and the worker moves
// on; the factorization goroutine finishes in the background and is
// joined by Shutdown through s.execs.
func (s *Server) process(j *job) {
	now := s.cfg.Clock.Now()
	var deadline time.Time
	if s.cfg.JobTimeout > 0 {
		deadline = j.submitted.Add(s.cfg.JobTimeout)
		if !now.Before(deadline) {
			s.timeOut(j, StateQueued, "job expired while queued")
			return
		}
	}
	if !s.claimRunning(j, now) {
		return // canceled while queued
	}
	s.execs.Go(func() { s.execJob(j) })
	if deadline.IsZero() {
		<-j.execDone
		return
	}
	select {
	case <-j.execDone:
	case <-s.cfg.Clock.After(deadline.Sub(now)):
		s.timeOut(j, StateRunning, fmt.Sprintf("exceeded the %s job deadline", s.cfg.JobTimeout))
	}
}

// execJob performs the factorization through the shared scheduler and
// publishes the outcome. Each job records into a private registry —
// that snapshot is the job's /metrics body, byte-identical to what a
// local CLI run of the same options would have written — and the
// delta merges into the global registry afterwards. A job that lost a
// timeout race keeps its failed state; the execution's metrics still
// merge (the work did happen).
func (s *Server) execJob(j *job) {
	defer close(j.execDone)
	sink := &experiments.Obs{Metrics: obs.NewRegistry(), CaptureTrace: j.opts.Trace}
	pr := s.sched.Execute([]core.Options{j.opts}, sink)[0]
	snap, snapErr := sink.Metrics.Snapshot()
	tr, _ := sink.LastTrace()

	s.reg.Merge(sink.Metrics)
	now := s.cfg.Clock.Now()
	var transitioned bool
	var state State
	s.st.Do(func(sh *shared) {
		js := sh.jobs[j.id]
		if js.state != StateRunning {
			return
		}
		transitioned = true
		js.executed = pr.Executed
		js.metrics = snap
		js.trace = tr
		js.result = pr.Result
		js.finished = now
		switch {
		case snapErr != nil:
			js.state = StateFailed
			js.errCode, js.errText = CodeInternalError, "metrics snapshot: "+snapErr.Error()
		case pr.Err != nil:
			// The run's class is a field of its result; a failure
			// outside the fault taxonomy has none.
			js.state = StateFailed
			js.errCode, js.errText = pr.Result.Failure.Code(), pr.Err.Error()
			if js.errCode == "" {
				js.errCode = CodeInternalError
			}
		default:
			js.state = StateDone
		}
		sh.broadcast(js)
		state = js.state
	})

	if !transitioned {
		return // lost a timeout race; timeOut already accounted it
	}
	switch {
	case state == StateDone && pr.Executed:
		s.reg.Inc("server.jobs.done")
	case state == StateDone:
		s.reg.Inc("server.jobs.done")
		s.reg.Inc("server.jobs.deduped")
	case state == StateFailed:
		s.reg.Inc("server.jobs.failed")
	}
}

// claimRunning moves a queued job to running; false means the job was
// already terminal (canceled or timed out while queued).
func (s *Server) claimRunning(j *job, now time.Time) (claimed bool) {
	s.st.Do(func(sh *shared) {
		js := sh.jobs[j.id]
		if js.state != StateQueued {
			return
		}
		js.state = StateRunning
		js.started = now
		sh.broadcast(js)
		claimed = true
	})
	return claimed
}

// timeOut fails a job that passed its deadline in the given state; a
// job already past that state is left alone (e.g. the execution
// finished in the instant the deadline fired).
func (s *Server) timeOut(j *job, from State, why string) {
	now := s.cfg.Clock.Now()
	var failed bool
	s.st.Do(func(sh *shared) {
		js := sh.jobs[j.id]
		if js.state != from {
			return
		}
		js.state = StateFailed
		js.errCode, js.errText = CodeTimeout, "timeout: "+why
		js.finished = now
		sh.broadcast(js)
		failed = true
	})
	if failed {
		s.reg.Inc("server.jobs.failed")
	}
}

// cancelQueued cancels every still-queued job with the given text (the
// shutdown paths).
func (s *Server) cancelQueued(text string) {
	now := s.cfg.Clock.Now()
	var n int64
	s.st.Do(func(sh *shared) {
		for _, js := range sh.jobs {
			if js.state == StateQueued {
				js.state = StateCanceled
				js.errCode, js.errText = CodeCanceled, text
				js.finished = now
				sh.broadcast(js)
				n++
			}
		}
	})
	if n > 0 {
		s.reg.Add("server.jobs.canceled", n)
	}
}

// broadcast records the transition and wakes every watcher.
func (sh *shared) broadcast(js *jobStatus) {
	t := js.started
	if js.state.Terminal() {
		t = js.finished
	}
	js.history = append(js.history, stateEvent{State: js.state, Time: t, Error: js.errText})
	close(js.changed)
	js.changed = make(chan struct{})
}

// info renders a job's status body.
func (sh *shared) info(js *jobStatus) JobInfo {
	info := JobInfo{
		ID:          js.id,
		State:       js.state,
		Fingerprint: js.fp,
		Scheme:      js.req.Scheme,
		Machine:     js.req.Machine,
		N:           js.opts.N,
		SubmittedAt: js.submitted,
		Error:       js.errText,
		ErrorCode:   js.errCode,
	}
	if info.Machine == "" && js.req.Profile != nil {
		info.Machine = js.req.Profile.Name
	}
	if !js.started.IsZero() {
		t := js.started
		info.StartedAt = &t
	}
	if !js.finished.IsZero() {
		t := js.finished
		info.FinishedAt = &t
	}
	if js.state == StateDone || (js.state == StateFailed && js.metrics != nil) {
		e := js.executed
		info.Executed = &e
	}
	return info
}

// enqueue registers a submission under the next ID and queues it in
// one step, so no handler or worker ever sees a registered job that is
// not queued. It returns the job's status as accepted (taken before a
// worker can pick it up, or a fast job would answer "done"), or
// errDraining or errQueueFull; a refused submission still consumes its
// ID. The send cannot block: a full queue refuses.
func (s *Server) enqueue(req JobRequest, opts core.Options, fp string) (*job, JobInfo, error) {
	now := s.cfg.Clock.Now()
	var j *job
	var info JobInfo
	var err error
	s.st.Do(func(sh *shared) {
		if sh.draining {
			err = errDraining
			return
		}
		sh.seq++
		j = &job{
			id:        fmt.Sprintf("j-%06d", sh.seq),
			fp:        fp,
			req:       req,
			opts:      opts,
			submitted: now,
			execDone:  make(chan struct{}),
		}
		js := &jobStatus{
			job:     j,
			state:   StateQueued,
			history: []stateEvent{{State: StateQueued, Time: now}},
			changed: make(chan struct{}),
		}
		select {
		case s.queue <- j:
			sh.jobs[j.id] = js
			info = sh.info(js)
		default:
			err = errQueueFull
		}
	})
	return j, info, err
}
