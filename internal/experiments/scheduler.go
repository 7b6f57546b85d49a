// Sweep engine: every figure and table of §VII is a set of
// independent (machine, n, scheme, K, variant) factorization points,
// and many points repeat across runners — every optimization study
// re-measures the same MAGMA baseline, fig14's enhanced runs reappear
// in fig16's GFLOPS sweep. The Scheduler exploits both facts: runners
// *declare* their point set (a planning pass records every
// factorization a runner would perform), the unique points execute
// once each on a bounded worker pool, and an assembly pass replays the
// runner against the memoized results. Output is therefore assembled
// by the same serial code in the same order regardless of worker
// count: text, CSV, and JSON renderings are byte-identical between
// -parallel 1 and -parallel N, which the differential test battery
// enforces.
//
// Planning works because runners are deterministic in *which* points
// they request: control flow never chooses different options based on
// earlier results (values only flow into the rendered output). The
// planning pass runs the runner against stub results and keeps only
// the recorded point set; the assembly pass is the one whose return
// value the caller sees.
package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"abftchol/internal/core"
	"abftchol/internal/guard"
	"abftchol/internal/hetsim"
	"abftchol/internal/obs"
)

// Scheduler executes sweep points concurrently with memoization. One
// Scheduler spans a whole sweep (`-exp all` builds exactly one), so a
// point shared by several experiments runs once per process — and once
// ever, when an on-disk Cache is attached. A Scheduler is safe for
// concurrent use; the worker bound applies across all concurrent
// callers.
type Scheduler struct {
	workers int
	cache   *Cache
	sem     chan struct{}
	// runFn resolves one point; core.Run locally, or an HTTP client's
	// submit-and-wait when the scheduler fronts a remote daemon
	// (NewRemoteScheduler). remote marks the latter: remote points
	// record no local metric deltas (the daemon accounts them) and a
	// requested trace cannot be fetched, only re-recorded locally.
	runFn  func(core.Options) (core.Result, error)
	remote bool

	st guard.Mutex[schedState]
}

// schedState is the scheduler's guarded state.
type schedState struct {
	memo     map[string]*outcome
	storeErr error
}

// outcome is the lifecycle of one unique point: created under the
// scheduler lock, filled in by exactly one goroutine, done closed when
// the result (or error) is available.
type outcome struct {
	done     chan struct{}
	res      core.Result
	err      error
	delta    *obs.Registry // metrics the execution recorded, nil if none
	executed bool          // ran core.Run (not memo, not disk)
	fromDisk bool
	stored   bool
	merged   atomic.Bool // delta already flushed into a sink
}

// NewScheduler builds a sweep engine running at most workers
// factorizations at once (<= 0 means GOMAXPROCS) with an optional
// on-disk result cache.
func NewScheduler(workers int, cache *Cache) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		workers: workers,
		cache:   cache,
		sem:     make(chan struct{}, workers),
		runFn:   core.Run,
	}
	s.st.Do(func(st *schedState) { st.memo = make(map[string]*outcome) })
	return s
}

// NewRemoteScheduler builds a sweep engine whose points are resolved
// by runFn — typically server.Client.RunPoint, which submits the
// options to a running abftd daemon and waits for the result — instead
// of executing locally. Deduplication, memoization, and deterministic
// replay are unchanged, so `-exp` output assembled from remote results
// is byte-identical to a local run; the daemon does its own caching,
// so no local disk cache is attached. Metric deltas stay on the
// daemon's registry (fetch its /metrics), and traces are not captured.
func NewRemoteScheduler(workers int, runFn func(core.Options) (core.Result, error)) *Scheduler {
	s := NewScheduler(workers, nil)
	s.runFn = runFn
	s.remote = true
	return s
}

// Workers returns the concurrency bound.
func (s *Scheduler) Workers() int { return s.workers }

// Remote reports whether points execute on a remote daemon rather
// than in-process. Remote execution returns a failed point's error as
// text, without its Result.Failure, so work that classifies trials
// (reliability campaigns) must refuse remote schedulers and run
// server-side instead.
func (s *Scheduler) Remote() bool { return s.remote }

// StoreErr returns the first cache-write failure, if any. Stores are
// best-effort for correctness (the sweep's results are unaffected) but
// a broken cache directory should be surfaced, not silently ignored.
func (s *Scheduler) StoreErr() error {
	var err error
	s.st.Do(func(st *schedState) { err = st.storeErr })
	return err
}

// PointResult is one point's outcome, in the order requested.
type PointResult struct {
	Result core.Result
	Err    error
	// Executed reports whether this call performed the factorization;
	// false means the point was served by in-process memoization or
	// the on-disk cache.
	Executed bool
}

// Execute resolves every requested point — deduplicating identical
// options, consulting the cache, and fanning the remainder over the
// worker pool — and returns one result per input point, in input
// order. When sink carries a metrics registry, each executed point
// records into a private registry and the deltas are merged into the
// sink in canonical (first-requested) point order after all workers
// finish; cache and memo hits contribute no metrics, which is exactly
// what lets a warm-cache sweep prove "zero new factorizations" through
// the kernel counters. When sink.CaptureTrace is set the last
// requested point retains its timeline (re-executing it if it was
// served from cache), matching the serial path's "last run" semantics.
func (s *Scheduler) Execute(points []core.Options, sink *Obs) []PointResult {
	fps := make([]string, len(points))
	for i, o := range points {
		fps[i] = fingerprint(o)
	}
	traceFP := ""
	if sink != nil && sink.CaptureTrace && len(points) > 0 && !s.remote {
		traceFP = fps[len(points)-1]
	}

	type slot struct {
		oc      *outcome
		created bool
	}
	seen := make(map[string]*slot)
	var order []string // unique fingerprints, first-requested order
	var g guard.Group
	for i, fp := range fps {
		if _, ok := seen[fp]; ok {
			continue
		}
		oc, created := s.claim(fp)
		seen[fp] = &slot{oc: oc, created: created}
		order = append(order, fp)
		if created {
			o, traced := points[i], fp == traceFP
			g.Go(func() { s.runPoint(fp, o, sink, oc, traced) })
		}
	}
	g.Wait()
	for _, fp := range order {
		<-seen[fp].oc.done // points resolved by a concurrent caller
	}

	// The retained timeline: if the last point came out of the memo or
	// the disk cache untraced, run it once more purely for the
	// recording (tracing is observational; the result is identical).
	if traceFP != "" {
		oc := seen[traceFP].oc
		res := oc.res
		if res.Trace == nil && oc.err == nil {
			o := points[len(points)-1]
			o.Trace = true
			o.Metrics = nil
			if r, err := core.Run(o); err == nil {
				res = r
			}
		}
		sink.capture(res)
	}

	s.flush(points, fps, order, func(fp string) (*outcome, bool) {
		sl := seen[fp]
		return sl.oc, sl.created
	}, sink)

	out := make([]PointResult, len(points))
	counted := make(map[string]bool)
	for i, fp := range fps {
		sl := seen[fp]
		out[i] = PointResult{Result: sl.oc.res, Err: sl.oc.err}
		if !counted[fp] {
			counted[fp] = true
			out[i].Executed = sl.created && sl.oc.executed
		}
	}
	return out
}

// claim registers a fingerprint, returning its outcome and whether the
// caller owns (must execute) it.
func (s *Scheduler) claim(fp string) (oc *outcome, created bool) {
	s.st.Do(func(st *schedState) {
		if oc = st.memo[fp]; oc == nil {
			oc = &outcome{done: make(chan struct{})}
			st.memo[fp] = oc
			created = true
		}
	})
	return oc, created
}

// runPoint fills one owned outcome: disk cache first (unless the
// point's timeline is wanted — cached entries carry none), then a real
// run on a worker slot.
func (s *Scheduler) runPoint(fp string, o core.Options, sink *Obs, oc *outcome, wantTrace bool) {
	defer close(oc.done)
	cacheable := o.Data == nil
	if s.cache != nil && cacheable && !wantTrace {
		if res, ok := s.cache.Load(fp); ok {
			oc.res, oc.fromDisk = res, true
			return
		}
	}
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	run := o
	run.Trace = wantTrace
	run.Metrics = nil
	if sink != nil && sink.Metrics != nil && !s.remote {
		oc.delta = obs.NewRegistry()
		run.Metrics = oc.delta
	}
	oc.res, oc.err = s.runFn(run)
	oc.executed = true
	if s.cache != nil && cacheable && oc.err == nil {
		if err := s.cache.Store(o, oc.res); err != nil {
			s.st.Do(func(st *schedState) {
				if st.storeErr == nil {
					st.storeErr = err
				}
			})
		} else {
			oc.stored = true
		}
	}
}

// flush merges per-execution metric deltas into the sink in canonical
// point order and accounts the sweep.* counters. Each delta merges
// exactly once across the scheduler's lifetime (the memo outlives one
// Execute call): the caller that flips its merged flag merges it.
func (s *Scheduler) flush(points []core.Options, fps, order []string, get func(string) (*outcome, bool), sink *Obs) {
	if sink == nil || sink.Metrics == nil {
		return
	}
	m := sink.Metrics
	for _, fp := range order {
		oc, _ := get(fp)
		if oc.delta != nil && oc.merged.CompareAndSwap(false, true) {
			m.Merge(oc.delta)
		}
	}
	m.Add("sweep.points.planned", int64(len(points)))
	first := make(map[string]bool)
	for _, fp := range fps {
		oc, created := get(fp)
		if first[fp] {
			m.Inc("sweep.dedup.hits")
			continue
		}
		first[fp] = true
		switch {
		case !created:
			m.Inc("sweep.dedup.hits")
		case oc.fromDisk:
			m.Inc("sweep.cache.hits")
		default:
			m.Inc("sweep.points.executed")
		}
		if created && oc.stored {
			m.Inc("sweep.cache.stores")
		}
	}
}

// engineMode sequences the two runner passes.
type engineMode int

const (
	modePlan engineMode = iota + 1
	modeReplay
)

// engine carries one phased runner invocation: the declared point set
// and, after execution, the memoized results the replay pass reads.
type engine struct {
	mode    engineMode
	points  []core.Options
	results map[string]PointResult
}

// point is Config.runErr's scheduler path: record during planning,
// look up during replay.
func (e *engine) point(o core.Options) (core.Result, error) {
	switch e.mode {
	case modePlan:
		e.points = append(e.points, o)
		return core.Result{}, nil
	case modeReplay:
		pr, ok := e.results[fingerprint(o)]
		if !ok {
			panic(fmt.Sprintf("experiments: replay requested a point the plan never declared (%s n=%d K=%d); runner control flow must not depend on result values", o.Scheme, o.N, o.K))
		}
		return pr.Result, pr.Err
	}
	panic("experiments: engine used outside a scheduler phase")
}

// phased runs fn twice around one Execute: once to declare the point
// set, once to assemble output from the memoized results.
func (s *Scheduler) phased(cfg Config, fn func(Config) interface{}) interface{} {
	eng := &engine{mode: modePlan}
	cfg.eng = eng
	fn(cfg) // planning pass; output discarded
	results := s.Execute(eng.points, cfg.Obs)
	eng.results = make(map[string]PointResult, len(results))
	for i, o := range eng.points {
		eng.results[fingerprint(o)] = results[i]
	}
	eng.mode = modeReplay
	return fn(cfg)
}

// Run executes one runner through the scheduler: its point set is
// declared, deduplicated against everything this Scheduler has already
// run, executed on the worker pool, and assembled in deterministic
// order.
func (s *Scheduler) Run(run Runner, prof hetsim.Profile, cfg Config) fmt.Stringer {
	return s.phased(cfg, func(c Config) interface{} { return run(prof, c) }).(fmt.Stringer)
}

// RunShapeChecks executes the reproduction self-test through the
// scheduler; every capability ratio and figure sweep it needs shares
// the scheduler's memo and worker pool.
func (s *Scheduler) RunShapeChecks(cfg Config) *ShapeReport {
	return s.phased(cfg, func(c Config) interface{} { return RunShapeChecks(c) }).(*ShapeReport)
}
