package experiments

import (
	"fmt"

	"abftchol/internal/core"
	"abftchol/internal/guard"
	"abftchol/internal/hetsim"
	"abftchol/internal/obs"
)

// Obs collects observability artifacts across every factorization an
// experiment (or a whole `-exp all` sweep) runs: a shared metrics
// registry accumulating counters over all runs, and — when
// CaptureTrace is set — the timeline of the most recent run, which
// for the standard sweeps is the largest, most interesting one.
// Attach it via Config.Obs; cmd/abftchol builds one for the
// -metrics-out / -trace-out flags. An Obs may be shared by concurrent
// scheduler runs: the registry locks internally and the retained
// trace is guarded here.
type Obs struct {
	// Metrics receives every run's counters and histograms (nil: no
	// metrics).
	Metrics *obs.Registry
	// CaptureTrace records each run's timeline; only the last run's
	// trace is retained, so memory stays bounded by one run.
	CaptureTrace bool

	last guard.Mutex[retainedTrace]
}

// retainedTrace identifies the retained timeline.
type retainedTrace struct {
	trace *hetsim.Trace
	label string
}

// LastTrace returns the retained timeline and its label (nil if no
// traced run has finished).
func (s *Obs) LastTrace() (*hetsim.Trace, string) {
	var last retainedTrace
	s.last.Do(func(r *retainedTrace) { last = *r })
	return last.trace, last.label
}

// setLastTrace replaces the retained timeline.
func (s *Obs) setLastTrace(tr *hetsim.Trace, label string) {
	s.last.Do(func(r *retainedTrace) { *r = retainedTrace{tr, label} })
}

// instrument copies the sink's wiring into one run's options.
func (c Config) instrument(o core.Options) core.Options {
	if c.Obs != nil {
		if c.Obs.Metrics != nil {
			o.Metrics = c.Obs.Metrics
		}
		if c.Obs.CaptureTrace {
			o.Trace = true
		}
	}
	return o
}

// capture retains a finished run's trace in the sink.
func (c Config) capture(r core.Result) {
	if c.Obs != nil {
		c.Obs.capture(r)
	}
}

func (s *Obs) capture(r core.Result) {
	if s != nil && s.CaptureTrace && r.Trace != nil {
		s.setLastTrace(r.Trace, fmt.Sprintf("%s n=%d K=%d %s", r.Scheme, r.N, r.K, r.Placement))
	}
}

// runErr resolves one factorization point. With no engine attached the
// point executes inline with the config's observability wiring — the
// original serial path, still used when a runner is called directly.
// Under a scheduler the call is routed to the current phase: recorded
// during planning (stub result), answered from the memo during replay.
func (c Config) runErr(o core.Options) (core.Result, error) {
	if c.eng != nil {
		return c.eng.point(o)
	}
	r, err := core.Run(c.instrument(o))
	c.capture(r) // even a failed run carries its timeline
	return r, err
}

// run is runErr for the sweeps that never exhaust MaxAttempts by
// construction: an error means the harness itself is misconfigured,
// so it panics.
func (c Config) run(o core.Options) core.Result {
	r, err := c.runErr(o)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s n=%d: %v", o.Scheme, o.N, err))
	}
	return r
}
