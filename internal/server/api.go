package server

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/reliability/campaign"
)

// JobRequest is the body of POST /v1/jobs: one factorization point,
// spelled the way cmd/abftchol's -run flags spell it. Machine/Profile,
// N, and Scheme identify the run; everything else has the CLI's
// defaults. The request maps losslessly onto core.Options
// (Options()), so a job's canonical fingerprint — and therefore its
// dedup and cache identity — is computed by the same code path the
// sweep engine uses.
type JobRequest struct {
	// Machine names a stock profile (tardis, bulldozer64, laptop).
	// Profile, when set, carries a full machine description instead and
	// takes precedence — this is how remote sweeps ship modified
	// profiles without the server needing to know them by name.
	Machine string          `json:"machine,omitempty"`
	Profile *hetsim.Profile `json:"profile,omitempty"`
	// N is the matrix dimension (a multiple of the block size).
	N int `json:"n"`
	// BlockSize overrides the profile's block size when > 0.
	BlockSize int `json:"block_size,omitempty"`
	// Scheme is the fault-tolerance variant: magma, cula, offline,
	// online, enhanced, or scrub.
	Scheme string `json:"scheme"`
	// Variant is the blocked formulation: left (default) or right.
	Variant string `json:"variant,omitempty"`
	// K is Optimization 3's verification interval (default 1).
	K int `json:"k,omitempty"`
	// ChecksumVectors is the checksum row count per block (default 2).
	ChecksumVectors int `json:"checksum_vectors,omitempty"`
	// ConcurrentRecalc toggles Optimization 1; absent means on, the
	// CLI's -run default.
	ConcurrentRecalc *bool `json:"concurrent_recalc,omitempty"`
	// Placement is Optimization 2's choice: auto (default), cpu, gpu,
	// or inline.
	Placement string `json:"placement,omitempty"`
	// Inject lists soft errors in the CLI's spelling, e.g.
	// "storage@4,computation@7"; Delta is their magnitude (default
	// 1e5). Scenarios carries fully specified injections instead;
	// setting both is an error.
	Inject    string           `json:"inject,omitempty"`
	Delta     float64          `json:"delta,omitempty"`
	Scenarios []fault.Scenario `json:"scenarios,omitempty"`
	// MaxAttempts bounds the restart loop (default 3).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Trace records the run's timeline for GET /v1/jobs/{id}/trace.
	// Traced points are never served from the disk cache (entries hold
	// no timeline), though a deduplicated point is re-run once purely
	// for the recording.
	Trace bool `json:"trace,omitempty"`
}

// ParsePlacement resolves the request (and CLI -placement flag)
// spelling of Optimization 2's placement choice.
func ParsePlacement(s string) (core.Placement, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return core.PlaceAuto, nil
	case "cpu":
		return core.PlaceCPU, nil
	case "gpu":
		return core.PlaceGPU, nil
	case "inline":
		return core.PlaceInline, nil
	}
	return 0, fmt.Errorf("unknown placement %q", s)
}

// ParseVariant resolves the request (and CLI -variant flag) spelling
// of the blocked formulation.
func ParseVariant(s string) (core.Variant, error) {
	switch strings.ToLower(s) {
	case "", "left", "inner":
		return core.LeftLooking, nil
	case "right", "outer":
		return core.RightLooking, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want left or right)", s)
}

// ParseInjections parses the CLI's comma-separated kind@iter error
// list; delta is the injected magnitude applied to every scenario.
func ParseInjections(spec string, delta float64) ([]fault.Scenario, error) {
	if spec == "" {
		return nil, nil
	}
	var out []fault.Scenario
	for _, part := range strings.Split(spec, ",") {
		kindIter := strings.SplitN(strings.TrimSpace(part), "@", 2)
		if len(kindIter) != 2 {
			return nil, fmt.Errorf("bad injection %q, want kind@iter", part)
		}
		iter, err := strconv.Atoi(kindIter[1])
		if err != nil {
			return nil, fmt.Errorf("bad injection iteration in %q: %v", part, err)
		}
		var sc fault.Scenario
		switch strings.ToLower(kindIter[0]) {
		case "storage", "memory":
			sc = fault.DefaultStorage(iter)
		case "computation", "compute":
			sc = fault.DefaultComputation(iter)
		default:
			return nil, fmt.Errorf("bad injection kind %q (want storage or computation)", kindIter[0])
		}
		sc.Delta = delta
		out = append(out, sc)
	}
	return out, nil
}

// Options maps the request onto a core.Options point, applying the
// CLI's defaults. Validation of the point itself (N vs block size,
// vector counts) stays with core.Run; only request-shape errors are
// reported here.
func (r JobRequest) Options() (core.Options, error) {
	var o core.Options
	switch {
	case r.Profile != nil:
		o.Profile = *r.Profile
	case r.Machine != "":
		prof, err := hetsim.ProfileByName(r.Machine)
		if err != nil {
			return o, err
		}
		o.Profile = prof
	default:
		return o, fmt.Errorf("one of machine or profile is required")
	}
	if r.Scheme == "" {
		return o, fmt.Errorf("scheme is required")
	}
	scheme, err := core.ParseScheme(r.Scheme)
	if err != nil {
		return o, err
	}
	variant, err := ParseVariant(r.Variant)
	if err != nil {
		return o, err
	}
	placement, err := ParsePlacement(r.Placement)
	if err != nil {
		return o, err
	}
	scenarios := r.Scenarios
	if r.Inject != "" {
		if len(r.Scenarios) > 0 {
			return o, fmt.Errorf("inject and scenarios are mutually exclusive")
		}
		delta := r.Delta
		if delta == 0 {
			delta = 1e5
		}
		scenarios, err = ParseInjections(r.Inject, delta)
		if err != nil {
			return o, err
		}
	}
	o.N = r.N
	o.BlockSize = r.BlockSize
	o.Scheme = scheme
	o.Variant = variant
	o.K = r.K
	o.ChecksumVectors = r.ChecksumVectors
	o.ConcurrentRecalc = r.ConcurrentRecalc == nil || *r.ConcurrentRecalc
	o.Placement = placement
	o.Scenarios = scenarios
	o.MaxAttempts = r.MaxAttempts
	o.Trace = r.Trace
	return o, nil
}

// RequestFromOptions builds the wire request that round-trips to the
// same options point — the client half of remote execution. Real-plane
// runs do not serialize (the input matrix stays local), and
// observational wiring (Trace, Metrics) is deliberately dropped: the
// daemon owns its own instrumentation.
func RequestFromOptions(o core.Options) (JobRequest, error) {
	if o.Data != nil {
		return JobRequest{}, fmt.Errorf("real-plane runs (Options.Data) cannot be submitted remotely; run locally")
	}
	prof := o.Profile
	req := JobRequest{
		Profile:         &prof,
		N:               o.N,
		BlockSize:       o.BlockSize,
		Scheme:          core.SchemeKey(o.Scheme),
		K:               o.K,
		ChecksumVectors: o.ChecksumVectors,
		Placement:       o.Placement.String(),
		Scenarios:       o.Scenarios,
		MaxAttempts:     o.MaxAttempts,
	}
	if o.Variant == core.RightLooking {
		req.Variant = "right"
	}
	cr := o.ConcurrentRecalc
	req.ConcurrentRecalc = &cr
	return req, nil
}

// State is a job's lifecycle position. Transitions only move forward:
// queued → running → done/failed, with canceled reachable from queued
// (a running factorization is not preemptible) and failed also
// reachable directly from queued when the deadline expires first.
// Campaigns skip queued (running at submission) and reach canceled
// when a shutdown deadline interrupts them at a shard boundary.
type State string

// The job states, as they appear in every response body.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobInfo is the status body every job endpoint returns.
type JobInfo struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Fingerprint string `json:"fingerprint"`
	// Scheme/Machine/N summarize the request for listings.
	Scheme      string    `json:"scheme"`
	Machine     string    `json:"machine"`
	N           int       `json:"n"`
	SubmittedAt time.Time `json:"submitted_at"`
	// StartedAt/FinishedAt are set as the transitions happen.
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Executed is set once the job is done: true when this job
	// performed the factorization, false when an identical earlier (or
	// concurrent) submission or the on-disk cache served it.
	Executed *bool `json:"executed,omitempty"`
	// Error carries the failure or cancellation reason as rendered
	// text; ErrorCode carries its classification (see JobErrorCodes),
	// so a client branches on the code rather than matching the text.
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []JobInfo `json:"jobs"`
}

// CampaignInfo is the status body of a reliability campaign. Attached
// counts later submissions of the same config that were deduped onto
// this execution by fingerprint.
type CampaignInfo struct {
	ID          string          `json:"id"`
	State       State           `json:"state"`
	Fingerprint string          `json:"fingerprint"`
	Config      campaign.Config `json:"config"`
	Attached    int             `json:"attached"`
	SubmittedAt time.Time       `json:"submitted_at"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	// Error and ErrorCode mirror JobInfo's pair (see JobErrorCodes).
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
}

// JobResult is the body of GET /v1/jobs/{id}/result.
type JobResult struct {
	ID          string                 `json:"id"`
	Fingerprint string                 `json:"fingerprint"`
	Executed    bool                   `json:"executed"`
	Result      experiments.WireResult `json:"result"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status        string        `json:"status"` // "ok" or "draining"
	Workers       int           `json:"workers"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	Jobs          map[State]int `json:"jobs"`
}

// APIError is the envelope every non-2xx response carries.
type APIError struct {
	Err ErrorBody `json:"error"`
}

// ErrorBody is the machine-readable error inside the envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s", e.Err.Code, e.Err.Message)
}

// ErrorCode documents one error code for docs/SERVICE.md's generated
// table.
type ErrorCode struct {
	Code    string
	Status  int
	Meaning string
}

// ErrorCodes is the closed set of error codes the API emits;
// docs/SERVICE.md renders this table and a drift test pins the two
// together.
var ErrorCodes = []ErrorCode{
	{"invalid_request", 400, "the request body is not valid JSON, names unknown fields, or fails option validation (unknown scheme, missing machine, conflicting inject/scenarios, a campaign past `campaign.MaxTrials` or `campaign.MaxShards`)"},
	{"unknown_job", 404, "no job with this ID exists (IDs are not persisted across daemon restarts)"},
	{"unknown_campaign", 404, "no campaign with this ID exists (IDs are not persisted across daemon restarts)"},
	{"no_trace", 404, "the job was submitted without \"trace\": true, so no timeline was recorded"},
	{"not_finished", 409, "the resource needs a terminal job (result, metrics, trace) but the job is still queued or running"},
	{"job_failed", 409, "a result was requested but the job failed or was canceled; the job status carries the reason"},
	{"not_cancelable", 409, "only queued jobs can be canceled — a running factorization is not preemptible, and a terminal job already has its outcome"},
	{"rate_limited", 429, "this client exhausted its token bucket; retry after the Retry-After header's seconds"},
	{"queue_full", 429, "the bounded job queue is at capacity; retry after the Retry-After header's seconds"},
	{"draining", 503, "the daemon is shutting down and no longer accepts submissions"},
}

// The job error codes the daemon sets itself. A failed run's code is
// its core.Failure's Code, or CodeInternalError when it has none.
const (
	// CodeCanceled marks work stopped by the client or the daemon.
	CodeCanceled = "canceled"
	// CodeTimeout marks work stopped by a job deadline.
	CodeTimeout = "timeout"
	// CodeInternalError marks daemon-side failures outside the outcome
	// taxonomy (e.g. a metrics snapshot that failed to encode).
	CodeInternalError = "internal"
)

// JobErrorCode documents one job-level error code for docs/SERVICE.md.
type JobErrorCode struct {
	Code    string
	Meaning string
}

// JobErrorCodes is the closed set of values JobInfo.ErrorCode and
// CampaignInfo.ErrorCode can carry — the classification of *job
// outcomes*, distinct from the HTTP envelope codes above. The first
// three are the codes of core's failure classes, read from the run's
// Result.Failure; docs/SERVICE.md renders this table and a drift test
// pins the two together.
var JobErrorCodes = []JobErrorCode{
	{core.FailureRejected.Code(), "the factorization finished but the offline audit rejected the result (Result.Failure is core.FailureRejected)"},
	{core.FailureUncorrectable.Code(), "corruption was detected but exceeded the checksum code's correction capability (core.FailureUncorrectable)"},
	{core.FailureFailStop.Code(), "a diagonal block lost positive definiteness — the POTF2 fail-stop abort (core.FailureFailStop)"},
	{CodeCanceled, "the job was canceled — by the client while queued, or by the daemon when a shutdown deadline expired first"},
	{CodeTimeout, "the job exceeded its deadline, while queued or while running"},
	{CodeInternalError, "a daemon-side failure outside the outcome taxonomy; the error text carries the detail"},
}
