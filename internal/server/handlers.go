package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/hetsim"
	"abftchol/internal/obs"
)

// Route documents one endpoint; docs/SERVICE.md renders this table
// and the drift test pins the two together.
type Route struct {
	Method  string
	Pattern string
	Summary string
}

// Routes is the daemon's full API surface, in registration order.
func Routes() []Route {
	return []Route{
		{"GET", "/healthz", "liveness, queue occupancy, and per-state job counts"},
		{"GET", "/metrics", "global metrics snapshot: every job's kernel counters merged, plus the server.* counters"},
		{"POST", "/v1/jobs", "submit a factorization job; responds 202 with the job status and a Location header"},
		{"GET", "/v1/jobs", "list all jobs in submission order"},
		{"GET", "/v1/jobs/{id}", "job status; `?wait=30s` long-polls until the job is terminal or the wait expires"},
		{"DELETE", "/v1/jobs/{id}", "cancel a queued job (running factorizations are not preemptible)"},
		{"GET", "/v1/jobs/{id}/events", "Server-Sent Events stream of state transitions, ending at the terminal state"},
		{"GET", "/v1/jobs/{id}/result", "the factorization result (jobs in state done)"},
		{"GET", "/v1/jobs/{id}/metrics", "this job's private metrics snapshot — byte-identical to a local run's -metrics-out"},
		{"GET", "/v1/jobs/{id}/trace", "Chrome/Perfetto trace-event timeline (jobs submitted with \"trace\": true)"},
		{"POST", "/v1/campaigns", "submit a reliability campaign (a campaign.Config body); identical configs dedup onto one execution by fingerprint"},
		{"GET", "/v1/campaigns/{id}", "campaign status; `?wait=30s` long-polls until the campaign is terminal or the wait expires"},
		{"GET", "/v1/campaigns/{id}/report", "the aggregated coverage report — byte-identical to a local campaign run of the same config"},
	}
}

// maxWait caps ?wait= long-polls; clients re-poll, the connection is
// not a lease.
const maxWait = 60 * time.Second

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaign)
	mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleCampaignReport)
	return mux
}

// writeJSON renders v indented; every body the daemon emits is
// deterministic given a deterministic clock, which is what lets
// docs/SERVICE.md embed real captured exchanges.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// v is one of the closed wire structs; failure is programmer error.
		fmt.Fprintf(w, "{\"error\":{\"code\":\"internal\",\"message\":%q}}\n", err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

// fail writes the error envelope.
func failJSON(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	writeJSON(w, status, &APIError{Err: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// clientKey identifies a submitter for rate limiting: the X-Client
// header when present, else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) isDraining() bool {
	var draining bool
	s.st.Do(func(sh *shared) { draining = sh.draining })
	return draining
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		failJSON(w, http.StatusServiceUnavailable, "draining", "daemon is shutting down; submissions are closed")
		return
	}
	if s.limiter != nil {
		if ok, retry := s.limiter.allow(clientKey(r)); !ok {
			s.reg.Inc("server.jobs.rejected.rate")
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(retry)))
			failJSON(w, http.StatusTooManyRequests, "rate_limited", "client %q exhausted its token bucket; retry after %d s", clientKey(r), retrySeconds(retry))
			return
		}
	}
	req, opts, fp, err := decodeJob(r.Body)
	if err != nil {
		failJSON(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	j, info, err := s.enqueue(req, opts, fp)
	switch {
	case errors.Is(err, errDraining):
		failJSON(w, http.StatusServiceUnavailable, "draining", "daemon is shutting down; submissions are closed")
		return
	case errors.Is(err, errQueueFull):
		s.reg.Inc("server.jobs.rejected.queue")
		w.Header().Set("Retry-After", "1")
		failJSON(w, http.StatusTooManyRequests, "queue_full", "job queue is at capacity (%d); retry after 1 s", s.cfg.QueueDepth)
		return
	}
	s.reg.Inc("server.jobs.submitted")
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, info)
}

// decodeJob parses a POST /v1/jobs body into its request, the options
// point it names, and that point's canonical fingerprint.
func decodeJob(body io.Reader) (JobRequest, core.Options, string, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, core.Options{}, "", fmt.Errorf("decode body: %w", err)
	}
	opts, err := req.Options()
	if err != nil {
		return req, core.Options{}, "", err
	}
	return req, opts, experiments.Fingerprint(opts), nil
}

// retrySeconds rounds a wait up to whole header seconds (minimum 1).
func retrySeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var infos []JobInfo
	s.st.Do(func(sh *shared) {
		infos = make([]JobInfo, 0, len(sh.jobs))
		for _, js := range sh.jobs {
			infos = append(infos, sh.info(js))
		}
	})
	sort.Slice(infos, func(i, k int) bool { return infos[i].ID < infos[k].ID })
	writeJSON(w, http.StatusOK, JobList{Jobs: infos})
}

// lookup resolves a path's job ID, writing the 404 itself on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	var j *job
	s.st.Do(func(sh *shared) {
		if js, ok := sh.jobs[id]; ok {
			j = js.job
		}
	})
	if j == nil {
		failJSON(w, http.StatusNotFound, "unknown_job", "no job %q (IDs do not survive daemon restarts)", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	longPoll(s, w, r, func(sh *shared) (JobInfo, bool, chan struct{}) {
		js := sh.jobs[j.id]
		return sh.info(js), js.state.Terminal(), js.changed
	})
}

// longPoll serves a status body under the request's ?wait= bound
// (clamped to maxWait; absent means answer now). snapshot reads the
// body, whether its state is terminal, and the channel the next
// transition closes; the body is written once it is terminal or the
// wait ends (expiry, drain, or a client that went away, which reads
// nothing), re-snapshotting on every transition.
func longPoll[T any](s *Server, w http.ResponseWriter, r *http.Request, snapshot func(*shared) (body T, terminal bool, changed chan struct{})) {
	var wait time.Duration
	if wq := r.URL.Query().Get("wait"); wq != "" {
		d, err := time.ParseDuration(wq)
		if err != nil || d < 0 {
			failJSON(w, http.StatusBadRequest, "invalid_request", "bad wait %q: want a duration like 30s", wq)
			return
		}
		if d > maxWait {
			d = maxWait
		}
		wait = d
	}
	var expired <-chan time.Time
	if wait > 0 {
		expired = s.cfg.Clock.After(wait)
	}
	for {
		var body T
		var terminal bool
		var ch chan struct{}
		s.st.Do(func(sh *shared) { body, terminal, ch = snapshot(sh) })
		if wait == 0 || terminal || !s.await(r, ch, expired) {
			writeJSON(w, http.StatusOK, body)
			return
		}
	}
}

// await blocks until changed closes, reporting true, or until the
// wait ends without a transition: expired fires, the daemon quits, or
// the client goes away. It is the only select in the handlers, so
// every handler wait ends on a client disconnect and on drain. A nil
// expired never fires.
func (s *Server) await(r *http.Request, changed <-chan struct{}, expired <-chan time.Time) bool {
	select {
	case <-changed:
		return true
	case <-expired:
	case <-s.quit:
	case <-r.Context().Done():
	}
	return false
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	now := s.cfg.Clock.Now()
	var info JobInfo
	var was State
	s.st.Do(func(sh *shared) {
		js := sh.jobs[j.id]
		if was = js.state; was != StateQueued {
			return
		}
		js.state = StateCanceled
		js.errCode, js.errText = CodeCanceled, "canceled by client"
		js.finished = now
		sh.broadcast(js)
		info = sh.info(js)
	})
	if was != StateQueued {
		failJSON(w, http.StatusConflict, "not_cancelable", "job %s is %s; only queued jobs can be canceled", j.id, was)
		return
	}
	s.reg.Inc("server.jobs.canceled")
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	idx := 0
	for {
		var events []stateEvent
		var ch chan struct{}
		var terminal bool
		s.st.Do(func(sh *shared) {
			js := sh.jobs[j.id]
			events = append([]stateEvent(nil), js.history[idx:]...)
			ch, terminal = js.changed, js.state.Terminal()
		})
		idx += len(events)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.State, data)
		}
		if len(events) > 0 && canFlush {
			fl.Flush()
		}
		if terminal || !s.await(r, ch, nil) {
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var state State
	var executed bool
	var res core.Result
	var errMsg string
	s.st.Do(func(sh *shared) {
		js := sh.jobs[j.id]
		state, executed, res, errMsg = js.state, js.executed, js.result, js.errText
	})
	switch {
	case state == StateDone:
		writeJSON(w, http.StatusOK, JobResult{
			ID: j.id, Fingerprint: j.fp, Executed: executed,
			Result: experiments.ToWire(res),
		})
	case state.Terminal():
		failJSON(w, http.StatusConflict, "job_failed", "job %s %s: %s", j.id, state, errMsg)
	default:
		failJSON(w, http.StatusConflict, "not_finished", "job %s is %s; poll /v1/jobs/%s?wait=30s until done", j.id, state, j.id)
	}
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var snap []byte
	var state State
	var errMsg string
	s.st.Do(func(sh *shared) {
		js := sh.jobs[j.id]
		snap, state, errMsg = js.metrics, js.state, js.errText
	})
	switch {
	case snap != nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(snap)
	case state.Terminal():
		failJSON(w, http.StatusConflict, "job_failed", "job %s %s before recording metrics: %s", j.id, state, errMsg)
	default:
		failJSON(w, http.StatusConflict, "not_finished", "job %s is %s; metrics exist once the job is terminal", j.id, state)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var tr *hetsim.Trace
	var state State
	s.st.Do(func(sh *shared) {
		js := sh.jobs[j.id]
		tr, state = js.trace, js.state
	})
	switch {
	case tr != nil:
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, tr, map[string]string{
			"tool": "abftd",
			"job":  j.id,
			"run":  fmt.Sprintf("%s n=%d K=%d", j.req.Scheme, j.opts.N, j.opts.K),
		})
	case !state.Terminal():
		failJSON(w, http.StatusConflict, "not_finished", "job %s is %s; the trace exists once the job is done", j.id, state)
	default:
		failJSON(w, http.StatusNotFound, "no_trace", "job %s recorded no timeline; submit with \"trace\": true", j.id)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, err := s.reg.Snapshot()
	if err != nil {
		failJSON(w, http.StatusInternalServerError, "internal", "metrics snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(snap)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	depth := len(s.queue)
	counts := make(map[State]int)
	var draining bool
	s.st.Do(func(sh *shared) {
		for _, js := range sh.jobs {
			counts[js.state]++
		}
		draining = sh.draining
	})
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, Health{
		Status:        status,
		Workers:       s.cfg.Workers,
		QueueDepth:    depth,
		QueueCapacity: s.cfg.QueueDepth,
		Jobs:          counts,
	})
}
