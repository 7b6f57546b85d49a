package server

// This file generates the machine-derived parts of docs/SERVICE.md:
// the endpoint table (from Routes), the error-code table (from
// ErrorCodes), and a captured HTTP session recorded against a real
// in-process daemon under a frozen clock. Because every response body
// the daemon emits is deterministic given a deterministic clock, the
// session in the docs is not prose pretending to be output — it IS the
// output, byte for byte, and tools/gendoc's TestDocsCurrent re-records
// it on every test run to catch drift.

//go:generate go run ../../tools/gendoc service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"
)

// Marker comments bracketing the generated sections of
// docs/SERVICE.md; tools/gendoc rewrites what is between them and
// the drift test asserts the embedding.
const (
	EndpointsBegin = "<!-- BEGIN GENERATED ENDPOINT TABLE (go generate ./internal/server) -->"
	EndpointsEnd   = "<!-- END GENERATED ENDPOINT TABLE -->"
	ErrorsBegin    = "<!-- BEGIN GENERATED ERROR TABLE (go generate ./internal/server) -->"
	ErrorsEnd      = "<!-- END GENERATED ERROR TABLE -->"
	JobErrorsBegin = "<!-- BEGIN GENERATED JOB ERROR CODE TABLE (go generate ./internal/server) -->"
	JobErrorsEnd   = "<!-- END GENERATED JOB ERROR CODE TABLE -->"
	SessionBegin   = "<!-- BEGIN GENERATED SESSION (go generate ./internal/server) -->"
	SessionEnd     = "<!-- END GENERATED SESSION -->"
)

// EndpointsTable renders the API surface as a markdown table.
func EndpointsTable() string {
	var b strings.Builder
	b.WriteString("| Method | Path | Purpose |\n|---|---|---|\n")
	for _, r := range Routes() {
		fmt.Fprintf(&b, "| %s | `%s` | %s |\n", r.Method, r.Pattern, r.Summary)
	}
	return b.String()
}

// ErrorsTable renders the closed error-code set as a markdown table.
func ErrorsTable() string {
	var b strings.Builder
	b.WriteString("| Code | HTTP status | Meaning |\n|---|---|---|\n")
	for _, e := range ErrorCodes {
		fmt.Fprintf(&b, "| `%s` | %d | %s |\n", e.Code, e.Status, e.Meaning)
	}
	return b.String()
}

// JobErrorsTable renders the closed job-outcome code set as a
// markdown table.
func JobErrorsTable() string {
	var b strings.Builder
	b.WriteString("| Code | Meaning |\n|---|---|\n")
	for _, e := range JobErrorCodes {
		fmt.Fprintf(&b, "| `%s` | %s |\n", e.Code, e.Meaning)
	}
	return b.String()
}

// DocClock is the frozen clock the documentation session runs under:
// every timestamp in the captured bodies reads the same instant, so
// regenerating the docs is byte-stable. After returns a nil channel
// (which never fires); that is safe because the session only issues
// `?wait=` polls against jobs that are already terminal.
func DocClock() Clock {
	fixed := time.Date(2026, time.January, 1, 0, 0, 0, 0, time.UTC)
	return Clock{
		Now:   func() time.Time { return fixed },
		After: func(time.Duration) <-chan time.Time { return nil },
	}
}

// docStep is one scripted exchange of the documentation session.
type docStep struct {
	title   string
	comment string
	method  string
	path    string
	body    string // compact request JSON; doubles as the curl --data display
	await   string // job ID to wait to terminal before issuing the request
	elide   int    // max response-body lines shown (0 = all)
}

// The point every session exchange revolves around: the paper's
// Enhanced Online-ABFT scheme on the laptop profile with a storage
// error injected at iteration 3. Small enough to factor in
// milliseconds, rich enough that the trace and metrics show recovery.
const (
	docJobBody     = `{"machine":"laptop","n":512,"scheme":"enhanced","k":2,"inject":"storage@3","trace":true}`
	docJobBodyDup  = `{"machine":"laptop","n":512,"scheme":"enhanced","k":2,"inject":"storage@3"}`
	docJobID       = "j-000001"
	docJobIDDup    = "j-000002"
	docBaseDisplay = "http://127.0.0.1:8787"
)

func docSteps() []docStep {
	return []docStep{
		{
			title: "Submit a job",
			comment: "`POST /v1/jobs` accepts one factorization point spelled the way the CLI's `-run` flags spell it. " +
				"The daemon answers `202 Accepted` immediately — the job is queued, not done — and the `Location` header names the status endpoint to poll.",
			method: http.MethodPost, path: "/v1/jobs", body: docJobBody,
		},
		{
			title: "Poll until done",
			comment: "`GET /v1/jobs/{id}?wait=30s` long-polls: the response returns as soon as the job reaches a terminal state, or when the wait expires with the state unchanged (waits are capped at 60s — re-poll, the connection is not a lease). " +
				"`executed: true` says this job performed the factorization itself.",
			method: http.MethodGet, path: "/v1/jobs/" + docJobID + "?wait=30s", await: docJobID,
		},
		{
			title:   "Fetch the result",
			comment: "The result body is the scheduler's wire form — the same JSON the on-disk result cache stores, which is what makes an HTTP-served point byte-equivalent to a local run.",
			method:  http.MethodGet, path: "/v1/jobs/" + docJobID + "/result", elide: 24,
		},
		{
			title:   "Identical submissions share one execution",
			comment: "A second submission of the same point (the canonical options fingerprint is the identity; observational fields like `trace` are not part of it) is admitted as its own job …",
			method:  http.MethodPost, path: "/v1/jobs", body: docJobBodyDup,
		},
		{
			title:   "… but does not execute",
			comment: "`executed: false`: the scheduler's singleflight memo served the duplicate from the first job's execution. No kernel ran.",
			method:  http.MethodGet, path: "/v1/jobs/" + docJobIDDup + "?wait=30s", await: docJobIDDup,
		},
		{
			title:   "A deduplicated job's metrics",
			comment: "Each job records into a private metrics registry. The duplicate's snapshot shows only the sweep engine's accounting — zero kernel launches, one memo hit — which is how `TestServeSession` (cmd/abftd) proves warm submissions execute nothing.",
			method:  http.MethodGet, path: "/v1/jobs/" + docJobIDDup + "/metrics", elide: 44,
		},
		{
			title:   "The executing job's metrics",
			comment: "The first job's snapshot is byte-identical to what `abftchol -run … -metrics-out` would have written for the same options: kernel launch counts, checksum verifications, recovery events.",
			method:  http.MethodGet, path: "/v1/jobs/" + docJobID + "/metrics", elide: 16,
		},
		{
			title:   "The timeline",
			comment: "Jobs submitted with `\"trace\": true` record the simulated execution timeline; the body is Chrome/Perfetto trace-event JSON — load it at `ui.perfetto.dev`.",
			method:  http.MethodGet, path: "/v1/jobs/" + docJobID + "/trace", elide: 12,
		},
		{
			title:   "Event stream",
			comment: "`GET /v1/jobs/{id}/events` is a Server-Sent Events stream of lifecycle transitions. It replays the full history from the beginning, so a late subscriber misses nothing, and ends once the job is terminal.",
			method:  http.MethodGet, path: "/v1/jobs/" + docJobID + "/events",
		},
		{
			title:  "List jobs",
			method: http.MethodGet, path: "/v1/jobs", elide: 16,
			comment: "Listings are ordered by job ID (submission order).",
		},
		{
			title:   "Global metrics",
			comment: "`/metrics` merges every completed job's counters into one registry and adds the daemon's own `server.*` counters (see docs/OBSERVABILITY.md for the catalog).",
			method:  http.MethodGet, path: "/metrics", elide: 14,
		},
		{
			title:   "Rate limiting",
			comment: "Each client (the `X-Client` header, else the remote host) draws from a token bucket. An exhausted bucket answers `429` with the `rate_limited` code and a `Retry-After` header; a full bounded queue answers `429 queue_full` the same way.",
			method:  http.MethodPost, path: "/v1/jobs", body: docJobBodyDup,
		},
		{
			title:   "Errors",
			comment: "Every non-2xx response carries the same envelope: a machine-readable `code` from the closed table above and a human-readable `message`.",
			method:  http.MethodGet, path: "/v1/jobs/j-999999",
		},
		{
			title:   "Health",
			comment: "`/healthz` reports liveness, queue occupancy, and per-state job counts; `status` flips to `draining` once shutdown begins and submissions start drawing `503`.",
			method:  http.MethodGet, path: "/healthz",
		},
	}
}

// DocSession boots a daemon under DocClock, drives the scripted
// exchanges through its real handlers, and renders the captured
// session as markdown. tools/gendoc embeds the result in
// docs/SERVICE.md; tools/gendoc's TestDocsCurrent re-records it.
func DocSession() (string, error) {
	srv, err := New(Config{
		Workers:    1,
		QueueDepth: 8,
		RatePerSec: 0.5,
		RateBurst:  2,
		Clock:      DocClock(),
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, st := range docSteps() {
		if st.await != "" {
			srv.awaitTerminal(st.await)
		}
		var rd io.Reader
		if st.body != "" {
			rd = strings.NewReader(st.body)
		}
		req := httptest.NewRequest(st.method, st.path, rd)
		req.Header.Set("X-Client", "docs")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		renderExchange(&b, st, rec)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return "", err
	}
	return strings.TrimRight(b.String(), "\n") + "\n", nil
}

// awaitTerminal blocks until the job reaches a terminal state, using
// the same broadcast channel the long-poll handler selects on. A job
// ID that does not exist returns immediately.
func (s *Server) awaitTerminal(id string) {
	for {
		var ch chan struct{}
		terminal := true
		s.st.Do(func(sh *shared) {
			if js, ok := sh.jobs[id]; ok {
				ch, terminal = js.changed, js.state.Terminal()
			}
		})
		if terminal {
			return
		}
		<-ch
	}
}

// renderExchange writes one captured exchange: a curl line, the status
// (with the headers worth documenting), and the body — elided past
// st.elide lines so the doc stays readable while the drift test still
// pins every byte that is shown.
func renderExchange(b *strings.Builder, st docStep, rec *httptest.ResponseRecorder) {
	fmt.Fprintf(b, "### %s\n\n%s\n\n", st.title, st.comment)
	curl := "curl -s"
	if st.method != http.MethodGet {
		curl += " -X " + st.method
	}
	curl += " -H 'X-Client: docs'"
	if st.body != "" {
		curl += " --data '" + st.body + "'"
	}
	curl += " '" + docBaseDisplay + st.path + "'"
	fmt.Fprintf(b, "```console\n$ %s\n```\n\n", curl)
	status := fmt.Sprintf("`HTTP %d %s`", rec.Code, http.StatusText(rec.Code))
	for _, h := range []string{"Location", "Retry-After"} {
		if v := rec.Header().Get(h); v != "" {
			status += fmt.Sprintf(" · `%s: %s`", h, v)
		}
	}
	b.WriteString(status + "\n\n")
	lang := "json"
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "text/event-stream") {
		lang = "text"
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	if st.elide > 0 && len(lines) > st.elide {
		omitted := len(lines) - st.elide
		lines = append(lines[:st.elide:st.elide], fmt.Sprintf("  … %d more lines …", omitted))
	}
	fmt.Fprintf(b, "```%s\n%s\n```\n\n", lang, strings.Join(lines, "\n"))
}
