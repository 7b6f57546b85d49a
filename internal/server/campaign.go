package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"abftchol/internal/experiments"
	"abftchol/internal/obs"
	"abftchol/internal/reliability/campaign"
)

// Campaign jobs: the daemon's second job kind. A reliability campaign
// is submitted as a campaign.Config, keyed by the config's SHA-256
// fingerprint exactly as factorization jobs are keyed by their options
// fingerprint — concurrent submissions of the same campaign attach to
// one execution (the leader) instead of running twice. Campaigns do
// not pass through the bounded job queue: each runs on its own
// goroutine in the execs group and its trials contend for CPU inside a
// private scheduler, so a long campaign cannot starve the
// factorization worker pool's queue slots, and graceful drain joins
// it like any in-flight execution.

// campaignJob is one campaign's identity, fixed at submission and
// readable without the lock. Its lifecycle is a campaignStatus in the
// server's shared state.
type campaignJob struct {
	id        string
	fp        string
	cfg       campaign.Config // normalized
	submitted time.Time
}

// campaignStatus is a campaign's lifecycle. It lives in
// shared.campaigns, so only code holding the server lock reaches it;
// changed is closed-and-replaced on every transition.
type campaignStatus struct {
	*campaignJob
	state    State
	errCode  string // a JobErrorCodes code, set with errText when it fails or is canceled
	errText  string
	finished time.Time
	attached int // follower submissions deduped onto this campaign
	report   []byte
	changed  chan struct{}
}

// newCampaign registers a campaign (or attaches to the in-flight or
// finished one with the same fingerprint) and starts its execution.
// The bool reports whether the daemon accepted it (false: draining);
// leader is false for deduped followers.
func (s *Server) newCampaign(cfg campaign.Config, fp string) (cj *campaignJob, leader, ok bool) {
	now := s.cfg.Clock.Now()
	s.st.Do(func(sh *shared) {
		if sh.draining {
			return
		}
		ok = true
		if existing, dup := sh.campaignsByFP[fp]; dup && existing.state != StateFailed && existing.state != StateCanceled {
			existing.attached++
			cj = existing.campaignJob
			return
		}
		sh.cseq++
		cj = &campaignJob{id: newCampaignID(sh.cseq), fp: fp, cfg: cfg, submitted: now}
		cs := &campaignStatus{campaignJob: cj, state: StateRunning, changed: make(chan struct{})}
		sh.campaigns[cj.id] = cs
		sh.campaignsByFP[fp] = cs
		leader = true
		// Spawned while the lock that saw !draining is held, so the spawn
		// precedes Shutdown's execs.Wait however the daemon is mounted.
		s.execs.Go(func() { s.execCampaign(s.execCtx, cj) })
	})
	return cj, leader, ok
}

// newCampaignID mirrors the job ID scheme with a distinct prefix.
func newCampaignID(seq int) string {
	return fmt.Sprintf("c-%06d", seq)
}

// execCampaign runs the campaign on a private scheduler — private so
// ten thousand trial fingerprints do not flood the shared scheduler's
// memoization map or the on-disk cache — and publishes the canonical
// report bytes. Campaign metrics record into a private registry and
// merge into the global one, mirroring execJob. ctx is the daemon's
// execCtx: a shutdown deadline cancels it, campaign.Run stops at the
// next shard boundary, and the campaign lands in the canceled state
// (the journal, when configured, keeps completed shards).
func (s *Server) execCampaign(ctx context.Context, cj *campaignJob) {
	sink := obs.NewRegistry()
	sched := experiments.NewScheduler(s.cfg.Workers, nil)
	report, err := campaign.Run(ctx, cj.cfg, sched, campaign.RunOptions{Metrics: sink})
	var data []byte
	if err == nil {
		data, err = report.Marshal()
	}
	s.reg.Merge(sink)

	now := s.cfg.Clock.Now()
	s.st.Do(func(sh *shared) {
		cs := sh.campaigns[cj.id]
		cs.finished = now
		switch {
		case errors.Is(err, context.Canceled):
			cs.state = StateCanceled
			cs.errCode, cs.errText = CodeCanceled, "canceled: "+err.Error()
		case err != nil:
			cs.state = StateFailed
			cs.errCode, cs.errText = CodeInternalError, err.Error()
		default:
			cs.state = StateDone
			cs.report = data
		}
		close(cs.changed)
		cs.changed = make(chan struct{})
	})
}

// campaignInfo renders a campaign's status body.
func (sh *shared) campaignInfo(cs *campaignStatus) CampaignInfo {
	info := CampaignInfo{
		ID:          cs.id,
		State:       cs.state,
		Fingerprint: cs.fp,
		Config:      cs.cfg,
		Attached:    cs.attached,
		SubmittedAt: cs.submitted,
		Error:       cs.errText,
		ErrorCode:   cs.errCode,
	}
	if !cs.finished.IsZero() {
		t := cs.finished
		info.FinishedAt = &t
	}
	return info
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
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
	norm, fp, err := decodeCampaign(r.Body)
	if err != nil {
		failJSON(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	cj, leader, ok := s.newCampaign(norm, fp)
	if !ok {
		failJSON(w, http.StatusServiceUnavailable, "draining", "daemon is shutting down; submissions are closed")
		return
	}
	if leader {
		s.reg.Inc("server.campaigns.submitted")
	} else {
		s.reg.Inc("server.campaigns.deduped")
	}
	var info CampaignInfo
	s.st.Do(func(sh *shared) { info = sh.campaignInfo(sh.campaigns[cj.id]) })
	w.Header().Set("Location", "/v1/campaigns/"+cj.id)
	writeJSON(w, http.StatusAccepted, info)
}

// decodeCampaign parses a POST /v1/campaigns body into its normalized
// config and that config's fingerprint.
func decodeCampaign(body io.Reader) (campaign.Config, string, error) {
	var cfg campaign.Config
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return campaign.Config{}, "", fmt.Errorf("decode body: %w", err)
	}
	norm, err := cfg.Normalize()
	if err != nil {
		return campaign.Config{}, "", err
	}
	fp, err := norm.Fingerprint()
	if err != nil {
		return campaign.Config{}, "", err
	}
	return norm, fp, nil
}

// lookupCampaign resolves a path's campaign ID, writing the 404
// itself on a miss.
func (s *Server) lookupCampaign(w http.ResponseWriter, r *http.Request) (*campaignJob, bool) {
	id := r.PathValue("id")
	var cj *campaignJob
	s.st.Do(func(sh *shared) {
		if cs, ok := sh.campaigns[id]; ok {
			cj = cs.campaignJob
		}
	})
	if cj == nil {
		failJSON(w, http.StatusNotFound, "unknown_campaign", "no campaign %q (IDs do not survive daemon restarts)", id)
		return nil, false
	}
	return cj, true
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	cj, ok := s.lookupCampaign(w, r)
	if !ok {
		return
	}
	longPoll(s, w, r, func(sh *shared) (CampaignInfo, bool, chan struct{}) {
		cs := sh.campaigns[cj.id]
		return sh.campaignInfo(cs), cs.state.Terminal(), cs.changed
	})
}

func (s *Server) handleCampaignReport(w http.ResponseWriter, r *http.Request) {
	cj, ok := s.lookupCampaign(w, r)
	if !ok {
		return
	}
	var state State
	var errMsg string
	var report []byte
	s.st.Do(func(sh *shared) {
		cs := sh.campaigns[cj.id]
		state, errMsg, report = cs.state, cs.errText, cs.report
	})
	switch {
	case state == StateFailed:
		failJSON(w, http.StatusConflict, "job_failed", "campaign %s failed: %s", cj.id, errMsg)
	case state == StateCanceled:
		failJSON(w, http.StatusConflict, "job_failed", "campaign %s was canceled: %s", cj.id, errMsg)
	case state != StateDone:
		failJSON(w, http.StatusConflict, "not_finished", "campaign %s is %s; the report needs state done", cj.id, state)
	default:
		// The raw canonical bytes — byte-identical to a local
		// campaign.Run of the same config (the differential test pins
		// this).
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(report)
	}
}
