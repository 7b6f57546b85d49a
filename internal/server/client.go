package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"abftchol/internal/core"
	"abftchol/internal/reliability/campaign"
)

// Client is the daemon's reference HTTP client; cmd/abftchol's
// -server flag is built on it, and Client.RunPoint plugs into
// experiments.NewRemoteScheduler so whole sweeps execute remotely.
// Polling is server-side (?wait= long-poll), so the client never
// sleeps — it stays within the determinism analyzer's no-wall-clock
// discipline. It is a root caller (a CLI), not itself on a request
// path, so its requests carry context.Background().
type Client struct {
	// Base is the daemon root, e.g. "http://127.0.0.1:8787".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Name, when set, is sent as the X-Client header — the daemon's
	// rate-limit key.
	Name string
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// exchange runs one request and returns the response body, turning
// error envelopes into *APIError values. It builds every request the
// client sends.
func (c *Client) exchange(method, path string, body interface{}) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("server client: encode %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.Base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("server client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Name != "" {
		req.Header.Set("X-Client", c.Name)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("server client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("server client: read %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		var envelope APIError
		if json.Unmarshal(data, &envelope) == nil && envelope.Err.Code != "" {
			return nil, &envelope
		}
		return nil, fmt.Errorf("server client: %s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// do runs one exchange and decodes the response into out (unless nil).
func (c *Client) do(method, path string, body, out interface{}) error {
	data, err := c.exchange(method, path, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("server client: decode %s %s: %w", method, path, err)
	}
	return nil
}

// waitTerminal long-polls a status path until state reports a terminal
// state. Each round trip asks the daemon to hold the request up to the
// server's wait cap; a response in a non-terminal state (wait expired,
// or the daemon is draining) simply polls again.
func waitTerminal[T any](c *Client, path string, state func(T) State) (T, error) {
	for {
		var info T
		if err := c.do(http.MethodGet, path+"?wait=60s", nil, &info); err != nil || state(info).Terminal() {
			return info, err
		}
	}
}

// Submit posts one job.
func (c *Client) Submit(req JobRequest) (JobInfo, error) {
	var info JobInfo
	err := c.do(http.MethodPost, "/v1/jobs", req, &info)
	return info, err
}

// Wait long-polls the job until it is terminal.
func (c *Client) Wait(id string) (JobInfo, error) {
	return waitTerminal(c, "/v1/jobs/"+id, func(i JobInfo) State { return i.State })
}

// Result fetches a done job's result.
func (c *Client) Result(id string) (JobResult, error) {
	var res JobResult
	err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res)
	return res, err
}

// JobMetrics fetches a job's private metrics snapshot — the bytes a
// local run of the same options would have written with -metrics-out.
func (c *Client) JobMetrics(id string) ([]byte, error) {
	return c.exchange(http.MethodGet, "/v1/jobs/"+id+"/metrics", nil)
}

// Metrics fetches the daemon's global metrics snapshot.
func (c *Client) Metrics() ([]byte, error) {
	return c.exchange(http.MethodGet, "/metrics", nil)
}

// Trace fetches a job's Chrome trace-event timeline.
func (c *Client) Trace(id string) ([]byte, error) {
	return c.exchange(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
}

// Health fetches the daemon health summary.
func (c *Client) Health() (Health, error) {
	var h Health
	err := c.do(http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// SubmitCampaign submits a reliability campaign config.
func (c *Client) SubmitCampaign(cfg campaign.Config) (CampaignInfo, error) {
	var info CampaignInfo
	err := c.do(http.MethodPost, "/v1/campaigns", cfg, &info)
	return info, err
}

// WaitCampaign long-polls until the campaign reaches a terminal
// state.
func (c *Client) WaitCampaign(id string) (CampaignInfo, error) {
	return waitTerminal(c, "/v1/campaigns/"+id, func(i CampaignInfo) State { return i.State })
}

// CampaignReport fetches a done campaign's raw report bytes —
// byte-identical to a local campaign.Run of the same config.
func (c *Client) CampaignReport(id string) ([]byte, error) {
	return c.exchange(http.MethodGet, "/v1/campaigns/"+id+"/report", nil)
}

// RunCampaign resolves one campaign through the daemon: submit, wait,
// fetch the canonical report bytes.
func (c *Client) RunCampaign(cfg campaign.Config) ([]byte, error) {
	info, err := c.SubmitCampaign(cfg)
	if err != nil {
		return nil, fmt.Errorf("submit campaign: %w", err)
	}
	info, err = c.WaitCampaign(info.ID)
	if err != nil {
		return nil, fmt.Errorf("wait campaign %s: %w", info.ID, err)
	}
	if info.State != StateDone {
		if info.Error != "" {
			return nil, fmt.Errorf("campaign %s: %s", info.ID, info.Error)
		}
		return nil, fmt.Errorf("campaign %s ended %s", info.ID, info.State)
	}
	return c.CampaignReport(info.ID)
}

// RunPoint resolves one options point through the daemon: submit,
// wait, fetch. It is the runFn for experiments.NewRemoteScheduler —
// a remote sweep is a local sweep whose kernel invocations happen on
// the other side of this call. A failed job surfaces as an error with
// the text core.Run returned there; its Result.Failure does not cross
// the wire (campaign.Run, the one classifier, refuses a remote
// scheduler).
func (c *Client) RunPoint(o core.Options) (core.Result, error) {
	req, err := RequestFromOptions(o)
	if err != nil {
		return core.Result{}, err
	}
	info, err := c.Submit(req)
	if err != nil {
		return core.Result{}, fmt.Errorf("submit: %w", err)
	}
	info, err = c.Wait(info.ID)
	if err != nil {
		return core.Result{}, fmt.Errorf("wait %s: %w", info.ID, err)
	}
	if info.State != StateDone {
		if info.Error != "" {
			return core.Result{}, errors.New(info.Error)
		}
		return core.Result{}, fmt.Errorf("job %s ended %s", info.ID, info.State)
	}
	res, err := c.Result(info.ID)
	if err != nil {
		return core.Result{}, fmt.Errorf("result %s: %w", info.ID, err)
	}
	return res.Result.Result(), nil
}
