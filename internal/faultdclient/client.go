// Package faultdclient is the typed Go client for the dmafaultd /v1 API.
// It speaks the wire structs of internal/faultd/api — the same types the
// server marshals — so client and service cannot skew, and it owns the
// transport concerns every caller was hand-rolling: base-URL joining,
// status-code mapping into *APIError, bounded retries on transient
// failures, and SSE decoding for the live event stream.
//
//	c := faultdclient.New("http://127.0.0.1:8077")
//	acc, err := c.Submit(ctx, api.SubmitRequest{Preset: "ladder", N: 8, Seed: 2021})
//	status, err := c.Watch(ctx, acc.ID, nil) // follow the events to the terminal status
//	job, err := c.Get(ctx, acc.ID)
//
// Retry policy: idempotent calls (GET, DELETE of a job, cache admin) retry
// on network errors and 502/503/504; Submit additionally retries 429,
// honoring the Retry-After header the server sets when its queue is full.
// Everything else surfaces immediately as *APIError.
package faultdclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dmafault/internal/faultd/api"
	"dmafault/internal/metrics"
)

// Defaults for Client's zero values.
const (
	// DefaultRetries is how many times a transient failure is retried.
	DefaultRetries = 3
	// DefaultRetryWait is the base backoff, doubled per retry up to
	// DefaultMaxRetryWait and jittered ±25% so a fleet of clients bounced by
	// the same outage does not retry in lockstep.
	DefaultRetryWait = 100 * time.Millisecond
	// DefaultMaxRetryWait caps the exponential backoff. A server Retry-After
	// longer than the cap is still honored verbatim — the server knows its
	// own drain schedule better than the client's curve does.
	DefaultMaxRetryWait = 2 * time.Second
)

// Client calls one dmafaultd instance. The zero value is unusable; construct
// with New. Fields may be tuned before the first call.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8077" (no /v1).
	Base string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// Retries bounds transient-failure retries (<0: none; 0: DefaultRetries).
	Retries int
	// RetryWait is the base backoff between retries (0: DefaultRetryWait).
	RetryWait time.Duration
}

// New builds a client for the service at base (scheme://host[:port]).
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

// WithTransport routes every request through rt — the injection point for a
// netchaos chaos transport (or any instrumented RoundTripper) — and returns
// the client for chaining. A nil rt is a no-op, so callers can pass their
// configured transport through unconditionally.
func (c *Client) WithTransport(rt http.RoundTripper) *Client {
	if rt != nil {
		c.HTTP = &http.Client{Transport: rt}
	}
	return c
}

// APIError is a non-2xx response, with the body the server sent (its
// http.Error text for job routes).
type APIError struct {
	StatusCode int
	Body       string
	// RetryAfter is the server's Retry-After header (zero when absent): how
	// long the server asked the caller to back off. The client honors it on
	// its own retries; callers that give up instead — the fabric coordinator
	// re-acquiring a lease elsewhere — should propagate it into their next
	// approach to the same server.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("faultd: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Body)
}

// IsConflict reports whether err is an APIError with status 409 — e.g. a
// Cancel that raced the job's own completion, which most callers treat as
// success.
func IsConflict(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.StatusCode == http.StatusConflict
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return DefaultRetries
	}
	return c.Retries
}

func (c *Client) retryWait() time.Duration {
	if c.RetryWait > 0 {
		return c.RetryWait
	}
	return DefaultRetryWait
}

// Jitter spreads a backoff over [3/4·d, 5/4·d) so retries from many clients
// (or many fabric leases) decorrelate instead of hammering a recovering
// server in lockstep.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d*3/4 + time.Duration(rand.Int64N(int64(d)/2+1))
}

// retryAfter parses a Retry-After header in either RFC 9110 §10.2.3 form:
// delta-seconds ("3") or an HTTP-date ("Fri, 31 Dec 1999 23:59:59 GMT").
// dmafaultd itself only emits delta-seconds, but proxies and chaos layers
// between client and server are free to rewrite or inject the date form,
// and both must surface identically — as the duration left to wait. A date
// already in the past means "retry now" (zero), not a negative wait.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if ra, err := strconv.Atoi(v); err == nil {
		if ra <= 0 {
			return 0
		}
		return time.Duration(ra) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// transient reports whether a response status is worth retrying for an
// idempotent call: gateway flaps and drain windows, not client errors.
func transient(status int) bool {
	return status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// Sleep waits d or until ctx is done, returning ctx's error in that case.
// The fabric paces its re-leases with it.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do issues method path with body (replayed per attempt), retrying network
// errors and — when retryStatus says so — retryable statuses, then decodes
// a 2xx response into out (skipped when out is nil). Backoff is exponential
// from RetryWait, capped at DefaultMaxRetryWait, jittered ±25%, and always honors
// ctx cancellation — a caller's deadline ends the retry loop mid-sleep. A
// server Retry-After overrides the computed wait for that retry (un-capped:
// the server's own estimate wins) and is surfaced on the APIError either way.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, retryStatus func(int) bool) error {
	wait := c.retryWait()
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		next := Jitter(wait)
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
		} else {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			resp.Body.Close()
			if rerr != nil {
				lastErr = rerr
			} else if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				if out == nil {
					return nil
				}
				return json.Unmarshal(data, out)
			} else {
				ra := retryAfter(resp.Header)
				lastErr = &APIError{StatusCode: resp.StatusCode,
					Body: strings.TrimSpace(string(data)), RetryAfter: ra}
				if retryStatus == nil || !retryStatus(resp.StatusCode) {
					return lastErr
				}
				if ra > 0 {
					next = ra
				}
			}
		}
		if attempt >= c.retries() {
			return lastErr
		}
		if err := Sleep(ctx, next); err != nil {
			return fmt.Errorf("%w (last error: %v)", err, lastErr)
		}
		wait = min(2*wait, DefaultMaxRetryWait)
	}
}

// Submit posts a campaign. Queue-full rejections (429) are retried with the
// server's Retry-After; drain rejections (503) are not — a draining daemon
// is going away, not flapping.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (*api.SubmitResponse, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	var acc api.SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", body, &acc,
		func(status int) bool { return status == http.StatusTooManyRequests }); err != nil {
		return nil, err
	}
	return &acc, nil
}

// Get fetches one job document.
func (c *Client) Get(ctx context.Context, id int) (*api.Job, error) {
	var job api.Job
	if err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/campaigns/%d", id), nil, &job, transient); err != nil {
		return nil, err
	}
	return &job, nil
}

// List fetches the job table (summaries elided; Get a job for the full
// record).
func (c *Client) List(ctx context.Context) (*api.JobList, error) {
	var list api.JobList
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, &list, transient); err != nil {
		return nil, err
	}
	return &list, nil
}

// Cancel aborts a queued or running job. A finished job returns a 409
// *APIError (see IsConflict); the engine winds down asynchronously, so Watch
// the job for its terminal status.
func (c *Client) Cancel(ctx context.Context, id int) (*api.CancelResponse, error) {
	var cr api.CancelResponse
	if err := c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/campaigns/%d", id), nil, &cr, transient); err != nil {
		return nil, err
	}
	return &cr, nil
}

// CacheStats fetches the shared result cache's counters. Enabled false
// means the daemon runs without a cache — a 200, not an error.
func (c *Client) CacheStats(ctx context.Context) (*api.CacheStats, error) {
	var st api.CacheStats
	if err := c.do(ctx, http.MethodGet, "/v1/cache/stats", nil, &st, transient); err != nil {
		return nil, err
	}
	return &st, nil
}

// ClearCache drops every cached result. 404 *APIError without a cache.
func (c *Client) ClearCache(ctx context.Context) (*api.ClearCacheResponse, error) {
	var cr api.ClearCacheResponse
	if err := c.do(ctx, http.MethodDelete, "/v1/cache", nil, &cr, transient); err != nil {
		return nil, err
	}
	return &cr, nil
}

// Metrics fetches the node's merged metric snapshot from GET /v1/metrics —
// the JSON twin of the Prometheus /metrics exposition. With -fleetobs, the
// fabric heartbeat calls this per worker per round; a torn or truncated
// body surfaces as a decode error, never a partial snapshot.
func (c *Client) Metrics(ctx context.Context) (*metrics.Snapshot, error) {
	var snap metrics.Snapshot
	if err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &snap, transient); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Fleet fetches a coordinator's fleet snapshot (the client's Base is the
// coordinator) — the one rendering of its worker registry.
func (c *Client) Fleet(ctx context.Context) (*api.FleetSnapshot, error) {
	var fs api.FleetSnapshot
	if err := c.do(ctx, http.MethodGet, "/v1/fleet", nil, &fs, transient); err != nil {
		return nil, err
	}
	return &fs, nil
}

// Health fetches /healthz ("ok" or "draining").
func (c *Client) Health(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Body: strings.TrimSpace(string(data))}
	}
	return strings.TrimSpace(string(data)), nil
}

// Ready probes /readyz once (no retries — readiness is a point-in-time
// verdict, and a prober that retries flattens the signal it exists to
// carry). forLease marks the probe as a shard-lease admission check;
// needCache additionally requires the node to run a shared result cache.
// A ready node returns nil; anything else is the *APIError the server sent
// (503 draining/saturated/cache-less), or the transport error.
func (c *Client) Ready(ctx context.Context, forLease, needCache bool) error {
	q := url.Values{}
	if forLease {
		q.Set("lease", "1")
	}
	if needCache {
		q.Set("need_cache", "1")
	}
	path := "/readyz"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode,
			Body: strings.TrimSpace(string(data)), RetryAfter: retryAfter(resp.Header)}
	}
	return nil
}

// JoinFabric registers a worker URL with a fabric coordinator (the client's
// Base is the coordinator, not a dmafaultd node). Joins are upserts, retried
// like Submit on transient statuses — a coordinator mid-restart should not
// cost a worker its registration.
func (c *Client) JoinFabric(ctx context.Context, req api.JoinRequest) (*api.JoinResponse, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	var jr api.JoinResponse
	if err := c.do(ctx, http.MethodPost, "/v1/fabric/join", body, &jr, transient); err != nil {
		return nil, err
	}
	return &jr, nil
}
