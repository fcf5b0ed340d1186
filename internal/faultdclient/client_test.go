package faultdclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"dmafault/internal/faultd"
	"dmafault/internal/faultd/api"
	"dmafault/internal/resultstore"
)

// Round-trip against the real service: every typed call decodes what the
// real handlers emit, not a mock's idea of them.
func TestClientAgainstRealService(t *testing.T) {
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "results.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := faultd.NewServer()
	srv.Workers = 2
	srv.Cache = store
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := New(ts.URL + "/") // trailing slash must be tolerated
	ctx := context.Background()

	if h, err := c.Health(ctx); err != nil || h != "ok" {
		t.Fatalf("health: %q, %v", h, err)
	}

	acc, err := c.Submit(ctx, api.SubmitRequest{Name: "rt", Preset: "ladder", N: 4, Seed: 2021})
	if err != nil {
		t.Fatal(err)
	}
	if acc.ID != 1 || acc.URL != "/v1/campaigns/1" || acc.ScenariosTotal != 4 {
		t.Fatalf("submit: %+v", acc)
	}

	// Follow the live stream to the terminal status, then fetch the document.
	if status, err := c.Watch(ctx, acc.ID, nil); err != nil || status != string(api.StatusDone) {
		t.Fatalf("watch: %q, %v", status, err)
	}
	job, err := c.Get(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != api.StatusDone || job.Summary == nil || job.Summary.Scenarios != 4 {
		t.Fatalf("job: %+v", job)
	}
	if job.Timing == nil || job.Timing.Attempts != 4 || job.Timing.ExecuteSeconds < 0 {
		t.Fatalf("done job timing: %+v", job.Timing)
	}

	// The typed metrics accessor decodes the same merged snapshot /metrics
	// expounds as text; the request counter is necessarily nonzero by now.
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total("faultd_requests_total") == 0 {
		t.Fatalf("metrics snapshot missing request counter: %d families", len(snap.Families))
	}
	if snap.Total("faultd_campaigns_completed_total") != 1 {
		t.Fatalf("metrics snapshot missing campaign counter")
	}

	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].Name != "rt" || list.Jobs[0].Summary != nil {
		t.Fatalf("list: %+v", list)
	}

	// Watching a finished job replays its terminal state immediately.
	var types []string
	status, err := c.Watch(ctx, acc.ID, func(e Event) error {
		types = append(types, e.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != string(api.StatusDone) {
		t.Fatalf("watch status %q", status)
	}
	if len(types) == 0 || types[len(types)-1] != "status" {
		t.Fatalf("watch events: %v", types)
	}

	// Cancelling a finished job is a 409 the caller detects with IsConflict.
	if _, err := c.Cancel(ctx, acc.ID); !IsConflict(err) {
		t.Fatalf("cancel finished job: %v", err)
	}

	st, err := c.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Records != 4 || st.Stores != 4 {
		t.Fatalf("cache stats: %+v", st)
	}
	cr, err := c.ClearCache(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Cleared || cr.RecordsDropped != 4 {
		t.Fatalf("clear: %+v", cr)
	}
}

// Idempotent calls ride out gateway flaps: two 503s then success.
func TestIdempotentRetriesTransient(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts <= 2 {
			http.Error(w, "flap", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"jobs":[]}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.RetryWait = time.Millisecond
	list, err := c.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 || len(list.Jobs) != 0 {
		t.Fatalf("attempts=%d list=%+v", attempts, list)
	}
}

// Submit retries only queue-full (429): a 503 from a draining daemon
// surfaces on the first attempt.
func TestSubmitRetryPolicy(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":1,"url":"/v1/campaigns/1","scenarios_total":4}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.RetryWait = time.Millisecond
	acc, err := c.Submit(context.Background(), api.SubmitRequest{Preset: "ladder", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || acc.ID != 1 {
		t.Fatalf("attempts=%d acc=%+v", attempts, acc)
	}

	attempts = 0
	drain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer drain.Close()
	dc := New(drain.URL)
	dc.RetryWait = time.Millisecond
	_, err = dc.Submit(context.Background(), api.SubmitRequest{Preset: "ladder", N: 4})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain submit: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("submit retried a 503 %d times", attempts-1)
	}
}

// Client errors never retry; the body comes back verbatim in the APIError.
func TestNoRetryOnClientError(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		http.Error(w, "no job 99", http.StatusNotFound)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.RetryWait = time.Millisecond
	_, err := c.Get(context.Background(), 99)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 404 || ae.Body != "no job 99" {
		t.Fatalf("err: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("404 retried %d times", attempts-1)
	}
	if IsConflict(err) {
		t.Error("IsConflict matched a 404")
	}
	if IsConflict(errors.New("plain")) {
		t.Error("IsConflict matched a non-APIError")
	}
	if !IsConflict(&APIError{StatusCode: 409, Body: "done"}) {
		t.Error("IsConflict missed a 409")
	}
}

// A worker that answers 503 with Retry-After is telling the client exactly
// when to come back; the computed backoff must yield to the hint.
func TestRetryAfterHonored(t *testing.T) {
	var attempts int
	var gaps []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		gaps = append(gaps, time.Now())
		if attempts == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "saturated", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"jobs":[]}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.RetryWait = time.Millisecond // hint must override this, not vice versa
	if _, err := c.List(context.Background()); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if wait := gaps[1].Sub(gaps[0]); wait < 900*time.Millisecond {
		t.Fatalf("retried after %v, Retry-After asked for 1s", wait)
	}
}

// A terminal transient failure surfaces the server's Retry-After so callers
// (the fabric's re-lease backoff) can schedule around it.
func TestRetryAfterSurfacedInError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retries = -1
	_, err := c.List(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err: %v", err)
	}
	if ae.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v, want 3s", ae.RetryAfter)
	}
}

// RFC 9110 §10.2.3 gives Retry-After two forms — delta-seconds and an
// HTTP-date — and both must surface identically in the APIError: as the
// duration left to wait. A proxy or chaos layer between client and server
// may rewrite one form into the other; the caller must not care.
func TestRetryAfterHTTPDateForm(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(5*time.Second).UTC().Format(http.TimeFormat))
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retries = -1
	_, err := c.List(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err: %v", err)
	}
	// HTTP-dates have whole-second resolution, so the measured wait is the
	// requested 5s minus up to a second of clock skew and handling time.
	if ae.RetryAfter < 3*time.Second || ae.RetryAfter > 5*time.Second {
		t.Fatalf("RetryAfter = %v, want ~5s from the HTTP-date form", ae.RetryAfter)
	}
}

// The delta-seconds form surfaces through the same path with the same
// semantics (TestRetryAfterSurfacedInError pins the exact value); here the
// two forms are checked against each other, plus the edge arms: a date in
// the past is "retry now", and garbage is ignored.
func TestRetryAfterFormsAgree(t *testing.T) {
	h := func(v string) http.Header {
		hdr := http.Header{}
		if v != "" {
			hdr.Set("Retry-After", v)
		}
		return hdr
	}
	if d := retryAfter(h("3")); d != 3*time.Second {
		t.Fatalf("delta form: %v, want 3s", d)
	}
	date := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if d := retryAfter(h(date)); d <= 0 || d > 3*time.Second {
		t.Fatalf("date form: %v, want (0, 3s]", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := retryAfter(h(past)); d != 0 {
		t.Fatalf("past date: %v, want 0", d)
	}
	for _, bad := range []string{"", "soon", "-5"} {
		if d := retryAfter(h(bad)); d != 0 {
			t.Fatalf("retryAfter(%q) = %v, want 0", bad, d)
		}
	}
}

// Cancelling the context mid-backoff must abort the retry loop immediately,
// not after the computed wait expires.
func TestBackoffHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.RetryWait = time.Hour // the sleep the cancel has to cut short
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.List(ctx)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v to cut the backoff short", elapsed)
	}
}

// Jitter must stay within its documented [3/4·d, 5/4·d) envelope — below it
// retries hammer too fast, above it leases idle.
func TestJitterBounds(t *testing.T) {
	const d = 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := Jitter(d)
		if j < 3*d/4 || j > 5*d/4 {
			t.Fatalf("Jitter(%v) = %v, outside [%v, %v]", d, j, 3*d/4, 5*d/4)
		}
	}
	if Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
}

// Ready mirrors the server's lease-aware /readyz verdicts through the typed
// client, Retry-After included.
func TestReadyLeaseAware(t *testing.T) {
	srv := faultd.NewServer()
	srv.Workers = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	if err := c.Ready(ctx, false, false); err != nil {
		t.Fatalf("plain ready: %v", err)
	}
	if err := c.Ready(ctx, true, false); err != nil {
		t.Fatalf("lease ready: %v", err)
	}
	// No cache on this node: a cache-requiring lease probe must refuse.
	err := c.Ready(ctx, true, true)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cache-less lease probe: %v", err)
	}

	store, err2 := resultstore.Open(filepath.Join(t.TempDir(), "results.bin"))
	if err2 != nil {
		t.Fatal(err2)
	}
	defer store.Close()
	srv2 := faultd.NewServer()
	srv2.Workers = 1
	srv2.Cache = store
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if err := New(ts2.URL).Ready(ctx, true, true); err != nil {
		t.Fatalf("cache-backed lease probe: %v", err)
	}
}

// A torn /v1/metrics body — truncated mid-document by a proxy or chaos
// layer — must surface as a decode error, never as a partial snapshot.
func TestMetricsTornBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"families":[{"name":"faultd_requests_total","kind":"count`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retries = -1
	if snap, err := c.Metrics(context.Background()); err == nil {
		t.Fatalf("torn metrics body decoded: %+v", snap)
	}
}

// A status event torn mid-line — the stream cut inside its JSON — is an
// error a caller can classify as a torn body, not a clean end of stream.
func TestStreamTornStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: progress\ndata: {\"id\":1}\n\nevent: status\ndata: {\"id\":1,\"status\":\"do")
	}))
	defer ts.Close()

	status, err := New(ts.URL).Watch(context.Background(), 1, nil)
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("torn status event: status %q, err %v; want a JSON syntax error", status, err)
	}
}

// Metrics rides the idempotent retry discipline: a gateway flap is retried,
// and the eventual good body decodes.
func TestMetricsRetriesTransient(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			http.Error(w, "flap", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"families":[{"name":"faultd_requests_total","kind":"counter","samples":[{"value":7}]}]}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.RetryWait = time.Millisecond
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || snap.Total("faultd_requests_total") != 7 {
		t.Fatalf("attempts=%d total=%v", attempts, snap.Total("faultd_requests_total"))
	}
}

// Fleet decodes a coordinator's typed snapshot; a server without the route
// answers 404, surfaced as an *APIError.
func TestFleetTyped(t *testing.T) {
	body := `{"workers":[{"url":"http://w1","up":true,"leases":1,` +
		`"delivered_shards":2,"delivered_scenarios":8,` +
		`"phase_totals":{"queue_wait_seconds":0.1,"execute_seconds":3,"publish_seconds":0.01},` +
		`"ewma_shard_seconds":1.5,"ewma_scenarios_per_sec":2.5,"ready":true}],` +
		`"campaign":{"scenarios_total":16,"scenarios_done":8,"shards_total":4,"shards_done":2}}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/fleet" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body)
	}))
	defer ts.Close()

	fs, err := New(ts.URL).Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Workers) != 1 || fs.Workers[0].EWMAScenariosPerSec != 2.5 ||
		fs.Workers[0].PhaseTotals.Execute != 3 || !fs.Workers[0].Ready {
		t.Fatalf("fleet workers: %+v", fs.Workers)
	}
	if fs.Campaign == nil || fs.Campaign.ShardsDone != 2 {
		t.Fatalf("fleet campaign: %+v", fs.Campaign)
	}

	off := httptest.NewServer(http.HandlerFunc(http.NotFound))
	defer off.Close()
	_, err = New(off.URL).Fleet(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("server without /v1/fleet: %v", err)
	}
}
