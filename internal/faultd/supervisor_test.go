package faultd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmafault/internal/campaign"
)

// submitBody marshals a Request so the test and the server decode the exact
// same scenario structs (byte-identity comparisons depend on it).
func submitBody(t *testing.T, req Request) string {
	t.Helper()
	b, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postRaw is post() plus response headers, for Retry-After assertions.
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestSubmitStormBoundedConcurrency is the scheduler acceptance test: 50
// concurrent submissions against a 2-slot scheduler all complete, never more
// than 2 execute at once, and every job's summary is byte-identical to a
// serial run of the same scenario set.
func TestSubmitStormBoundedConcurrency(t *testing.T) {
	const jobs = 50
	srv := NewServer()
	srv.Workers = 1
	srv.MaxConcurrent = 2
	srv.QueueDepth = jobs
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sets := make([][]campaign.Scenario, jobs)
	for i := range sets {
		sets[i] = []campaign.Scenario{{Kind: campaign.KindWindowLadder, Seed: int64(1000 + i)}}
	}

	var wg sync.WaitGroup
	ids := make([]int, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := submitBody(t, Request{Name: fmt.Sprintf("storm-%d", i), Workers: 1, Scenarios: sets[i]})
			code, resp := post(t, ts.URL+"/v1/campaigns", body)
			if code != http.StatusAccepted {
				t.Errorf("storm submit %d: %d %s", i, code, resp)
				return
			}
			var acc struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(resp, &acc); err != nil {
				t.Error(err)
				return
			}
			ids[i] = acc.ID
		}(i)
	}
	wg.Wait()
	srv.Wait()

	srv.mu.Lock()
	peak := srv.peakRunning
	srv.mu.Unlock()
	if peak < 1 || peak > 2 {
		t.Fatalf("peak concurrency %d, want 1..2", peak)
	}

	// Every job finished, and its summary matches a serial engine run bit
	// for bit (scheduling must not leak into results).
	for i := 0; i < jobs; i++ {
		if ids[i] == 0 {
			continue // submit already failed the test above
		}
		_, body := get(t, fmt.Sprintf("%s/v1/campaigns/%d", ts.URL, ids[i]))
		var job Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status != StatusDone || job.Summary == nil {
			t.Fatalf("storm job %d: %+v", ids[i], job)
		}
		ref, err := (&campaign.Engine{Workers: 1}).Run(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.JSON()
		got, _ := job.Summary.JSON()
		if !bytes.Equal(got, want) {
			t.Fatalf("storm job %d summary differs from serial run", ids[i])
		}
	}

	// The supervision families materialized on /metrics.
	_, text := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"faultd_campaigns_completed_total 50",
		"faultd_campaigns_running_peak",
		"faultd_queue_wait_seconds_count 50",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestQueueFullRejects429: with one scheduler slot wedged by a stall job and
// a queue bound of 1, a burst of further submissions is mostly bounced with
// 429 + Retry-After, and never accepted-then-dropped: every 202 reaches a
// terminal status.
func TestQueueFullRejects429(t *testing.T) {
	srv := NewServer()
	srv.MaxConcurrent = 1
	srv.QueueDepth = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Wedge the only slot: 8 serial 250ms stalls.
	code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(8))
	if code != http.StatusAccepted {
		t.Fatalf("wedge submit: %d", code)
	}
	pollUntilRunning(t, ts.URL+"/v1/campaigns/1")

	// The dispatcher can hold at most one popped job (blocked on the slot)
	// and the queue holds one more, so of a 10-burst at most 2 are accepted.
	accepted, rejected := 0, 0
	var acceptedIDs []int
	for i := 0; i < 10; i++ {
		resp := postRaw(t, ts.URL+"/v1/campaigns", stallBody(1))
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
			acceptedIDs = append(acceptedIDs, 0) // id = submission order, read back below
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("burst submit %d: %d", i, resp.StatusCode)
		}
	}
	if accepted > 2 || rejected < 8 {
		t.Fatalf("burst: %d accepted, %d rejected; want <=2 and >=8", accepted, rejected)
	}

	// The queue is wedged full, so readiness fails while liveness holds.
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || string(body) != "saturated\n" {
		t.Errorf("readyz under saturation: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz under saturation: %d %q", code, body)
	}

	// Unwedge and drain; every accepted job must reach a terminal status.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = srv.Drain(ctx)
	_, body := get(t, ts.URL+"/v1/campaigns")
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1+accepted {
		t.Fatalf("job table has %d jobs, want %d", len(list.Jobs), 1+accepted)
	}
	for _, j := range list.Jobs {
		if j.Status == StatusRunning || j.Status == StatusQueued {
			t.Errorf("job %d left non-terminal: %s", j.ID, j.Status)
		}
	}
	_ = acceptedIDs

	_, text := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(text), fmt.Sprintf("faultd_submissions_rejected_full_total %d", rejected)) {
		t.Errorf("429s not counted; want %d:\n%s", rejected, grepFaultd(text))
	}
}

func pollUntilRunning(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, url)
		var job Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status == StatusRunning {
			return
		}
		if job.Status != StatusQueued {
			t.Fatalf("job reached %s before running", job.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// grepFaultd trims an exposition to its faultd_ lines for readable failures.
func grepFaultd(text []byte) string {
	var b strings.Builder
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "faultd_") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestSubmitWhileDrainingRejected503 is the submit/drain race regression:
// once drain begins, submissions are rejected with 503 — never accepted and
// then dropped — and the probes flip state.
func TestSubmitWhileDrainingRejected503(t *testing.T) {
	srv := NewServer()
	srv.Workers = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.BeginDrain()
	resp := postRaw(t, ts.URL+"/v1/campaigns", `{"preset":"ladder","n":4,"seed":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || string(body) != "draining\n" {
		t.Errorf("healthz while draining: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || string(body) != "draining\n" {
		t.Errorf("readyz while draining: %d %q", code, body)
	}
	_, text := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(text), "faultd_submissions_rejected_draining_total 1") {
		t.Error("draining rejection not counted")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain of idle server: %v", err)
	}
}

// TestSubmitDrainRaceNeverDropsAcceptedJobs hammers the race the draining
// flag fixes: submissions concurrent with drain either get 503 or, once
// accepted, reach a terminal status — a 202'd job is never abandoned.
func TestSubmitDrainRaceNeverDropsAcceptedJobs(t *testing.T) {
	srv := NewServer()
	srv.Workers = 1
	srv.MaxConcurrent = 2
	srv.QueueDepth = 64
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const submitters = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []int
	start := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body := submitBody(t, Request{Workers: 1,
				Scenarios: []campaign.Scenario{{Kind: campaign.KindWindowLadder, Seed: int64(i)}}})
			resp := postRaw(t, ts.URL+"/v1/campaigns", body)
			switch resp.StatusCode {
			case http.StatusAccepted:
				mu.Lock()
				accepted = append(accepted, 0)
				mu.Unlock()
			case http.StatusServiceUnavailable:
				// Lost the race to drain: rejected up front is the contract.
			default:
				t.Errorf("submitter %d: %d", i, resp.StatusCode)
			}
		}(i)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let some submissions land first
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	// Count jobs the server accepted; each must be terminal with either a
	// summary (done) or an explicit cancellation.
	_, body := get(t, ts.URL+"/v1/campaigns")
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	acceptedN := len(accepted)
	mu.Unlock()
	if len(list.Jobs) != acceptedN {
		t.Fatalf("%d jobs registered, %d submissions got 202", len(list.Jobs), acceptedN)
	}
	for _, j := range list.Jobs {
		switch j.Status {
		case StatusDone, StatusCancelled:
		default:
			t.Errorf("accepted job %d ended %q", j.ID, j.Status)
		}
	}
}

// TestWatchdogCancelsStalledJob: a job whose scenarios stop producing
// heartbeats is cancelled with the structured stalled outcome.
func TestWatchdogCancelsStalledJob(t *testing.T) {
	srv := NewServer()
	srv.StallTimeout = 60 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Each scenario stalls 250ms — four stall-timeouts with no heartbeat.
	if code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(2)); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	job := pollJob(t, ts.URL+"/v1/campaigns/1")
	if job.Status != StatusStalled {
		t.Fatalf("job status %q, want %q (%+v)", job.Status, StatusStalled, job)
	}
	if !strings.Contains(job.Error, "stalled: no progress within") {
		t.Fatalf("stalled error %q", job.Error)
	}
	srv.Wait()

	_, text := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"faultd_jobs_stalled_total 1",
		"faultd_campaigns_failed_total 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q:\n%s", want, grepFaultd(text))
		}
	}
}

// TestWatchdogSparesProgressingJobs: steady scenario claims/completions
// keep the heartbeat fresh, so a slow-but-progressing job is never falsely
// stalled. The timeout is generous (it only needs to exceed one scenario's
// duration, even under -race) while the 8 serial 250ms stalls guarantee the
// job as a whole runs well past a naive whole-job budget.
func TestWatchdogSparesProgressingJobs(t *testing.T) {
	srv := NewServer()
	srv.Workers = 1
	srv.StallTimeout = 30 * time.Second
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(8)); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	job := pollJob(t, ts.URL+"/v1/campaigns/1")
	if job.Status != StatusDone {
		t.Fatalf("progressing job ended %q: %+v", job.Status, job)
	}
	srv.Wait()
	_, text := get(t, ts.URL+"/metrics")
	if strings.Contains(string(text), "faultd_jobs_stalled_total") {
		t.Error("watchdog counted a stall on a progressing job")
	}
}

// TestSupervisionFamiliesAbsentOnIdleBoot pins the OmitZero contract on the
// service: a freshly booted daemon's exposition carries no supervision
// families at all (their presence is the signal), while the base service
// counters are always present.
func TestSupervisionFamiliesAbsentOnIdleBoot(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, body := get(t, ts.URL+"/metrics")
	text := string(body)
	for _, family := range []string{
		"faultd_queue_depth", "faultd_queue_wait_seconds",
		"faultd_campaigns_running_peak",
		"faultd_submissions_rejected_full_total",
		"faultd_submissions_rejected_draining_total",
		"faultd_jobs_stalled_total", "faultd_jobs_recovered_total",
	} {
		if strings.Contains(text, family) {
			t.Errorf("idle exposition leaks %s", family)
		}
	}
	for _, family := range []string{"faultd_requests_total", "faultd_campaigns_running 0"} {
		if !strings.Contains(text, family) {
			t.Errorf("idle exposition missing %s", family)
		}
	}
}

// TestReadyzSaturationFlagging drives the readiness probe's saturation arm
// directly (the admission queue is test-populated to its bound).
func TestReadyzSaturationFlagging(t *testing.T) {
	srv := NewServer()
	srv.QueueDepth = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK || string(body) != "ready\n" {
		t.Fatalf("idle readyz: %d %q", code, body)
	}
	srv.mu.Lock()
	srv.pending = make([]*Job, 2)
	srv.mu.Unlock()
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || string(body) != "saturated\n" {
		t.Fatalf("saturated readyz: %d %q", code, body)
	}
	srv.mu.Lock()
	srv.pending = nil
	srv.mu.Unlock()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatal("readyz did not recover after the queue drained")
	}
}

// TestCancelQueuedJob: a job cancelled while still waiting for a slot
// retires as cancelled without ever running a scenario.
func TestCancelQueuedJob(t *testing.T) {
	srv := NewServer()
	srv.MaxConcurrent = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Wedge the slot, then queue a victim behind it.
	if code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(8)); code != http.StatusAccepted {
		t.Fatal("wedge submit failed")
	}
	pollUntilRunning(t, ts.URL+"/v1/campaigns/1")
	if code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(1)); code != http.StatusAccepted {
		t.Fatal("victim submit failed")
	}
	if code, _ := del(t, ts.URL+"/v1/campaigns/2"); code != http.StatusAccepted {
		t.Fatal("cancel of queued job refused")
	}
	if code, _ := del(t, ts.URL+"/v1/campaigns/1"); code != http.StatusAccepted {
		t.Fatal("cancel of running job refused")
	}
	srv.Wait()
	job := pollJob(t, ts.URL+"/v1/campaigns/2")
	if job.Status != StatusCancelled || job.ScenariosDone != 0 {
		t.Fatalf("queued victim: %+v", job)
	}
}
