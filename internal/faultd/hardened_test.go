package faultd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmafault/internal/campaign"
)

func del(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// stallBody builds a submission whose scenarios each hang 250ms on an
// injected stall — slow enough to cancel mid-flight, fast enough for tests.
func stallBody(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"name":"stall","workers":1,"scenarios":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"kind":"window-ladder","seed":%d,"fault_spec":"scenario-stall@1"}`, i)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

func pollJob(t *testing.T, url string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, body := get(t, url)
		var job Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status != StatusRunning && job.Status != StatusQueued {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", job)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelRunningJob(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 8 serial 250ms stalls: ~2s uncancelled, so the DELETE lands mid-run.
	code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(8))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	code, body := del(t, ts.URL+"/v1/campaigns/1")
	if code != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", code, body)
	}
	if !strings.Contains(string(body), `"cancelling"`) {
		t.Fatalf("cancel body: %s", body)
	}

	job := pollJob(t, ts.URL+"/v1/campaigns/1")
	if job.Status != StatusCancelled || job.Error != "cancelled" {
		t.Fatalf("job after cancel: %+v", job)
	}
	if job.ScenariosDone >= job.ScenariosTotal {
		t.Fatalf("cancelled job completed all %d scenarios", job.ScenariosTotal)
	}
	srv.Wait()

	// Cancelling a finished job conflicts; bad ids behave like handleJob.
	if code, _ := del(t, ts.URL+"/v1/campaigns/1"); code != http.StatusConflict {
		t.Errorf("second cancel: %d, want 409", code)
	}
	if code, _ := del(t, ts.URL+"/v1/campaigns/99"); code != http.StatusNotFound {
		t.Errorf("cancel missing job: %d, want 404", code)
	}
	if code, _ := del(t, ts.URL+"/v1/campaigns/xyz"); code != http.StatusBadRequest {
		t.Errorf("cancel bad id: %d, want 400", code)
	}

	_, text := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(text), "faultd_campaigns_cancelled_total 1") {
		t.Error("cancellation not counted on /metrics")
	}
}

// TestDrainLetsInFlightJobFinish is the SIGTERM-path contract: with a
// generous deadline, Drain blocks until running jobs complete normally.
func TestDrainLetsInFlightJobFinish(t *testing.T) {
	srv := NewServer()
	srv.Workers = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", `{"preset":"ladder","n":4,"seed":2021}`); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	job := pollJob(t, ts.URL+"/v1/campaigns/1")
	if job.Status != StatusDone || job.Summary == nil {
		t.Fatalf("drained job did not finish cleanly: %+v", job)
	}
}

// TestDrainDeadlineCancelsStragglers: when the shutdown budget expires, the
// remaining jobs are cancelled (not abandoned) and Drain still returns.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(8)); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	// Drain returns only after the cancelled jobs wound down.
	job := pollJob(t, ts.URL+"/v1/campaigns/1")
	if job.Status != StatusCancelled {
		t.Fatalf("straggler status %q, want cancelled", job.Status)
	}
}

// TestJournalDirRecordsCompletedScenarios: every job writes a journal that
// cmd/campaign --resume can replay against the same scenario set.
func TestJournalDirRecordsCompletedScenarios(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer()
	srv.Workers = 2
	srv.JournalDir = dir
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", `{"preset":"ladder","n":4,"seed":5}`); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	job := pollJob(t, ts.URL+"/v1/campaigns/1")
	if job.Status != StatusDone {
		t.Fatalf("job: %+v", job)
	}
	// The journal must load against the same server-side generated set.
	scs := campaign.Presets["ladder"](4, 5)
	restored, err := campaign.LoadJournal(filepath.Join(dir, "job-1.jsonl"), scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 4 {
		t.Fatalf("journal restored %d/4 scenarios", len(restored))
	}
}
