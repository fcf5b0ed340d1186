package faultd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServiceEndToEnd is the tentpole acceptance test: boot the service,
// probe /healthz and pprof, run a preset campaign through the job API, and
// read the machine metrics back off /metrics.
func TestServiceEndToEnd(t *testing.T) {
	srv := NewServer()
	srv.Workers = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof cmdline: %d", code)
	}

	// Submit a small preset campaign.
	code, body := post(t, ts.URL+"/v1/campaigns", `{"name":"smoke","preset":"ladder","n":4,"seed":2021}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var acc struct {
		ID             int    `json:"id"`
		URL            string `json:"url"`
		ScenariosTotal int    `json:"scenarios_total"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID != 1 || acc.URL != "/v1/campaigns/1" || acc.ScenariosTotal != 4 {
		t.Fatalf("accepted %+v", acc)
	}

	// Poll until done (live progress en route).
	var job Job
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, body := get(t, ts.URL+"/v1/campaigns/1")
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status != StatusRunning && job.Status != StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", job)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.Status != StatusDone || job.Error != "" {
		t.Fatalf("job failed: %+v", job)
	}
	if job.ScenariosDone != 4 || job.Summary == nil || job.Summary.Scenarios != 4 {
		t.Fatalf("progress/summary wrong: %+v", job)
	}
	if job.Summary.Metrics == nil || job.Summary.Metrics.Total("iommu_maps_total") == 0 {
		t.Fatal("campaign summary carries no machine metrics")
	}

	// The exposition merges service and campaign planes.
	code, body = get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"faultd_campaigns_completed_total 1",
		"faultd_scenarios_completed_total 4",
		"faultd_campaigns_running 0",
		"campaign_scenarios_total 4",
		"# TYPE iommu_maps_total counter",
		"netstack_rx_packets_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Job listing stays lightweight (no inline summaries).
	_, body = get(t, ts.URL+"/v1/campaigns")
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].Summary != nil {
		t.Fatalf("listing: %+v", list)
	}
}

func TestSubmitExplicitScenarios(t *testing.T) {
	srv := NewServer()
	srv.Workers = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := post(t, ts.URL+"/v1/campaigns",
		`{"scenarios":[{"kind":"window-ladder","seed":7,"driver":"correct","mode":"strict"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	srv.Wait()
	_, body := get(t, ts.URL+"/v1/campaigns/1")
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusDone || job.Summary == nil || job.Summary.Successes != 1 {
		t.Fatalf("job: %+v", job)
	}
	// Strict-mode machine: the strict invalidation counter must be visible.
	if job.Summary.Metrics.Total("iommu_strict_invalidations_total") == 0 {
		t.Error("strict invalidations not counted")
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, bad := range []string{
		`{}`,
		`{"preset":"warp"}`,
		`{"preset":"ladder","scenarios":[{"kind":"window-ladder"}]}`,
		fmt.Sprintf(`{"preset":"ladder","n":%d}`, MaxScenarios+1),
		`not json`,
	} {
		if code, _ := post(t, ts.URL+"/v1/campaigns", bad); code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", bad, code)
		}
	}
	// Unknown job and non-numeric id.
	if code, _ := get(t, ts.URL+"/v1/campaigns/99"); code != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/campaigns/xyz"); code != http.StatusBadRequest {
		t.Errorf("bad id: %d, want 400", code)
	}
	// Method routing: GET on the collection works, DELETE does not.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/campaigns: %d, want 405", resp.StatusCode)
	}
	srv.Wait()
}

// TestMetricsAccumulateAcrossJobs pins the merge behavior: two identical
// jobs double the campaign-plane counters on /metrics.
func TestMetricsAccumulateAcrossJobs(t *testing.T) {
	srv := NewServer()
	srv.Workers = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The ladder preset emits one scenario per grid cell (2 drivers × 2
	// modes), so each job runs 4 scenarios.
	body := `{"preset":"ladder","n":4,"seed":5}`
	for i := 0; i < 2; i++ {
		if code, resp := post(t, ts.URL+"/v1/campaigns", body); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, resp)
		}
	}
	srv.Wait()
	_, text := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(text), "campaign_scenarios_total 8") {
		t.Errorf("merged dump did not accumulate across jobs:\n%.600s", text)
	}
	if !strings.Contains(string(text), "faultd_campaigns_completed_total 2") {
		t.Error("service counter wrong")
	}
}
