package faultd

import (
	"bytes"
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
	"dmafault/internal/faultd/api"
	"dmafault/internal/resultstore"
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

// TestDocumentsCompactAndSized: every JSON response faultd serves — a job,
// the job table, the cache counters, the metrics snapshot, and the submit,
// cancel and cache-clear answers — is compact, newline-terminated, and
// sized, so a client reads it into one buffer of exactly Content-Length.
func TestDocumentsCompactAndSized(t *testing.T) {
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "results.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer()
	srv.Workers = 2
	srv.Cache = store
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	check := func(method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: %d %q, want %d", method, path, resp.StatusCode, resp.Header.Get("Content-Type"), want)
		}
		if resp.ContentLength != int64(len(data)) {
			t.Fatalf("%s %s: Content-Length %d, body %d bytes", method, path, resp.ContentLength, len(data))
		}
		doc, ok := bytes.CutSuffix(data, []byte("\n"))
		if !ok {
			t.Fatalf("%s %s: document not newline-terminated", method, path)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		if !bytes.Equal(compact.Bytes(), doc) {
			t.Fatalf("%s %s: document is not compact (%d bytes, %d compacted)", method, path, len(doc), compact.Len())
		}
	}

	check(http.MethodPost, "/v1/campaigns", `{"preset":"ladder","n":2,"seed":2021}`, http.StatusAccepted)
	srv.Wait()
	for _, path := range []string{"/v1/campaigns/1", "/v1/campaigns", "/v1/cache/stats", "/v1/metrics"} {
		check(http.MethodGet, path, "", http.StatusOK)
	}
	// Four 250 ms stalls on one engine worker keep job 2 cancellable.
	check(http.MethodPost, "/v1/campaigns", stallBody(4), http.StatusAccepted)
	check(http.MethodDelete, "/v1/campaigns/2", "", http.StatusAccepted)
	srv.Wait()
	check(http.MethodDelete, "/v1/cache", "", http.StatusOK)
	var job Job
	if _, body := get(t, ts.URL+"/v1/campaigns/1"); json.Unmarshal(body, &job) != nil ||
		job.Status != StatusDone || job.Summary == nil || job.ResultsHash == "" {
		t.Fatalf("job document: %+v", job)
	}
}

// TestFinishedJobServedFromDocument: finish encodes a done job's document
// once and drops the decoded summary; GET /v1/campaigns/{id} writes those
// bytes as they are, and they carry the summary and a stamp that hashes
// the results they hold.
func TestFinishedJobServedFromDocument(t *testing.T) {
	srv := NewServer()
	srv.Workers = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, body := post(t, ts.URL+"/v1/campaigns", `{"preset":"ladder","n":4,"seed":2021}`); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	srv.Wait()
	srv.mu.Lock()
	doc, summary := srv.jobsByID[1].doc, srv.jobsByID[1].Summary
	srv.mu.Unlock()
	if doc == nil || summary != nil {
		t.Fatalf("finished job keeps document %t and decoded summary %t", doc != nil, summary != nil)
	}
	for i := 0; i < 2; i++ {
		if _, body := get(t, ts.URL+"/v1/campaigns/1"); !bytes.Equal(body, doc) {
			t.Fatalf("GET %d does not serve the document as encoded", i)
		}
	}
	var job Job
	if err := json.Unmarshal(doc, &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusDone || job.Summary == nil || job.Summary.Scenarios != 4 ||
		job.ResultsHash != api.HashResults(job.Summary.Results) {
		t.Fatalf("document: %.300s", doc)
	}
	want, err := (campaign.Engine{Workers: 2}).Run(campaign.LadderPreset(4, 2021))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := want.JSON()
	b, _ := job.Summary.JSON()
	if !bytes.Equal(a, b) {
		t.Fatal("the document's summary differs from the local engine's")
	}
}
