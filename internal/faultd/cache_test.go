package faultd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"dmafault/internal/resultstore"
)

// The unversioned routes are gone: /campaigns answers 404, and the /v1
// routes carry no deprecation headers.
func TestLegacyRoutesRemoved(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/campaigns", "/campaigns/1", "/campaigns/1/events"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/campaigns: %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Link") != "" {
		t.Error("/v1 route carries deprecation headers")
	}
}

// Without -cache-dir, the stats endpoint still answers (Enabled false is an
// answer) but clearing has nothing to act on.
func TestCacheEndpointsWithoutStore(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/v1/cache/stats")
	if code != 200 {
		t.Fatalf("cache stats: %d %s", code, body)
	}
	var stats struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Enabled {
		t.Error("stats claim a cache on a daemon without one")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE /v1/cache without store: %d, want 404", resp.StatusCode)
	}
}

// The store is shared across jobs: a second identical submission replays
// entirely from cache — CacheHits equals the scenario count, the summaries
// are byte-identical, and the admin endpoints see the traffic.
func TestSharedCacheAcrossJobs(t *testing.T) {
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

	body := `{"preset":"ladder","n":4,"seed":2021}`
	for i := 0; i < 2; i++ {
		if code, resp := post(t, ts.URL+"/v1/campaigns", body); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, resp)
		}
		srv.Wait()
	}

	var jobs [2]Job
	var sums [2][]byte
	for i := range jobs {
		_, data := get(t, ts.URL+"/v1/campaigns/"+string(rune('1'+i)))
		if err := json.Unmarshal(data, &jobs[i]); err != nil {
			t.Fatal(err)
		}
		if jobs[i].Status != StatusDone || jobs[i].Summary == nil {
			t.Fatalf("job %d: %+v", i+1, jobs[i])
		}
		sums[i], err = jobs[i].Summary.JSON()
		if err != nil {
			t.Fatal(err)
		}
	}
	if jobs[0].CacheHits != 0 {
		t.Errorf("cold job reported %d cache hits", jobs[0].CacheHits)
	}
	if jobs[1].CacheHits != 4 {
		t.Errorf("warm job replayed %d of 4 scenarios", jobs[1].CacheHits)
	}
	if !bytes.Equal(sums[0], sums[1]) {
		t.Errorf("warm summary differs from cold:\n%s\nvs\n%s", sums[1], sums[0])
	}

	code, data := get(t, ts.URL+"/v1/cache/stats")
	if code != 200 {
		t.Fatalf("cache stats: %d", code)
	}
	var stats struct {
		Enabled bool    `json:"enabled"`
		Records int     `json:"records"`
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Enabled || stats.Records != 4 || stats.Hits != 4 || stats.Misses != 4 {
		t.Errorf("stats: %+v", stats)
	}
	if stats.HitRate != 0.5 {
		t.Errorf("hit rate %v, want 0.5", stats.HitRate)
	}

	// The store's counters surface on /metrics too.
	_, text := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"resultstore_hits_total 4",
		"resultstore_records 4",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Clearing drops the records; the next identical job misses and re-fills.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cleared struct {
		Cleared        bool `json:"cleared"`
		RecordsDropped int  `json:"records_dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cleared); err != nil {
		t.Fatal(err)
	}
	if !cleared.Cleared || cleared.RecordsDropped != 4 {
		t.Errorf("clear: %+v", cleared)
	}
	if code, _ := post(t, ts.URL+"/v1/campaigns", body); code != http.StatusAccepted {
		t.Fatalf("post-clear submit: %d", code)
	}
	var third Job
	_, data = get(t, ts.URL+"/v1/campaigns/3")
	if err := json.Unmarshal(data, &third); err != nil {
		t.Fatal(err)
	}
	if third.CacheHits != 0 {
		t.Errorf("post-clear job hit %d times on an empty store", third.CacheHits)
	}
}
