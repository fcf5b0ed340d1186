package faultd

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmafault/internal/fuzz"
)

// A fuzz-campaign job runs end to end through the job API: accepted with
// the budget as its progress total, finishes with a fuzz report, persists a
// corpus file the recovery scan ignores, and exports fuzz_* metrics.
func TestFuzzJobEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer()
	srv.Workers = 4
	srv.JournalDir = dir
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := post(t, ts.URL+"/v1/campaigns",
		`{"name":"fuzz-smoke","seed":11,"fuzz":{"attempts":8,"minimize":-1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var acc struct {
		ID             int `json:"id"`
		ScenariosTotal int `json:"scenarios_total"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ScenariosTotal != 8 {
		t.Fatalf("progress total should be the fuzz budget: %+v", acc)
	}
	srv.Wait()

	var job Job
	_, body = get(t, ts.URL+"/v1/campaigns/1")
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusDone {
		t.Fatalf("job: %+v", job)
	}
	if job.Fuzz == nil || job.Fuzz.Execs != 8 || job.Fuzz.CorpusSize == 0 {
		t.Fatalf("fuzz report: %+v", job.Fuzz)
	}
	if job.Summary != nil {
		t.Fatal("fuzz jobs have no fixed-set summary")
	}
	if job.ScenariosDone != 8 {
		t.Fatalf("scenarios_done %d, want 8", job.ScenariosDone)
	}

	// Corpus persisted under a name the journal recovery scan ignores.
	corpusPath := filepath.Join(dir, "fuzz-1.corpus.jsonl")
	if _, err := os.Stat(corpusPath); err != nil {
		t.Fatalf("corpus file: %v", err)
	}
	if journalNameRE.MatchString(filepath.Base(corpusPath)) {
		t.Fatal("corpus file name must not look like a recoverable journal")
	}
	c, err := fuzz.OpenCorpus(corpusPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != job.Fuzz.CorpusSize {
		t.Fatalf("corpus file has %d entries, report says %d", c.Len(), job.Fuzz.CorpusSize)
	}
	c.Close()

	// fuzz_* families merged into the exposition.
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, fam := range []string{"fuzz_execs_total 8", "fuzz_corpus_entries", "fuzz_signatures_distinct"} {
		if !strings.Contains(string(metricsBody), fam) {
			t.Errorf("/metrics lacks %q", fam)
		}
	}
}

// The SSE stream of a fuzz job carries per-round "fuzz" coverage events
// alongside per-execution "result" events.
func TestFuzzJobEventStream(t *testing.T) {
	srv := NewServer()
	srv.Workers = 4
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := post(t, ts.URL+"/v1/campaigns",
		`{"name":"fuzz-sse","seed":11,"fuzz":{"attempts":8,"batch":4,"minimize":-1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	types := map[string]int{}
	var lastFuzz fuzz.RoundStats
	sc := bufio.NewScanner(resp.Body)
	var event string
	deadline := time.After(60 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				event = strings.TrimPrefix(line, "event: ")
				continue
			}
			if strings.HasPrefix(line, "data: ") {
				types[event]++
				if event == "fuzz" {
					_ = json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &lastFuzz)
				}
				if event == "status" {
					return
				}
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("SSE stream did not reach terminal status in time")
	}
	srv.Wait()

	if types["fuzz"] == 0 {
		t.Fatalf("no fuzz round events on the stream: %v", types)
	}
	if types["result"] == 0 {
		t.Fatalf("no result events on the stream: %v", types)
	}
	if lastFuzz.Execs == 0 || lastFuzz.CorpusSize == 0 {
		t.Fatalf("last fuzz event empty: %+v", lastFuzz)
	}
}

func TestFuzzRequestValidation(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", `{"fuzz":{"attempts":8},"preset":"mixed"}`); code != http.StatusBadRequest {
		t.Errorf("fuzz+preset: %d, want 400", code)
	}
	if code, _ := post(t, ts.URL+"/v1/campaigns", `{"fuzz":{"attempts":999999}}`); code != http.StatusBadRequest {
		t.Errorf("over-cap attempts: %d, want 400", code)
	}
	srv.Wait()
}
