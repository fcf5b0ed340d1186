package faultd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
)

// docSummaryJSON decodes the document a finished job keeps, the bytes GET
// /v1/campaigns/{id} serves, and returns its summary's JSON.
func docSummaryJSON(t *testing.T, srv *Server, job *Job) []byte {
	t.Helper()
	srv.mu.Lock()
	data, summary := job.doc, job.Summary
	srv.mu.Unlock()
	if summary != nil {
		t.Fatalf("job %d kept its decoded summary beside its document", job.ID)
	}
	var doc api.Job
	if err := json.Unmarshal(data, &doc); err != nil || doc.Summary == nil {
		t.Fatalf("job %d document (err %v): %.300s", job.ID, err, data)
	}
	js, err := doc.Summary.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// recoverySet is the scenario set used by the crash-recovery tests.
func recoverySet() []campaign.Scenario {
	set := make([]campaign.Scenario, 6)
	for i := range set {
		set[i] = campaign.Scenario{Kind: campaign.KindWindowLadder, Seed: int64(7000 + i)}
	}
	return set
}

// writeInterruptedJournal simulates a daemon killed mid-campaign: a journal
// for job `id` holding the first `n` completed records plus a torn tail from
// the write the kill interrupted.
func writeInterruptedJournal(t *testing.T, dir string, id int, set []campaign.Scenario, results []*campaign.Result, n int) {
	t.Helper()
	path := filepath.Join(dir, journalName(id))
	j, err := campaign.OpenJournal(path, set, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Record(i, results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":4,"result":{"id":"scn-");`); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func journalName(id int) string {
	return fmt.Sprintf("job-%d.jsonl", id)
}

// TestRecoveryResumesByteIdentical is the kill -9 acceptance test: a journal
// interrupted mid-run is rediscovered at boot, resumed through the ordinary
// scheduler, and finishes with a summary byte-identical to an uninterrupted
// run's.
func TestRecoveryResumesByteIdentical(t *testing.T) {
	set := recoverySet()

	// The uninterrupted reference.
	ref, err := (&campaign.Engine{Workers: 2}).Run(set)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// A predecessor daemon died with job 3 half done (torn tail included).
	dir := t.TempDir()
	writeInterruptedJournal(t, dir, 3, set, ref.Results, 2)

	srv := NewServer()
	srv.Workers = 2
	srv.JournalDir = dir
	recovered, err := srv.RecoverJobs()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", recovered)
	}
	srv.Wait()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body := get(t, ts.URL+"/v1/campaigns/3")
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusDone || !job.Recovered || job.ScenariosDone != len(set) {
		t.Fatalf("recovered job: %+v", job)
	}
	gotJSON, err := job.Summary.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("resumed summary differs from uninterrupted run")
	}

	// The on-disk journal is now complete: a second boot recovers nothing.
	srv2 := NewServer()
	srv2.JournalDir = dir
	if n, err := srv2.RecoverJobs(); err != nil || n != 0 {
		t.Fatalf("second boot recovered %d jobs, err %v; want 0, nil", n, err)
	}

	// Supervision accounting: the recovery is visible on /metrics.
	_, text := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(text), "faultd_jobs_recovered_total 1") {
		t.Error("recovery not counted on /metrics")
	}

	// The ID counter was seeded past the journal: the next submission is 4.
	code, resp := post(t, ts.URL+"/v1/campaigns",
		submitBody(t, Request{Scenarios: recoverySet()[:1]}))
	if code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d %s", code, resp)
	}
	var acc struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(resp, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID != 4 {
		t.Fatalf("post-recovery job ID %d, want 4", acc.ID)
	}
	srv.Wait()
}

// TestRecoverySeedsIDCounterFromFinishedJournals: even journals that need no
// resuming advance the ID counter, so new submissions never collide with (and
// never overwrite) a predecessor's journals.
func TestRecoverySeedsIDCounterFromFinishedJournals(t *testing.T) {
	set := recoverySet()[:2]
	dir := t.TempDir()
	j, err := campaign.OpenJournal(filepath.Join(dir, "job-17.jsonl"), set, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := (&campaign.Engine{Workers: 1, Journal: j}).Run(set)
	j.Close()
	if err != nil || len(full.Results) != 2 {
		t.Fatalf("reference run: %v", err)
	}

	srv := NewServer()
	srv.JournalDir = dir
	if n, err := srv.RecoverJobs(); err != nil || n != 0 {
		t.Fatalf("recovered %d, err %v; want 0 (journal is finished)", n, err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/v1/campaigns/17"); code != http.StatusNotFound {
		t.Error("finished journal was registered as a job")
	}
	_, resp := post(t, ts.URL+"/v1/campaigns", submitBody(t, Request{Scenarios: set}))
	var acc struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(resp, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID != 18 {
		t.Fatalf("job ID %d, want 18 (seeded past job-17.jsonl)", acc.ID)
	}
	srv.Wait()
}

// TestRecoveryReportsBrokenJournalsAndContinues: one unreadable journal does
// not block recovery of the rest; it is reported and left on disk.
func TestRecoveryReportsBrokenJournalsAndContinues(t *testing.T) {
	set := recoverySet()
	ref, err := (&campaign.Engine{Workers: 2}).Run(set)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-1.jsonl"), []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignore me"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeInterruptedJournal(t, dir, 2, set, ref.Results, 3)

	srv := NewServer()
	srv.Workers = 2
	srv.JournalDir = dir
	recovered, err := srv.RecoverJobs()
	if err == nil || !strings.Contains(err.Error(), "job-1.jsonl") {
		t.Fatalf("broken journal not reported: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1 despite the broken sibling", recovered)
	}
	srv.Wait()
	srv.mu.Lock()
	job := srv.jobsByID[2]
	srv.mu.Unlock()
	if job == nil || job.Status != StatusDone {
		t.Fatalf("job 2 not recovered cleanly: %+v", job)
	}
	want, _ := ref.JSON()
	if got := docSummaryJSON(t, srv, job); !bytes.Equal(got, want) {
		t.Fatal("summary resumed next to a broken journal differs")
	}
	// The broken journal stayed on disk for the operator.
	if _, err := os.Stat(filepath.Join(dir, "job-1.jsonl")); err != nil {
		t.Error("broken journal was removed")
	}
}

// TestRecoveredJobsFlowThroughScheduler: on an asynchronous server, resumed
// jobs queue and run under the same concurrency cap as fresh submissions.
func TestRecoveredJobsFlowThroughScheduler(t *testing.T) {
	set := recoverySet()
	ref, err := (&campaign.Engine{Workers: 2}).Run(set)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeInterruptedJournal(t, dir, 1, set, ref.Results, 1)
	writeInterruptedJournal(t, dir, 2, set, ref.Results, 4)

	srv := NewServer()
	srv.Workers = 2
	srv.MaxConcurrent = 1
	srv.JournalDir = dir
	recovered, err := srv.RecoverJobs()
	if err != nil || recovered != 2 {
		t.Fatalf("recovered %d, err %v; want 2, nil", recovered, err)
	}
	srv.Wait()
	srv.mu.Lock()
	peak := srv.peakRunning
	j1, j2 := srv.jobsByID[1], srv.jobsByID[2]
	srv.mu.Unlock()
	if peak != 1 {
		t.Errorf("recovered jobs ran %d-wide, cap is 1", peak)
	}
	want, _ := ref.JSON()
	for id, job := range map[int]*Job{1: j1, 2: j2} {
		if job.Status != StatusDone {
			t.Fatalf("recovered job %d: %+v", id, job)
		}
		if got := docSummaryJSON(t, srv, job); !bytes.Equal(got, want) {
			t.Errorf("recovered job %d summary differs", id)
		}
	}
}
