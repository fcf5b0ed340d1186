package faultd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/obs"
)

// Flight-recorder dump coverage: each supervisor trigger — stall, panic,
// quarantine trip, and shutdown (the SIGTERM path drives Drain) — must ship
// the recorder's retained window to the journal directory as a parseable
// JSONL file whose trigger event is recorded inside it.

// readDump loads and decodes one dump file, asserting the self-labelling
// flight-dump event is present with the expected trigger message.
func readDump(t *testing.T, path, trigger string) []obs.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("dump for trigger %q missing: %v", trigger, err)
	}
	defer f.Close()
	recs, err := obs.ReadRecordsJSONL(f)
	if err != nil {
		t.Fatalf("dump %s unparseable: %v", path, err)
	}
	for _, r := range recs {
		if r.Kind == obs.RecordEvent && r.Name == "flight-dump" && r.Msg == trigger {
			return recs
		}
	}
	t.Fatalf("dump %s carries no flight-dump event for trigger %q (%d records)", path, trigger, len(recs))
	return nil
}

func TestFlightDumpOnStall(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer()
	srv.JournalDir = dir
	srv.Recorder = obs.NewRecorder(0)
	srv.StallTimeout = 60 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(2)); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	if job := pollJob(t, ts.URL+"/v1/campaigns/1"); job.Status != StatusStalled {
		t.Fatalf("job ended %q, want stalled", job.Status)
	}
	srv.Wait()
	recs := readDump(t, filepath.Join(dir, "flight-stall-job-1.jsonl"), "stall")
	// The window also retains the spans and events leading up to the stall.
	var spans int
	for _, r := range recs {
		if r.Kind == obs.RecordSpan {
			spans++
		}
	}
	if spans == 0 {
		t.Error("stall dump retained no spans")
	}
}

func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer()
	srv.Synchronous = true
	srv.JournalDir = dir
	srv.Recorder = obs.NewRecorder(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job := submitAndFetch(t, ts, submitBody(t, Request{Workers: 1,
		Scenarios: []campaign.Scenario{panicScenario(), {Kind: panicScenario().Kind, Seed: 99}}}))
	if job.Status != StatusDone {
		t.Fatalf("panic job ended %q (a panicking scenario is a recorded result, not a job failure)", job.Status)
	}
	readDump(t, filepath.Join(dir, "flight-panic-job-1.jsonl"), "panic")
}

func TestFlightDumpOnQuarantineTrip(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer()
	srv.Synchronous = true
	srv.JournalDir = dir
	srv.Recorder = obs.NewRecorder(0)
	srv.QuarantineThreshold = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if job := submitAndFetch(t, ts, submitBody(t, Request{Workers: 1,
		Scenarios: []campaign.Scenario{panicScenario()}})); job.Status != StatusDone {
		t.Fatalf("trip job ended %q", job.Status)
	}
	readDump(t, filepath.Join(dir, "flight-quarantine-job-1.jsonl"), "quarantine")
}

func TestFlightDumpOnShutdown(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer()
	srv.JournalDir = dir
	srv.Recorder = obs.NewRecorder(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	readDump(t, filepath.Join(dir, "flight-shutdown.jsonl"), "shutdown")
}

// TestFlightDumpAbsentWithoutRecorder: triggers fire but ship nothing when
// no recorder is attached — the dump path must stay nil-safe and silent.
func TestFlightDumpAbsentWithoutRecorder(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer()
	srv.JournalDir = dir
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "flight-shutdown.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("dump shipped without a recorder (err=%v)", err)
	}
}
