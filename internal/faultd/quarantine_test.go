package faultd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dmafault/internal/campaign"
)

// panicScenario is a spec whose runs always panic (deterministically), the
// breaker's canonical customer.
func panicScenario() campaign.Scenario {
	return campaign.Scenario{Kind: campaign.KindWindowLadder, Seed: 41, FaultSpec: "scenario-panic@1"}
}

// quarantineServer builds a server with the breaker configured tightly
// enough to exercise every state in a handful of jobs.
func quarantineServer(threshold, probeAfter int) (*Server, *httptest.Server) {
	srv := NewServer()
	srv.Workers = 2
	srv.QuarantineThreshold = threshold
	srv.QuarantineProbeAfter = probeAfter
	return srv, httptest.NewServer(srv.Handler())
}

// submitAndFetch posts one job and waits for its final state, so jobs run
// one at a time in submission order.
func submitAndFetch(t *testing.T, ts *httptest.Server, body string) Job {
	t.Helper()
	code, resp := post(t, ts.URL+"/v1/campaigns", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var acc struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(resp, &acc); err != nil {
		t.Fatal(err)
	}
	return pollJob(t, ts.URL+"/v1/campaigns/"+strconv.Itoa(acc.ID))
}

// TestQuarantineTripsAndProbes walks the breaker through its whole
// lifecycle over the HTTP API: accumulate failures, trip, short-circuit,
// half-open probe, re-arm on a failing probe.
func TestQuarantineTripsAndProbes(t *testing.T) {
	srv, ts := quarantineServer(2, 1)
	defer ts.Close()

	set := []campaign.Scenario{panicScenario(), {Kind: campaign.KindWindowLadder, Seed: 42}}
	body := submitBody(t, Request{Workers: 2, Scenarios: set})

	// Jobs 1 and 2: the panic scenario executes and fails; the second
	// failure reaches the threshold and trips the breaker.
	for i := 1; i <= 2; i++ {
		job := submitAndFetch(t, ts, body)
		if job.Status != StatusDone || job.Summary.Panics != 1 || job.Summary.Quarantined != 0 {
			t.Fatalf("job %d: %+v", i, job.Summary)
		}
	}

	// Job 3: tripped and within the probe wait — the scenario
	// short-circuits to a recorded quarantined result; the clean sibling
	// still executes.
	job3 := submitAndFetch(t, ts, body)
	if job3.Summary.Quarantined != 1 || job3.Summary.Panics != 0 {
		t.Fatalf("job 3: %+v", job3.Summary)
	}
	if out := job3.Summary.Results[0].Outcome; out != campaign.OutcomeQuarantined {
		t.Fatalf("job 3 result[0] outcome %q", out)
	}
	if job3.Summary.Results[1].Outcome == campaign.OutcomeQuarantined {
		t.Fatal("clean sibling was quarantined too")
	}

	// Job 4: the probe wait (1 job) has elapsed — half-open lets the
	// scenario run once; it panics again, re-arming the wait.
	job4 := submitAndFetch(t, ts, body)
	if job4.Summary.Panics != 1 || job4.Summary.Quarantined != 0 {
		t.Fatalf("job 4 (probe): %+v", job4.Summary)
	}

	// Job 5: back to short-circuiting.
	job5 := submitAndFetch(t, ts, body)
	if job5.Summary.Quarantined != 1 {
		t.Fatalf("job 5: %+v", job5.Summary)
	}

	_, text := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"faultd_quarantine_trips_total 1",
		"faultd_quarantine_probes_total 1",
		"faultd_scenarios_quarantined_total 2",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q:\n%s", want, grepFaultd(text))
		}
	}
	srv.Wait()
}

// TestQuarantineDecisionsDeterministicAcrossWorkerCounts: once tripped, the
// same job submitted at different engine widths quarantines the same
// scenarios and produces byte-identical summaries.
func TestQuarantineDecisionsDeterministicAcrossWorkerCounts(t *testing.T) {
	// A long probe wait keeps the breaker tripped for the whole test.
	srv, ts := quarantineServer(2, 50)
	defer ts.Close()

	set := []campaign.Scenario{
		{Kind: campaign.KindWindowLadder, Seed: 60},
		panicScenario(),
		{Kind: campaign.KindWindowLadder, Seed: 61},
		{Kind: campaign.KindWindowLadder, Seed: 62},
	}
	for i := 0; i < 2; i++ { // trip the breaker
		submitAndFetch(t, ts, submitBody(t, Request{Workers: 2, Scenarios: set}))
	}

	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		job := submitAndFetch(t, ts, submitBody(t, Request{Workers: workers, Scenarios: set}))
		if job.Summary.Quarantined != 1 {
			t.Fatalf("workers=%d: %+v", workers, job.Summary)
		}
		got, err := job.Summary.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: quarantined summary differs from workers=1", workers)
		}
	}
	srv.Wait()
}

// TestQuarantineBreakerUnit drives the breaker struct directly through the
// transitions the HTTP tests cannot reach deterministically — most
// importantly a clean probe healing the breaker entirely.
func TestQuarantineBreakerUnit(t *testing.T) {
	q := newQuarantine(2, 1)
	keys := []string{"kA", "kB"}
	fail := &campaign.Result{Outcome: campaign.OutcomePanic}
	clean := &campaign.Result{}

	// Two failing jobs trip kA; kB stays clean.
	for i := 0; i < 2; i++ {
		adm, probes := q.admit(keys)
		if len(adm.blocked) != 0 || probes != 0 {
			t.Fatalf("job %d admitted with verdicts: %+v", i, adm)
		}
		trips := q.report(adm, keys, []*campaign.Result{fail, clean})
		if want := i; trips != want { // second report trips
			t.Fatalf("job %d: %d trips, want %d", i, trips, want)
		}
	}

	// Next job: blocked, sits out the probe wait.
	adm, probes := q.admit(keys)
	if !adm.blocked["kA"] || adm.blocked["kB"] || probes != 0 {
		t.Fatalf("tripped admit: %+v", adm)
	}
	// Quarantined outcomes must not feed back as failures.
	q.report(adm, keys, []*campaign.Result{{Outcome: campaign.OutcomeQuarantined}, clean})

	// Probe wait elapsed: half-open admits one probe.
	adm, probes = q.admit(keys)
	if !adm.probes["kA"] || len(adm.blocked) != 0 || probes != 1 {
		t.Fatalf("half-open admit: %+v probes=%d", adm, probes)
	}
	// While the probe is in flight, a concurrent job is still blocked (no
	// double probes).
	adm2, probes2 := q.admit(keys)
	if !adm2.blocked["kA"] || probes2 != 0 {
		t.Fatalf("concurrent admit during probe: %+v", adm2)
	}
	q.report(adm2, keys, []*campaign.Result{{Outcome: campaign.OutcomeQuarantined}, clean})

	// The probe comes back clean: the breaker resets completely.
	q.report(adm, keys, []*campaign.Result{clean, clean})
	adm, probes = q.admit(keys)
	if len(adm.blocked) != 0 || probes != 0 {
		t.Fatalf("healed breaker still blocking: %+v", adm)
	}
	// Healing cleared the failure history too: one new failure does not
	// re-trip a threshold-2 breaker.
	if trips := q.report(adm, keys, []*campaign.Result{fail, clean}); trips != 0 {
		t.Fatal("healed breaker tripped on a single failure")
	}
}

// TestQuarantineAbortReleasesProbe: a probe job that dies without results
// (cancelled, stalled) frees the half-open slot instead of wedging it.
func TestQuarantineAbortReleasesProbe(t *testing.T) {
	q := newQuarantine(1, 1)
	keys := []string{"kA"}
	fail := &campaign.Result{Outcome: campaign.OutcomeTimeout}

	adm, _ := q.admit(keys)
	q.report(adm, keys, []*campaign.Result{fail}) // trip
	q.admit(keys)                                 // sits out the wait
	adm, probes := q.admit(keys)
	if probes != 1 {
		t.Fatalf("expected a probe admission, got %+v", adm)
	}
	q.abort(adm) // probe job cancelled mid-flight

	// The slot is free again: the very next job gets the probe.
	_, probes = q.admit(keys)
	if probes != 1 {
		t.Fatal("aborted probe wedged the half-open slot")
	}
}
