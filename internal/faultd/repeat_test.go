package faultd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"dmafault/internal/campaign"
	"dmafault/internal/resultstore"
)

// panicScenario is a spec whose runs always panic (deterministically).
func panicScenario() campaign.Scenario {
	return campaign.Scenario{Kind: campaign.KindWindowLadder, Seed: 41, FaultSpec: "scenario-panic@1"}
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

// TestRepeatSubmissionByteIdentical: a job's summary is a pure function of
// its scenario set. Submitting one set that panics, runs clean and blows its
// deadline five times over yields the single-node engine's bytes every
// time, with and without a shared result cache — no history carried from
// earlier jobs changes what a later one records.
func TestRepeatSubmissionByteIdentical(t *testing.T) {
	set := []campaign.Scenario{
		panicScenario(),
		{Kind: campaign.KindWindowLadder, Seed: 42},
		{Kind: campaign.KindWindowLadder, Seed: 43, FaultSpec: "scenario-stall@1", TimeoutMS: 20},
	}
	ref, err := campaign.Engine{}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Panics != 1 || ref.Timeouts != 1 {
		t.Fatalf("reference run: %d panics, %d timeouts, want 1 and 1", ref.Panics, ref.Timeouts)
	}
	want, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	body := submitBody(t, Request{Workers: 2, Scenarios: set})
	for _, cached := range []bool{false, true} {
		srv := NewServer()
		srv.Workers = 2
		if cached {
			store, err := resultstore.Open(filepath.Join(t.TempDir(), "results.bin"))
			if err != nil {
				t.Fatal(err)
			}
			srv.Cache = store
		}
		ts := httptest.NewServer(srv.Handler())
		for run := 1; run <= 5; run++ {
			job := submitAndFetch(t, ts, body)
			if job.Status != StatusDone {
				t.Fatalf("cache=%v run %d: job ended %q: %s", cached, run, job.Status, job.Error)
			}
			got, err := job.Summary.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cache=%v run %d: summary differs from the single-node run:\n%s\nvs\n%s",
					cached, run, got, want)
			}
		}
		ts.Close()
		srv.Wait()
		if srv.Cache != nil {
			srv.Cache.Close()
		}
	}
}
