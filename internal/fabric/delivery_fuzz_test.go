package fabric

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
)

// FuzzDelivery: a lease's terminal job document is bytes from a remote
// worker, so verifyShard must not panic on anything they decode to, and
// every rejection must be an integrity rejection. A delivery it accepts
// carries one result per shard position with the leased identities, and a
// stamp equal to HashResults over those results; an unstamped one is
// rejected.
func FuzzDelivery(f *testing.F) {
	c, set, sh, good := deliveryFixture(f)
	sum := good.Summary
	unstamped := good
	unstamped.ResultsHash = ""
	short := good
	short.Summary = &campaign.Summary{Results: sum.Results[:1]}
	for _, job := range []api.Job{good, unstamped, short} {
		b, err := json.Marshal(&job)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	golden, err := os.ReadFile("../campaign/testdata/summary.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(`{"id":1,"status":"done","summary":`), golden...), '}'))
	f.Add([]byte(`{"status":"done","summary":{"results":[null,null]}}`))
	f.Add([]byte(`{"status":"done","results_sha256":"8a4f"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var job api.Job
		if json.Unmarshal(data, &job) != nil {
			return
		}
		if err := c.verifyShard(sh, job.ID, &job); err != nil {
			if !errors.Is(err, errIntegrity) {
				t.Fatalf("rejection is not an integrity rejection: %v", err)
			}
			return
		}
		res := job.Summary.Results
		if len(res) != sh.End-sh.Start {
			t.Fatalf("accepted %d results for a %d-scenario shard", len(res), sh.End-sh.Start)
		}
		for i, r := range res {
			sc := set[sh.Start+i]
			if r.ID != sc.ID || r.Kind != sc.Kind || r.Seed != sc.Seed {
				t.Fatalf("accepted result %d as %s/%s/%d, leased %s/%s/%d", i, r.ID, r.Kind, r.Seed, sc.ID, sc.Kind, sc.Seed)
			}
		}
		if api.HashResults(res) != job.ResultsHash {
			t.Fatalf("accepted a delivery whose results do not hash to its stamp")
		}
	})
}

// deliveryFixture is a coordinator leasing a 4-scenario ladder set, its
// shard [1,3), and the honest done document for that shard.
func deliveryFixture(tb testing.TB) (*Coordinator, []campaign.Scenario, shard, api.Job) {
	tb.Helper()
	set, err := campaign.NormalizeSet(campaign.LadderPreset(4, 2021))
	if err != nil {
		tb.Fatal(err)
	}
	sh := shard{Idx: 1, Start: 1, End: 3}
	sum, err := campaign.Engine{Workers: 1}.Run(set[sh.Start:sh.End])
	if err != nil {
		tb.Fatal(err)
	}
	c := New(Config{})
	c.scs = set
	good := api.Job{ID: 7, Status: api.StatusDone, ScenariosTotal: 2, ScenariosDone: 2,
		Summary: sum, ResultsHash: api.HashResults(sum.Results)}
	if err := c.verifyShard(sh, good.ID, &good); err != nil {
		tb.Fatalf("the honest delivery is rejected: %v", err)
	}
	return c, set, sh, good
}

// TestUnstampedDeliveryRejected: a done document without results_sha256
// cannot skip the digest. With the stamp stripped, a result whose identity
// is right but whose escalations are forged must not verify.
func TestUnstampedDeliveryRejected(t *testing.T) {
	c, _, sh, good := deliveryFixture(t)
	forged := *good.Summary.Results[0]
	forged.Escalations = 99
	job := good
	job.ResultsHash = ""
	job.Summary = &campaign.Summary{Results: []*campaign.Result{&forged, good.Summary.Results[1]}}
	if err := c.verifyShard(sh, job.ID, &job); !errors.Is(err, errIntegrity) {
		t.Fatalf("unstamped forged delivery: err = %v, want an integrity rejection", err)
	}
}
