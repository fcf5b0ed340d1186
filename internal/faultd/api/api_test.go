package api

import (
	"encoding/json"
	"testing"

	"dmafault/internal/campaign"
	"dmafault/internal/resultstore"
)

// The wire formats are a contract: these goldens pin the exact JSON each
// type marshals to, so a field rename or tag change fails loudly here
// before it breaks a deployed client.
func TestWireFormatGoldens(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{
			"submit_preset",
			SubmitRequest{Name: "smoke", Workers: 2, Preset: "ladder", N: 4, Seed: 2021},
			`{"name":"smoke","workers":2,"preset":"ladder","n":4,"seed":2021}`,
		},
		{
			"submit_fuzz",
			SubmitRequest{Seed: 7, Fuzz: &FuzzSpec{Attempts: 64, Batch: 16, Minimize: -1}},
			`{"seed":7,"fuzz":{"attempts":64,"batch":16,"minimize":-1}}`,
		},
		{
			"submit_scenarios",
			SubmitRequest{Scenarios: []campaign.Scenario{
				{Kind: campaign.KindWindowLadder, Seed: 7, Driver: "correct", Mode: "strict"},
			}},
			`{"scenarios":[{"kind":"window-ladder","seed":7,"mode":"strict","driver":"correct"}]}`,
		},
		{
			"submit_response",
			SubmitResponse{ID: 1, URL: "/v1/campaigns/1", ScenariosTotal: 4},
			`{"id":1,"url":"/v1/campaigns/1","scenarios_total":4}`,
		},
		{
			"job_running",
			Job{ID: 3, Name: "soak", Status: StatusRunning, ScenariosTotal: 8, ScenariosDone: 5, CacheHits: 2},
			`{"id":3,"name":"soak","status":"running","scenarios_total":8,"scenarios_done":5,"cache_hits":2}`,
		},
		{
			"job_failed",
			Job{ID: 4, Status: StatusFailed, ScenariosTotal: 1, Error: "boom"},
			`{"id":4,"status":"failed","scenarios_total":1,"scenarios_done":0,"error":"boom"}`,
		},
		{
			"job_done_hash",
			Job{ID: 5, Status: StatusDone, ScenariosTotal: 2, ScenariosDone: 2,
				ResultsHash: "8a4f"},
			`{"id":5,"status":"done","scenarios_total":2,"scenarios_done":2,"results_sha256":"8a4f"}`,
		},
		{
			"job_done_timing",
			Job{ID: 6, Status: StatusDone, ScenariosTotal: 4, ScenariosDone: 4,
				Timing: &Timing{QueueWaitSeconds: 0.25, ExecuteSeconds: 1.5,
					PublishSeconds: 0.003, Attempts: 5},
				ResultsHash: "8a4f"},
			`{"id":6,"status":"done","scenarios_total":4,"scenarios_done":4,` +
				`"timing":{"queue_wait_seconds":0.25,"execute_seconds":1.5,` +
				`"publish_seconds":0.003,"attempts":5},"results_sha256":"8a4f"}`,
		},
		{
			"job_list",
			JobList{Jobs: []Job{}},
			`{"jobs":[]}`,
		},
		{
			"cancel_response",
			CancelResponse{ID: 2, Status: "cancelling"},
			`{"id":2,"status":"cancelling"}`,
		},
		{
			"cache_stats_disabled",
			CacheStats{},
			`{"enabled":false,"path":"","records":0,"stale_records":0,"superseded_records":0,"bytes":0,"hits":0,"misses":0,"stores":0,"hit_rate":0}`,
		},
		{
			"cache_stats_enabled",
			CacheStats{
				Enabled: true,
				Stats: resultstore.Stats{
					Path: "/var/cache/results.bin", Records: 4, Bytes: 2048,
					Hits: 4, Misses: 4, Stores: 4,
				},
				HitRate: 0.5,
			},
			`{"enabled":true,"path":"/var/cache/results.bin","records":4,"stale_records":0,"superseded_records":0,"bytes":2048,"hits":4,"misses":4,"stores":4,"hit_rate":0.5}`,
		},
		{
			"clear_cache_response",
			ClearCacheResponse{Cleared: true, RecordsDropped: 4},
			`{"cleared":true,"records_dropped":4}`,
		},
		{
			"fleet_worker",
			FleetWorker{URL: "http://w1:8077", Up: true, Static: true, Leases: 2,
				Delivered: 3, Scenarios: 12, CacheHits: 4,
				PhaseTotals:      PhaseSeconds{QueueWait: 0.5, Execute: 6, Publish: 0.01},
				EWMAShardSeconds: 2, EWMAScenariosPerSec: 2.5, Ready: true},
			`{"url":"http://w1:8077","up":true,"static":true,"leases":2,` +
				`"delivered_shards":3,"delivered_scenarios":12,"cache_hits":4,` +
				`"phase_totals":{"queue_wait_seconds":0.5,"execute_seconds":6,` +
				`"publish_seconds":0.01},"ewma_shard_seconds":2,` +
				`"ewma_scenarios_per_sec":2.5,"ready":true}`,
		},
		{
			"fleet_worker_degraded",
			FleetWorker{URL: "http://w2:8077", Stale: true},
			`{"url":"http://w2:8077","up":false,"leases":0,` +
				`"delivered_shards":0,"delivered_scenarios":0,` +
				`"phase_totals":{"queue_wait_seconds":0,"execute_seconds":0,` +
				`"publish_seconds":0},"ewma_shard_seconds":0,` +
				`"ewma_scenarios_per_sec":0,"ready":false,"stale":true}`,
		},
		{
			"fleet_snapshot_campaign",
			FleetSnapshot{Workers: []FleetWorker{},
				Campaign: &FleetCampaign{ScenariosTotal: 16, ScenariosDone: 8,
					ShardsTotal: 4, ShardsDone: 2}},
			`{"workers":[],"campaign":{"scenarios_total":16,"scenarios_done":8,` +
				`"shards_total":4,"shards_done":2}}`,
		},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s wire format drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// HashResults must survive a wire round trip: marshal the results, decode
// them back, recompute — same digest. This is the property the fabric's
// integrity verification stands on; if canonical-JSON round-tripping ever
// stops being byte-exact, this fails before the fabric starts rejecting
// every honest delivery.
func TestHashResultsRoundTrip(t *testing.T) {
	results := []*campaign.Result{
		{ID: "ladder-0", Kind: campaign.KindWindowLadder, Seed: 2021, Success: true,
			WindowPath: "P1", Metrics: map[string]string{"rate": "0.125", "mode": "deferred"},
			VirtualNanos: 123456789},
		{ID: "ladder-1", Kind: campaign.KindWindowLadder, Seed: 2022, Escalations: 3,
			Err: "boom", Retries: 1},
	}
	want := HashResults(results)
	if len(want) != 64 {
		t.Fatalf("digest %q is not sha256 hex", want)
	}
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []*campaign.Result
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if got := HashResults(decoded); got != want {
		t.Fatalf("round-tripped digest drifted: %s vs %s", got, want)
	}
	decoded[1].Seed++
	if HashResults(decoded) == want {
		t.Fatal("digest blind to a mutated result")
	}
}

// Terminal is the client's poll-loop exit condition; pin it per status.
func TestJobStatusTerminal(t *testing.T) {
	for st, want := range map[JobStatus]bool{
		StatusQueued:    false,
		StatusRunning:   false,
		StatusDone:      true,
		StatusFailed:    true,
		StatusCancelled: true,
		StatusStalled:   true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, st.Terminal(), want)
		}
	}
}
