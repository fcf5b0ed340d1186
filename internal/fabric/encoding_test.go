package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
)

// plainResult is campaign.Result without methods: json.Marshal of it is the
// reflection encoding a result's held bytes must equal.
type plainResult campaign.Result

// checkHeld fails unless r holds an encoding equal to the reflection
// encoding of its fields.
func checkHeld(t *testing.T, r *campaign.Result) {
	t.Helper()
	head, rest, err := r.JSONParts(nil)
	if err != nil || rest == nil {
		t.Fatalf("%s holds no encoding (err %v)", r.ID, err)
	}
	want, err := json.Marshal((*plainResult)(r))
	if err != nil {
		t.Fatal(err)
	}
	if got := append(head, rest...); !bytes.Equal(got, want) {
		t.Fatalf("%s held bytes differ from reflection:\n%.300s\n---\n%.300s", r.ID, got, want)
	}
}

// TestDeliveredResultsHoldTheirEncoding: every result a coordinator takes
// from a worker holds the coordinator's own encoding of it, equal to the
// reflection encoding, and the merged summary is the local engine's.
func TestDeliveredResultsHoldTheirEncoding(t *testing.T) {
	want := referenceJSON(t)
	var mu sync.Mutex
	var got []*campaign.Result
	c := New(Config{
		Workers:   []string{newWorker(t).URL, newWorker(t).URL},
		ShardSize: 4,
		Heartbeat: 25 * time.Millisecond,
		OnResult: func(_ int, r *campaign.Result) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
		},
	})
	sum, err := c.Run(context.Background(), testSet())
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics().LocalFallback.Value() != 0 || len(got) != len(testSet()) {
		t.Fatalf("%d deliveries, %v local fallbacks", len(got), c.Metrics().LocalFallback.Value())
	}
	for _, r := range got {
		checkHeld(t, r)
	}
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, want) {
		t.Fatal("fabric summary differs from the local engine's")
	}
}

// TestReformattedDeliveryMergesIdentically: the coordinator encodes what it
// decoded, never adopting the worker's bytes, so a delivery whose JSON
// differs only in whitespace and key order verifies, and merges to the
// same summary bytes as the compact original.
func TestReformattedDeliveryMergesIdentically(t *testing.T) {
	c, _, sh, good := deliveryFixture(t)
	compact, err := json.Marshal(&good)
	if err != nil {
		t.Fatal(err)
	}
	// Keys sorted at every level (a map re-encodes them in order) and
	// indented; numbers kept as written.
	dec := json.NewDecoder(bytes.NewReader(compact))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.MarshalIndent(tree, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sorted, compact) || !bytes.Contains(sorted, []byte("\"escalations\": 0,\n")) {
		t.Fatalf("reformatting left the document as it was:\n%.300s", sorted)
	}
	want, err := campaign.Aggregate(good.Summary.Results).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var job api.Job
	if err := json.Unmarshal(sorted, &job); err != nil {
		t.Fatal(err)
	}
	if err := c.verifyShard(sh, job.ID, &job); err != nil {
		t.Fatalf("reformatted delivery rejected: %v", err)
	}
	for _, r := range job.Summary.Results {
		checkHeld(t, r)
	}
	got, err := campaign.Aggregate(job.Summary.Results).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reformatted delivery merges to different summary bytes")
	}
}
