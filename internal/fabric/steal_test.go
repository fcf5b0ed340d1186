package fabric

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dmafault/internal/campaign"
)

// TestStealRetriesUntilAWorkerIsIdle: the steal check repeats while the
// primary lease runs. Two shards — eight stalls and one — lease onto the
// only two workers, so at the first check every worker is busy. The short
// shard's worker frees up long before the long shard finishes, and a later
// check must hand it the straggler. A single check at StealAfter would find
// no idle worker and never steal.
func TestStealRetriesUntilAWorkerIsIdle(t *testing.T) {
	set := make([]campaign.Scenario, 9)
	for i := range set {
		set[i] = campaign.Scenario{
			Kind: campaign.KindWindowLadder, Seed: int64(4000 + i),
			FaultSpec: "scenario-stall@1",
		}
	}
	eng := campaign.Engine{Workers: 2}
	ref, err := eng.RunCtx(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}

	a, b := newWorker(t), newWorker(t)
	c := New(Config{
		Workers:            []string{a.URL, b.URL},
		ShardSize:          8, // shards [0,8) and [8,9): ~1 s and ~250 ms
		MaxLeasesPerWorker: 1, // one shard per worker: both busy at the first check
		Heartbeat:          25 * time.Millisecond,
		StealAfter:         150 * time.Millisecond,
	})
	sum, err := c.Run(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs under work stealing (%d vs %d bytes)", len(got), len(want))
	}
	if v := c.Metrics().Steals.Value(); v != 1 {
		t.Fatalf("fabric_steals_total = %d, want 1: the straggler was never re-checked", v)
	}
	if v := c.Metrics().ShardsDone.Value(); v != 2 {
		t.Fatalf("fabric_shards_completed_total = %d, want 2", v)
	}
}
