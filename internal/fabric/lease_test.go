package fabric

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmafault/internal/campaign"
)

// stallSet builds scenarios that each hang 250ms wall-clock (the injected
// scenario-stall fault): a shard of them is still running when its lease
// starts waiting, so the lease must follow the job to its end.
func stallSet() []campaign.Scenario {
	set := make([]campaign.Scenario, 4)
	for i := range set {
		set[i] = campaign.Scenario{
			Kind: campaign.KindWindowLadder, Seed: int64(3000 + i),
			FaultSpec: "scenario-stall@1",
		}
	}
	return set
}

// TestLeaseTrafficPerShard pins what one clean lease costs its worker: the
// submission, one event stream followed to the job's terminal status, and
// one fetch of the finished document — however long the job runs. The
// shard is slow on purpose (every scenario stalls), so a lease that polled
// the job document would fetch it more than once; the summary must still
// match a single-node run byte for byte.
func TestLeaseTrafficPerShard(t *testing.T) {
	eng := campaign.Engine{Workers: 2}
	ref, err := eng.RunCtx(context.Background(), stallSet())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}

	ct := &countingTransport{counts: map[string]int{}}
	c := New(Config{
		Workers:   []string{newWorker(t).URL},
		ShardSize: 4, // one shard, one lease
		Heartbeat: 25 * time.Millisecond,
		Transport: ct,
	})
	sum, err := c.Run(context.Background(), stallSet())
	got := summaryOf(t, sum, err)
	if !bytes.Equal(got, want) {
		t.Fatalf("summary of a slow shard differs from single-node run (%d vs %d bytes)", len(got), len(want))
	}
	ct.mu.Lock()
	lease := maps.Clone(ct.counts)
	ct.mu.Unlock()
	delete(lease, "/readyz?lease=1")
	wantLease := map[string]int{
		"/v1/campaigns?":          1, // POST: the submission
		"/v1/campaigns/1/events?": 1,
		"/v1/campaigns/1?":        1,
	}
	if fmt.Sprint(lease) != fmt.Sprint(wantLease) {
		t.Fatalf("one clean lease sent %v, want %v", lease, wantLease)
	}
	m := c.Metrics()
	if m.ShardsDone.Value() != 1 || m.LeasesGranted.Value() != 1 || m.IntegrityRejected.Value() != 0 {
		t.Fatalf("shards done %d, leases %d, integrity rejections %d; want 1/1/0",
			m.ShardsDone.Value(), m.LeasesGranted.Value(), m.IntegrityRejected.Value())
	}
}

// tearingTransport cuts the first n job event streams it carries to their
// first 20 bytes, well before any terminal status event.
type tearingTransport struct {
	left atomic.Int32
}

func (tt *tearingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/events") && tt.left.Add(-1) >= 0 {
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.LimitReader(resp.Body, 20), resp.Body}
	}
	return resp, err
}

// TestTornEventStreamResubscribes: a torn event stream is the network's
// fault, like a torn document. Below the lease's torn budget the lease
// resubscribes and delivers, every tear counted; at the budget the lease
// fails as an integrity rejection and the range re-leases to the other
// worker, which delivers.
func TestTornEventStreamResubscribes(t *testing.T) {
	want := chaosReferenceJSON(t)
	urls := []string{newWorker(t).URL, newWorker(t).URL}
	for _, tc := range []struct {
		torn     int
		releases uint64
	}{
		{tornBudget - 1, 0},
		{tornBudget, 1},
	} {
		t.Run(fmt.Sprintf("torn=%d", tc.torn), func(t *testing.T) {
			tt := &tearingTransport{}
			tt.left.Store(int32(tc.torn))
			var logs bytes.Buffer
			c := New(Config{
				Workers:   urls,
				ShardSize: len(chaosSet()), // one shard
				Heartbeat: 25 * time.Millisecond,
				Transport: tt,
				Log:       slog.New(slog.NewTextHandler(&logs, nil)),
			})
			sum, err := c.Run(context.Background(), chaosSet())
			got := summaryOf(t, sum, err)
			if !bytes.Equal(got, want) {
				t.Fatalf("summary differs after %d torn streams", tc.torn)
			}
			m := c.Metrics()
			if v := m.IntegrityRejected.Value(); v != uint64(tc.torn) {
				t.Fatalf("fabric_integrity_rejected_total = %d, want %d", v, tc.torn)
			}
			if v := m.Releases.Value(); v != tc.releases {
				t.Fatalf("fabric_releases_total = %d, want %d", v, tc.releases)
			}
			if v := m.LocalFallback.Value(); v != 0 {
				t.Fatalf("local fallback fired %d times", v)
			}
			expired := strings.Contains(logs.String(), "fabric lease expired")
			if tc.releases == 0 {
				if expired {
					t.Fatalf("a lease expired below the torn budget:\n%s", logs.String())
				}
				return
			}
			if !expired || !strings.Contains(logs.String(), errIntegrity.Error()) {
				t.Fatalf("the lease did not fail as an integrity rejection:\n%s", logs.String())
			}
			// The re-lease skipped the worker whose lease failed.
			var delivered []int
			for _, w := range c.Registry().Fleet().Workers {
				delivered = append(delivered, w.Delivered)
			}
			if fmt.Sprint(delivered) != "[0 1]" && fmt.Sprint(delivered) != "[1 0]" {
				t.Fatalf("deliveries per worker %v, want one worker to deliver once", delivered)
			}
		})
	}
}
