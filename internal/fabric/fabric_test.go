package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd"
	"dmafault/internal/recordlog"
)

// testSet is the campaign every fabric test distributes: big enough to span
// several shards, fast enough to run in milliseconds.
func testSet() []campaign.Scenario { return campaign.LadderPreset(16, 2021) }

// referenceJSON runs the set through the plain local engine — the bytes every
// fabric topology must reproduce exactly.
func referenceJSON(t *testing.T) []byte {
	t.Helper()
	eng := campaign.Engine{Workers: 2}
	sum, err := eng.RunCtx(context.Background(), testSet())
	if err != nil {
		t.Fatal(err)
	}
	data, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newWorker boots an in-process dmafaultd worker node.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := faultd.NewServer()
	srv.Workers = 2
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestByteIdenticalAcrossWorkerCounts is the tentpole acceptance test: the
// merged summary must not change by a byte whether the campaign runs on one,
// two, or four workers.
func TestByteIdenticalAcrossWorkerCounts(t *testing.T) {
	want := referenceJSON(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			urls := make([]string, n)
			for i := range urls {
				urls[i] = newWorker(t).URL
			}
			c := New(Config{Workers: urls, ShardSize: 4, Heartbeat: 25 * time.Millisecond})
			sum, err := c.Run(context.Background(), testSet())
			if err != nil {
				t.Fatal(err)
			}
			got, err := sum.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("summary differs from single-node run (%d vs %d bytes)", len(got), len(want))
			}
			if v := c.Metrics().LeasesGranted.Value(); v == 0 {
				t.Fatal("no leases granted — campaign did not use the fabric")
			}
			if v := c.Metrics().LocalFallback.Value(); v != 0 {
				t.Fatalf("local fallback fired %d times with %d live workers", v, n)
			}
		})
	}
}

// TestDeadWorkerRelease hands shards to a worker that answers readiness
// probes but black-holes job submissions: its leases must expire at the TTL
// and be re-leased (fabric_releases_total > 0) without changing the summary.
func TestDeadWorkerRelease(t *testing.T) {
	want := referenceJSON(t)
	live := newWorker(t)
	stop := make(chan struct{})
	blackhole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ready")
			return
		}
		// Swallow everything else until the lease dies. The stop channel
		// matters: an unread POST body keeps r.Context alive past the
		// client's cancel, and Server.Close waits on handlers.
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(blackhole.Close)
	t.Cleanup(func() { close(stop) }) // LIFO: unblock handlers before Close waits

	c := New(Config{
		Workers:   []string{live.URL, blackhole.URL},
		ShardSize: 4,
		Heartbeat: 25 * time.Millisecond,
		LeaseTTL:  300 * time.Millisecond,
	})
	sum, err := c.Run(context.Background(), testSet())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs from single-node run (%d vs %d bytes)", len(got), len(want))
	}
	if v := c.Metrics().Releases.Value(); v == 0 {
		t.Fatal("fabric_releases_total = 0: black-holed leases were never re-leased")
	}
	if v := c.Metrics().LeasesExpired.Value(); v == 0 {
		t.Fatal("fabric_leases_expired_total = 0")
	}
}

// TestZeroWorkersLocalFallback: a coordinator with no workers at all degrades
// to plain local execution and still produces the single-node bytes.
func TestZeroWorkersLocalFallback(t *testing.T) {
	want := referenceJSON(t)
	c := New(Config{ShardSize: 4})
	sum, err := c.Run(context.Background(), testSet())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs from single-node run")
	}
	if v := c.Metrics().LocalFallback.Value(); v == 0 {
		t.Fatal("fabric_local_fallback_total = 0 with an empty registry")
	}
	if v := c.Metrics().LeasesGranted.Value(); v != 0 {
		t.Fatalf("%d leases granted with no workers", v)
	}
}

// TestResumeAfterCoordinatorDeath kills a campaign partway (context cancel —
// the orderly stand-in for kill -9, which the fabric soak covers for real)
// and resumes it from the journal: already-delivered results must not
// re-execute and the final summary must match the uninterrupted bytes.
func TestResumeAfterCoordinatorDeath(t *testing.T) {
	want := referenceJSON(t)
	journal := filepath.Join(t.TempDir(), "state.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	var delivered atomic.Int32
	c1 := New(Config{
		ShardSize:   4,
		JournalPath: journal,
		OnResult: func(int, *campaign.Result) {
			if delivered.Add(1) == 5 {
				cancel() // die mid-campaign with >1 shard outstanding
			}
		},
	})
	if _, err := c1.Run(ctx, testSet()); err == nil {
		t.Fatal("cancelled run unexpectedly succeeded")
	}

	restored, err := campaign.LoadJournal(journal, testSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) == 0 {
		t.Fatal("nothing journaled before the kill")
	}

	var reExecuted atomic.Int32
	c2 := New(Config{
		ShardSize:   4,
		JournalPath: journal,
		Resume:      true,
		OnResult:    func(int, *campaign.Result) { reExecuted.Add(1) },
	})
	sum, err := c2.Run(context.Background(), testSet())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed summary differs from single-node run")
	}
	if int(reExecuted.Load())+len(restored) != len(testSet()) {
		t.Fatalf("re-executed %d with %d restored, want %d total",
			reExecuted.Load(), len(restored), len(testSet()))
	}
	if v := c2.Metrics().DedupDropped.Value(); v != 0 {
		t.Fatalf("restored results hit the dedup gate %d times", v)
	}
}

// summaryOf renders a finished run's summary JSON.
func summaryOf(t *testing.T, sum *campaign.Summary, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	data, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restoredGuard counts the results a resumed run delivers, and how many of
// them belong to scenarios the journal had already restored.
type restoredGuard struct {
	restored         map[int]*campaign.Result
	delivered, rerun atomic.Int32
}

func (g *restoredGuard) onResult(i int, _ *campaign.Result) {
	g.delivered.Add(1)
	if g.restored[i] != nil {
		g.rerun.Add(1)
	}
}

func (g *restoredGuard) check(t *testing.T) {
	t.Helper()
	if g.rerun.Load() != 0 {
		t.Fatalf("%d restored scenarios executed again", g.rerun.Load())
	}
	if int(g.delivered.Load())+len(g.restored) != len(testSet()) {
		t.Fatalf("delivered %d with %d restored, want %d total",
			g.delivered.Load(), len(g.restored), len(testSet()))
	}
}

// TestFabricJournalFinishesOnOneNode: a fabric campaign killed partway leaves
// an ordinary campaign journal, lease records and all, which the plain
// single-node engine finishes with the uninterrupted bytes.
func TestFabricJournalFinishesOnOneNode(t *testing.T) {
	want := referenceJSON(t)
	journal := filepath.Join(t.TempDir(), "run.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	var delivered atomic.Int32
	c := New(Config{
		Workers:     []string{newWorker(t).URL},
		ShardSize:   4,
		Heartbeat:   25 * time.Millisecond,
		JournalPath: journal,
		OnResult: func(int, *campaign.Result) {
			if delivered.Add(1) == 5 {
				cancel()
			}
		},
	})
	if _, err := c.Run(ctx, testSet()); err == nil {
		t.Fatal("cancelled run unexpectedly succeeded")
	}
	st, err := campaign.ScanJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if st.Granted == 0 || st.ShardSize != 4 {
		t.Fatalf("journal holds %d lease grants at shard size %d, want some at 4", st.Granted, st.ShardSize)
	}

	restored, err := campaign.LoadJournal(journal, testSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) == 0 || len(restored) == len(testSet()) {
		t.Fatalf("restored %d of %d, want a partial campaign", len(restored), len(testSet()))
	}
	g := &restoredGuard{restored: restored}
	eng := campaign.Engine{Workers: 2, Completed: restored, OnResult: g.onResult}
	sum, err := eng.Run(testSet())
	if got := summaryOf(t, sum, err); !bytes.Equal(got, want) {
		t.Fatalf("single-node finish differs from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	g.check(t)
}

// TestSingleNodeJournalFinishesOnCoordinator: the reverse — a single-node
// journal, which records no shard size, is finished by a resumed coordinator
// with the uninterrupted bytes.
func TestSingleNodeJournalFinishesOnCoordinator(t *testing.T) {
	want := referenceJSON(t)
	journal := filepath.Join(t.TempDir(), "run.jsonl")

	j, err := campaign.OpenJournal(journal, testSet(), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	eng := campaign.Engine{Workers: 2, Journal: j, OnResult: func(int, *campaign.Result) {
		if done.Add(1) == 5 {
			cancel()
		}
	}}
	if _, err := eng.RunCtx(ctx, testSet()); err == nil {
		t.Fatal("cancelled run unexpectedly succeeded")
	}
	j.Close()
	restored, err := campaign.LoadJournal(journal, testSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) == 0 || len(restored) == len(testSet()) {
		t.Fatalf("restored %d of %d, want a partial campaign", len(restored), len(testSet()))
	}

	g := &restoredGuard{restored: restored}
	c := New(Config{
		Workers:     []string{newWorker(t).URL},
		ShardSize:   8,
		Heartbeat:   25 * time.Millisecond,
		JournalPath: journal,
		Resume:      true,
		OnResult:    g.onResult,
	})
	sum, err := c.Run(context.Background(), testSet())
	if got := summaryOf(t, sum, err); !bytes.Equal(got, want) {
		t.Fatalf("coordinator finish differs from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	g.check(t)
	if v := c.Metrics().DedupDropped.Value(); v != 0 {
		t.Fatalf("restored results hit the dedup gate %d times", v)
	}
	st, err := campaign.ScanJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Restored) != len(testSet()) || st.Granted == 0 {
		t.Fatalf("finished journal holds %d results and %d lease grants", len(st.Restored), st.Granted)
	}
}

// resumeJournal opens journal for append the way a resuming coordinator with
// the given shard size does.
func resumeJournal(journal string, scs []campaign.Scenario, shardSize int) error {
	c := New(Config{ShardSize: shardSize, JournalPath: journal, Resume: true})
	j, err := c.openJournal(scs)
	if err == nil {
		j.Close()
	}
	return err
}

// TestResumeRejectsDifferentSet: a journal is bound to its scenario set, and
// its lease records to their shard size; resuming against anything else must
// fail loudly, not merge results from a different campaign.
func TestResumeRejectsDifferentSet(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := campaign.OpenJournal(journal, testSet(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Lease(campaign.LeaseEvent{Event: campaign.LeaseGranted, ShardSize: 4, Worker: "http://w1"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if err := resumeJournal(journal, campaign.LadderPreset(16, 7), 4); err == nil {
		t.Fatal("resume with a different scenario set succeeded")
	}
	if err := resumeJournal(journal, testSet(), 8); err == nil {
		t.Fatal("resume with a different shard size succeeded")
	}
	if err := resumeJournal(journal, testSet(), 4); err != nil {
		t.Fatalf("resume with the original binding failed: %v", err)
	}

	// A journal without lease records binds no shard boundaries.
	single := filepath.Join(t.TempDir(), "single.jsonl")
	j, err = campaign.OpenJournal(single, testSet(), false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := resumeJournal(single, testSet(), 8); err != nil {
		t.Fatalf("resume of a journal without lease records failed: %v", err)
	}
}

// TestResumeRefusesFabricStateLog: the coordinator state logs written before
// results and lease events shared the campaign journal are refused by their
// kind tag, with an error naming the file and the kind.
func TestResumeRefusesFabricStateLog(t *testing.T) {
	old := filepath.Join(t.TempDir(), "state.jsonl")
	l, err := recordlog.Open(old, "fabric-state", []byte(`{"scenarios":16,"hash":"x","shard_size":4}`), true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	err = resumeJournal(old, testSet(), 4)
	if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), `"fabric-state"`) {
		t.Fatalf("resuming a fabric-state log: err=%v", err)
	}
}

// TestJournalTornTail: a coordinator killed mid-write leaves a torn final
// record; reading must keep every complete result and lease record and drop
// only the tail, the lease counters must replay into the metrics, and a
// resumed coordinator must append after the truncated tail.
func TestJournalTornTail(t *testing.T) {
	scs := testSet()
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := campaign.OpenJournal(journal, scs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []campaign.LeaseEvent{
		{Event: campaign.LeaseGranted, ShardSize: 4, Worker: "http://w1"},
		{Event: campaign.LeaseExpired, ShardSize: 4, Worker: "http://w1"},
		{Event: campaign.LeaseReleased, ShardSize: 4, Worker: "http://w2", Attempt: 1},
	} {
		if err := j.Lease(e); err != nil {
			t.Fatal(err)
		}
	}
	normalized, err := campaign.NormalizeSet(scs)
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.Engine{Workers: 1}
	sum, err := eng.RunCtx(context.Background(), normalized[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sum.Results {
		if err := j.Record(i, r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// The kill lands mid-append: a truncated record.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":2,"result":{"id":"tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := campaign.ScanJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Restored) != 2 {
		t.Fatalf("restored %d results, want 2 (torn tail dropped)", len(st.Restored))
	}
	if st.Granted != 1 || st.Expired != 1 || st.Released != 1 {
		t.Fatalf("lease counters = %d/%d/%d, want 1/1/1", st.Granted, st.Expired, st.Released)
	}

	// Replay puts the re-lease history back on the metric surface, so
	// fabric_releases_total survives a coordinator kill -9.
	m := NewMetrics()
	m.Replay(st)
	if v := m.Releases.Value(); v != 1 {
		t.Fatalf("replayed fabric_releases_total = %d, want 1", v)
	}

	// And the resumed coordinator can keep appending after the tail is
	// truncated away.
	c := New(Config{ShardSize: 4, JournalPath: journal, Resume: true})
	j2, err := c.openJournal(scs)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := len(j2.State().Restored); n != 2 {
		t.Fatalf("reopen restored %d results, want 2", n)
	}
	if err := j2.Record(2, sum.Results[0]); err != nil {
		t.Fatal(err)
	}
	st3, err := campaign.ScanJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(st3.Restored) != 3 {
		t.Fatalf("after append-on-resume restored %d results, want 3", len(st3.Restored))
	}
}

// TestDeliverDedup: the second delivery of the same global index — an expired
// lease's results racing the re-leased worker's — is dropped and counted.
func TestDeliverDedup(t *testing.T) {
	c := New(Config{})
	scs := testSet()
	for i := range scs {
		scs[i].Normalize(i)
	}
	c.scs = scs
	c.results = make([]*campaign.Result, len(scs))

	r1 := &campaign.Result{ID: scs[0].ID}
	r2 := &campaign.Result{ID: scs[0].ID}
	if err := c.deliver(0, r1, false); err != nil {
		t.Fatal(err)
	}
	if err := c.deliver(0, r2, false); err != nil {
		t.Fatal(err)
	}
	if c.results[0] != r1 {
		t.Fatal("second delivery overwrote the first")
	}
	if v := c.m.DedupDropped.Value(); v != 1 {
		t.Fatalf("fabric_dedup_dropped_total = %d, want 1", v)
	}
	if c.delivered != 1 {
		t.Fatalf("delivered = %d, want 1", c.delivered)
	}
}

// TestSaturatedFabricWaitsInsteadOfDegrading: with the per-worker lease cap
// in force and more shards than slots, shards must queue for a live worker,
// not spill into local fallback.
func TestSaturatedFabricWaitsInsteadOfDegrading(t *testing.T) {
	want := referenceJSON(t)
	w := newWorker(t)
	c := New(Config{
		Workers:            []string{w.URL},
		ShardSize:          2, // 8 shards through one worker, cap 1
		MaxLeasesPerWorker: 1,
		Heartbeat:          25 * time.Millisecond,
		AcquireTimeout:     50 * time.Millisecond, // force acquire timeouts
	})
	sum, err := c.Run(context.Background(), testSet())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs from single-node run")
	}
	if v := c.Metrics().LocalFallback.Value(); v != 0 {
		t.Fatalf("saturated fabric degraded to local %d times", v)
	}
}

// TestJoinPromotesWorker: a registry with no static members accepts a runtime
// join (the dmafaultd -join path); the heartbeat round at Run start promotes
// the joined worker, which then receives every shard instead of the
// campaign falling back to local execution.
func TestJoinPromotesWorker(t *testing.T) {
	want := referenceJSON(t)
	w := newWorker(t)
	c := New(Config{ShardSize: 4, Heartbeat: 25 * time.Millisecond})
	c.Registry().Join(w.URL)
	sum, err := c.Run(context.Background(), testSet())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs from single-node run")
	}
	if v := c.Metrics().LeasesGranted.Value(); v == 0 {
		t.Fatal("joined worker never received a lease")
	}
	if v := c.Metrics().LocalFallback.Value(); v != 0 {
		t.Fatalf("local fallback fired %d times with a joined worker", v)
	}
	rows := c.Registry().Fleet().Workers
	if len(rows) != 1 || rows[0].URL != w.URL || !rows[0].Up {
		t.Fatalf("fleet rows = %+v", rows)
	}
}

// TestRejoinDoesNotBypassProbe: a worker that keeps re-announcing itself
// (dmafaultd -join) while its lease-aware probe refuses — here a cache-less
// node under NeedCache — is never granted a lease. Only the probe verdict
// promotes a worker; a join that marked it up would hand it shards between
// heartbeat rounds. With no worker up the campaign degrades to local
// execution and still matches the single-node summary byte for byte.
func TestRejoinDoesNotBypassProbe(t *testing.T) {
	want := referenceJSON(t)
	w := newWorker(t) // no result cache: /readyz?lease=1&need_cache=1 answers 503
	c := New(Config{
		ShardSize:      4,
		NeedCache:      true,
		Heartbeat:      10 * time.Millisecond,
		AcquireTimeout: 100 * time.Millisecond,
	})
	c.Registry().Join(w.URL)
	stop := make(chan struct{})
	rejoined := make(chan struct{})
	go func() {
		defer close(rejoined)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.Registry().Join(w.URL)
			}
		}
	}()
	sum, err := c.Run(context.Background(), testSet())
	close(stop)
	<-rejoined
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs from single-node run")
	}
	if v := c.Metrics().LeasesGranted.Value(); v != 0 {
		t.Fatalf("worker refused by every lease probe was granted %d leases", v)
	}
	if rows := c.Registry().Fleet().Workers; len(rows) != 1 || rows[0].Up {
		t.Fatalf("fleet rows = %+v, want one down worker", rows)
	}
}
