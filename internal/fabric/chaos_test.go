package fabric

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd"
	"dmafault/internal/netchaos"
)

// Byzantine-tolerance tests: the fabric under a hostile network and hostile
// workers. The invariant everything here defends is the same one
// fabric_test.go pins for the happy path — the merged summary is
// byte-identical to a single-node run — but now with a chaos transport
// tearing deliveries, proxies corrupting results, and workers refusing a
// range until it runs locally.

// chaosSet is a half-size ladder set for the byzantine tests: chaos
// re-executes shards many times over (re-leases, local fallbacks, orphaned
// jobs running to completion server-side), so the per-pass
// compute is kept small — under -race a full 16-scenario pass alone costs
// tens of seconds of instrumented CPU.
func chaosSet() []campaign.Scenario { return campaign.LadderPreset(8, 2021) }

var (
	chaosRefOnce sync.Once
	chaosRef     []byte
	chaosRefErr  error
)

// chaosReferenceJSON is referenceJSON for chaosSet, computed once per test
// binary — five tests compare against it and the engine pass is the
// expensive part.
func chaosReferenceJSON(t *testing.T) []byte {
	t.Helper()
	chaosRefOnce.Do(func() {
		eng := campaign.Engine{Workers: 2}
		sum, err := eng.RunCtx(context.Background(), chaosSet())
		if err != nil {
			chaosRefErr = err
			return
		}
		chaosRef, chaosRefErr = sum.JSON()
	})
	if chaosRefErr != nil {
		t.Fatal(chaosRefErr)
	}
	return chaosRef
}

// chaosPlan is the standard hostile-network mix: frequent silent corruption
// and torn bodies (the integrity layer's diet), a background of connection
// drops, injected 503s exercising both Retry-After forms, and occasional
// full partitions that take heartbeats down with the leases.
func chaosPlan(t *testing.T, seed int64) *netchaos.Plan {
	t.Helper()
	plan, err := netchaos.ParseSpec(
		"bitflip:0.25,truncate:0.2,conn-drop:0.05,http-503:0.03,partition:0.01")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = seed
	return plan
}

// TestByteIdenticalUnderChaos is the tentpole acceptance test: with every
// worker-bound byte riding a netchaos transport — and re-lease exclusion
// armed — the merged summary still must not change by a byte at one, two,
// or four workers.
func TestByteIdenticalUnderChaos(t *testing.T) {
	want := chaosReferenceJSON(t)
	var rejected uint64
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			urls := make([]string, n)
			for i := range urls {
				urls[i] = newWorker(t).URL
			}
			ch := netchaos.NewTransport(chaosPlan(t, int64(100+n)), nil)
			c := New(Config{
				Workers:        urls,
				ShardSize:      2,
				Heartbeat:      25 * time.Millisecond,
				LeaseTTL:       10 * time.Second,
				AcquireTimeout: 2 * time.Second,
				Transport:      ch,
			})
			sum, err := c.Run(context.Background(), chaosSet())
			if err != nil {
				t.Fatalf("campaign failed under chaos: %v", err)
			}
			got, err := sum.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("summary under chaos differs from single-node run (%d vs %d bytes)",
					len(got), len(want))
			}
			if v := c.Metrics().ShardsDone.Value(); v != 4 {
				t.Fatalf("fabric_shards_completed_total = %d, want 4 — shard "+
					"completions double-counted", v)
			}
			t.Logf("chaos: %s", ch.CountsText())
			v := c.Metrics().IntegrityRejected.Value()
			rejected += v
			if v > 0 && !strings.Contains(string(c.Metrics().Text()), "fabric_integrity_rejected_total") {
				t.Fatal("fabric_integrity_rejected_total fired but is absent from the exposition")
			}
		})
	}
	// Per-run injection is probabilistic; across the three runs the truncate
	// and bitflip rates make at least one rejected delivery a statistical
	// certainty. Zero here means the integrity layer went blind, not that
	// the network behaved.
	if rejected == 0 {
		t.Fatal("fabric_integrity_rejected_total = 0 across all chaos runs")
	}
}

// TestChaosFamiliesOmittedWhenClean: the byzantine-tolerance family is an
// exceptional-condition counter and must be absent from a clean exposition
// (OmitZero), appearing the moment its condition fires.
func TestChaosFamiliesOmittedWhenClean(t *testing.T) {
	const fam = "fabric_integrity_rejected_total"
	m := NewMetrics()
	if strings.Contains(string(m.Text()), fam) {
		t.Errorf("clean exposition contains %s", fam)
	}
	m.IntegrityRejected.Inc()
	if !strings.Contains(string(m.Text()), fam) {
		t.Errorf("fired family %s absent from the exposition", fam)
	}
}

// corruptingWorker proxies a real in-process worker but rewrites delivered
// terminal job documents when corrupt() says so: the first result seed
// gains a leading digit, leaving the JSON well-formed — silent result
// corruption only the integrity layer can see. The returned counter is the
// number of documents actually rewritten, so a test asserting on rejections
// fails loudly if a wire-format change stops the rewrite from matching.
func corruptingWorker(t *testing.T, corrupt func() bool) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var rewritten atomic.Int32
	inner := faultd.NewServer()
	inner.Workers = 2
	h := inner.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.Method == http.MethodGet && bytes.Contains(body, []byte(`"results_sha256"`)) && corrupt() {
			if seed := []byte(`"seed":`); bytes.Contains(body, seed) {
				body = bytes.Replace(body, seed, []byte(`"seed":9`), 1)
				rewritten.Add(1)
			}
		}
		for k, vs := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts, &rewritten
}

// TestCorruptingWorkerNeverMerges: beside an honest worker, one that
// corrupts every delivery has each delivery rejected, and every re-lease of
// a range it failed goes to the honest worker — the campaign completes
// byte-identically on the fabric, with no local fallback and no delivery
// credited to the corrupting worker. Both workers also announce themselves,
// as dmafaultd -join would (the joins leave them one worker each, down until
// the first heartbeat round), and every scenario is its own shard, so the
// corrupting worker keeps being handed fresh ranges. (A shard lasts milliseconds; with four
// shards a loaded host can let the honest worker finish one before the
// last is acquired, leaving the corrupting worker a single lease.)
func TestCorruptingWorkerNeverMerges(t *testing.T) {
	want := chaosReferenceJSON(t)
	good := newWorker(t)
	bad, rewritten := corruptingWorker(t, func() bool { return true })
	c := New(Config{
		Workers:   []string{good.URL, bad.URL},
		ShardSize: 1,
		Heartbeat: 25 * time.Millisecond,
	})
	c.Registry().Join(good.URL)
	c.Registry().Join(bad.URL)
	sum, err := c.Run(context.Background(), chaosSet())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("corrupted deliveries changed the merged summary")
	}
	n := int(rewritten.Load())
	if n < 2 {
		t.Fatalf("corrupting worker rewrote %d documents, want >= 2", n)
	}
	if v := c.Metrics().IntegrityRejected.Value(); int(v) != n {
		t.Fatalf("fabric_integrity_rejected_total = %d, want the %d rewritten documents", v, n)
	}
	if v := c.Metrics().LocalFallback.Value(); v != 0 {
		t.Fatalf("local fallback fired %d times with an honest worker available", v)
	}
	for _, w := range c.Registry().Fleet().Workers {
		if w.URL == bad.URL && w.Delivered != 0 {
			t.Fatalf("corrupting worker credited with %d deliveries", w.Delivered)
		}
	}
}

// TestWorkerRecoversAfterCorruption: the only worker corrupts two deliveries
// and then behaves. With no other worker up, each re-lease goes back to it,
// and the campaign completes on the fabric byte-identically — exactly the
// two corruptions rejected, nothing run locally.
func TestWorkerRecoversAfterCorruption(t *testing.T) {
	want := chaosReferenceJSON(t)
	var corrupted atomic.Int32
	bad, rewritten := corruptingWorker(t, func() bool { return corrupted.Add(1) <= 2 })
	c := New(Config{
		Workers:   []string{bad.URL},
		ShardSize: 2,
		Heartbeat: 25 * time.Millisecond,
	})
	sum, err := c.Run(context.Background(), chaosSet())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs after the worker recovered")
	}
	if n := rewritten.Load(); n != 2 {
		t.Fatalf("corrupting worker rewrote %d documents, want 2", n)
	}
	if v := c.Metrics().IntegrityRejected.Value(); v != 2 {
		t.Fatalf("fabric_integrity_rejected_total = %d, want exactly the 2 corruptions", v)
	}
	if v := c.Metrics().LocalFallback.Value(); v != 0 {
		t.Fatalf("local fallback fired %d times — the recovered worker should have carried the campaign", v)
	}
}

// poisonRejectingWorker proxies a real worker but refuses (500) any shard
// submission whose scenario set contains the poison marker.
func poisonRejectingWorker(t *testing.T, poison string) *httptest.Server {
	t.Helper()
	inner := faultd.NewServer()
	inner.Workers = 2
	h := inner.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/campaigns") {
			body, err := io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if bytes.Contains(body, []byte(poison)) {
				http.Error(w, "worker crashed executing shard", http.StatusInternalServerError)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFailingRangeRunsLocally: a range whose every lease fails — here the
// only worker answers 500 to any submission holding one seed — re-leases
// until MaxLeaseAttempts and then runs on the coordinator's local engine,
// once and whole, while the other shard delivers from the worker. The
// summary matches a single-node run, and the range's local run ends its
// partition shard exactly once.
func TestFailingRangeRunsLocally(t *testing.T) {
	want := chaosReferenceJSON(t)
	// Global index 4 (shard [4,8) at ShardSize 4): seeds stride by 10007
	// from 2021, so index 4 is uniquely "seed":42049.
	w := poisonRejectingWorker(t, `"seed":42049`)
	c := New(Config{
		Workers:          []string{w.URL},
		ShardSize:        4,
		Heartbeat:        25 * time.Millisecond,
		MaxLeaseAttempts: 2,
	})
	sum, err := c.Run(context.Background(), chaosSet())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs after the local fallback")
	}
	if v := c.Metrics().LocalFallback.Value(); v != 1 {
		t.Fatalf("fabric_local_fallback_total = %d, want exactly the failing range", v)
	}
	if v := c.Metrics().ShardsDone.Value(); v != 2 {
		t.Fatalf("fabric_shards_completed_total = %d, want 2", v)
	}
	if v := c.Metrics().LeasesExpired.Value(); v != 2 {
		t.Fatalf("fabric_leases_expired_total = %d, want MaxLeaseAttempts (2)", v)
	}
}

// TestReleaseBackoffResetsAfterDelivery pins the backoff curve's step: the
// base first, doubled per failure, capped at MaxReleaseBackoff. The reset on
// delivery is structural — the curve is a local of runShardRange, which
// returns at the range's first delivery — so a fresh curve starts at the
// base again.
func TestReleaseBackoffResetsAfterDelivery(t *testing.T) {
	var d time.Duration
	if d = nextBackoff(d); d != DefaultReleaseBackoff {
		t.Fatalf("first backoff = %v, want base %v", d, DefaultReleaseBackoff)
	}
	if d = nextBackoff(d); d != 2*DefaultReleaseBackoff {
		t.Fatalf("second backoff = %v, want doubled %v", d, 2*DefaultReleaseBackoff)
	}
	for i := 0; i < 10; i++ {
		d = nextBackoff(d)
	}
	if d != MaxReleaseBackoff {
		t.Fatalf("backoff after 12 failures = %v, want capped %v", d, MaxReleaseBackoff)
	}
	if got := nextBackoff(0); got != DefaultReleaseBackoff {
		t.Fatalf("fresh curve = %v, want base %v", got, DefaultReleaseBackoff)
	}
}

// TestBackoffEntriesClearedAfterRun is the end-to-end run of the re-lease
// path: a campaign that failed a lease and then recovered must re-lease and
// still match the single-node bytes.
func TestBackoffEntriesClearedAfterRun(t *testing.T) {
	want := chaosReferenceJSON(t)
	inner := faultd.NewServer()
	inner.Workers = 2
	h := inner.Handler()
	var failedOnce atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/campaigns") &&
			failedOnce.CompareAndSwap(false, true) {
			http.Error(w, "transient worker hiccup", http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	c := New(Config{
		Workers:   []string{flaky.URL},
		ShardSize: 2,
		Heartbeat: 25 * time.Millisecond,
	})
	sum, err := c.Run(context.Background(), chaosSet())
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
	if v := c.Metrics().Releases.Value(); v == 0 {
		t.Fatal("fabric_releases_total = 0: the failure path never exercised")
	}
}
