package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
	"dmafault/internal/metrics"
	"dmafault/internal/netchaos"
)

// Fleet observability tests: the fleet view must be pure observation. The
// invariant defended here is the acceptance criterion from the fleet view's
// design — the merged summary is byte-identical with FleetObs on or off, at
// any worker count, and under a hostile network — plus the typed /v1/fleet
// surface, its staleness rules, and the heartbeat's per-round traffic.

// TestByteIdenticalWithFleetObs is the fleet-view acceptance test: with the
// heartbeat, and so the scrape, running hot (2ms — hundreds of rounds per
// campaign), the summary must match the plain single-node bytes at one, two,
// and four workers, and the registry must have attributed queue-wait,
// execute and publish time to every worker that executed a shard.
func TestByteIdenticalWithFleetObs(t *testing.T) {
	want := referenceJSON(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			urls := make([]string, n)
			for i := range urls {
				urls[i] = newWorker(t).URL
			}
			c := New(Config{
				Workers:   urls,
				ShardSize: 4,
				Heartbeat: 2 * time.Millisecond,
				FleetObs:  true,
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
				t.Fatalf("summary with fleetobs differs from single-node run (%d vs %d bytes)",
					len(got), len(want))
			}

			fs := c.Fleet()
			if len(fs.Workers) != n {
				t.Fatalf("fleet snapshot has %d workers, want %d", len(fs.Workers), n)
			}
			var executed int
			for _, w := range fs.Workers {
				if w.Delivered == 0 {
					continue
				}
				executed++
				if pt := w.PhaseTotals; pt.QueueWait <= 0 || pt.Execute <= 0 || pt.Publish <= 0 {
					t.Errorf("worker %s delivered %d shards but its phase totals are not all nonzero: %+v",
						w.URL, w.Delivered, pt)
				}
				if w.EWMAShardSeconds <= 0 {
					t.Errorf("worker %s has no EWMA shard latency", w.URL)
				}
				if w.Scenarios == 0 {
					t.Errorf("worker %s delivered shards but no scenarios", w.URL)
				}
			}
			if executed == 0 {
				t.Fatal("no worker in the fleet snapshot delivered anything")
			}
			if fs.Campaign == nil || fs.Campaign.ScenariosDone != len(testSet()) {
				t.Fatalf("campaign progress = %+v", fs.Campaign)
			}

			// The phase histogram must carry per-worker samples for all three
			// phases.
			text := string(c.Metrics().Text())
			for _, phase := range []string{"queue_wait", "execute", "publish"} {
				if !strings.Contains(text, `phase="`+phase+`"`) {
					t.Errorf("fabric_shard_phase_latency_seconds missing phase %q", phase)
				}
			}
		})
	}
}

// TestByteIdenticalWithFleetObsUnderChaos: the fleet view's scrapes ride the
// same netchaos transport as the control path. Torn metrics bodies and 503d
// readiness probes must degrade the telemetry, never the summary.
func TestByteIdenticalWithFleetObsUnderChaos(t *testing.T) {
	want := chaosReferenceJSON(t)
	urls := []string{newWorker(t).URL, newWorker(t).URL}
	ch := netchaos.NewTransport(chaosPlan(t, 1101), nil)
	c := New(Config{
		Workers:        urls,
		ShardSize:      2,
		Heartbeat:      25 * time.Millisecond,
		LeaseTTL:       10 * time.Second,
		AcquireTimeout: 2 * time.Second,
		Transport:      ch,
		FleetObs:       true,
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
		t.Fatalf("summary with fleetobs under chaos differs from single-node run (%d vs %d bytes)",
			len(got), len(want))
	}
	t.Logf("chaos: %s", ch.CountsText())
}

// TestFleetEndpoint pins the HTTP surface: GET /v1/fleet is always served
// as typed JSON, with byte-identical bodies across two requests against
// unchanged fleet state; the metrics scrape (FleetObs) only adds the merged
// worker metrics.
func TestFleetEndpoint(t *testing.T) {
	// run drives a campaign through one worker and returns the /v1/fleet
	// document, fetched twice. Run has returned and waited for the
	// heartbeat by then; the test then drives one heartbeat round itself,
	// so a scrape has landed even when none did before Run stopped the
	// heartbeat, and after it the registry is frozen and both requests must
	// return identical bytes.
	run := func(t *testing.T, fleetObs bool) (fs api.FleetSnapshot) {
		w := newWorker(t)
		c := New(Config{
			Workers:   []string{w.URL},
			ShardSize: 4,
			Heartbeat: 2 * time.Millisecond,
			FleetObs:  fleetObs,
		})
		if _, err := c.Run(context.Background(), testSet()); err != nil {
			t.Fatal(err)
		}
		c.reg.probeAll(context.Background())
		ts := httptest.NewServer(c.Handler())
		defer ts.Close()
		get := func() []byte {
			resp, err := ts.Client().Get(ts.URL + "/v1/fleet")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("GET /v1/fleet = %d, want 200", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		a, b := get(), get()
		if !bytes.Equal(a, b) {
			t.Fatalf("two /v1/fleet requests against frozen state differ:\n%s\nvs\n%s", a, b)
		}
		if err := json.Unmarshal(a, &fs); err != nil {
			t.Fatalf("/v1/fleet body is not a FleetSnapshot: %v", err)
		}
		if len(fs.Workers) != 1 || fs.Workers[0].URL != w.URL {
			t.Fatalf("fleet workers = %+v", fs.Workers)
		}
		if fs.Workers[0].PhaseTotals.Execute <= 0 {
			t.Fatalf("no execute time attributed: %+v", fs.Workers[0])
		}
		return fs
	}

	t.Run("without the scrape", func(t *testing.T) {
		fs := run(t, false)
		if fs.Metrics != nil {
			t.Fatalf("fleet document carries metrics without the scrape: %+v", fs.Metrics)
		}
	})

	t.Run("enabled", func(t *testing.T) {
		fs := run(t, true)
		if fs.Metrics == nil {
			t.Fatal("fleet document carries no metrics with the scrape on")
		}
	})
}

// TestNoteTimingEWMA pins the registry's latency accounting: the first
// delivery seeds the EWMA directly, later deliveries move it by EWMAAlpha,
// and the rate term only updates when a shard reports nonzero execute time.
func TestNoteTimingEWMA(t *testing.T) {
	reg := NewRegistry([]string{"http://w:1"}, nil, NewMetrics(), nil)
	url := "http://w:1"

	reg.NoteTiming(url, 4, 1, &api.Timing{QueueWaitSeconds: 0.5, ExecuteSeconds: 2, PublishSeconds: 0.1})
	rows := reg.Fleet().Workers
	if len(rows) != 1 {
		t.Fatalf("fleet rows = %d", len(rows))
	}
	w := rows[0]
	if w.EWMAShardSeconds != 2 {
		t.Fatalf("first delivery EWMA = %v, want seeded 2", w.EWMAShardSeconds)
	}
	if w.EWMAScenariosPerSec != 2 { // 4 scenarios / 2s
		t.Fatalf("first delivery rate = %v, want 2", w.EWMAScenariosPerSec)
	}
	if w.Delivered != 1 || w.Scenarios != 4 || w.CacheHits != 1 {
		t.Fatalf("accounting = %+v", w)
	}

	reg.NoteTiming(url, 4, 0, &api.Timing{ExecuteSeconds: 4})
	w = reg.Fleet().Workers[0]
	if want := 2 + EWMAAlpha*(4-2); w.EWMAShardSeconds != want {
		t.Fatalf("second delivery EWMA = %v, want %v", w.EWMAShardSeconds, want)
	}
	if w.PhaseTotals.Execute != 6 {
		t.Fatalf("execute total = %v, want 6", w.PhaseTotals.Execute)
	}

	// A zero-execute-time delivery (sub-resolution shard) must not divide by
	// zero or drag the rate EWMA toward infinity.
	before := w.EWMAScenariosPerSec
	reg.NoteTiming(url, 4, 0, &api.Timing{ExecuteSeconds: 0})
	w = reg.Fleet().Workers[0]
	if w.EWMAScenariosPerSec != before {
		t.Fatalf("zero-duration delivery moved the rate EWMA: %v -> %v", before, w.EWMAScenariosPerSec)
	}
	if w.Delivered != 3 {
		t.Fatalf("delivered = %d, want 3", w.Delivered)
	}

	// Timing is optional on the wire (old workers, fuzz jobs): a nil Timing
	// still counts the delivery.
	reg.NoteTiming(url, 2, 0, nil)
	w = reg.Fleet().Workers[0]
	if w.Delivered != 4 || w.Scenarios != 14 {
		t.Fatalf("nil-timing delivery accounting = %+v", w)
	}
}

// fixedWorker serves a frozen /v1/metrics body and a ready /readyz — the
// "identical worker state" the determinism contract is pinned against. A
// live dmafaultd cannot play this role: its request counter ticks on every
// scrape, so consecutive scrapes never observe identical state.
func fixedWorker(t *testing.T, metricsBody string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/metrics":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, metricsBody)
		case "/readyz":
			fmt.Fprintln(w, "ready")
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func fixedMetricsBody(t *testing.T, name string, value float64) string {
	t.Helper()
	snap := &metrics.Snapshot{Families: []metrics.Family{{
		Name: name, Kind: metrics.KindCounter,
		Samples: []metrics.Sample{{Value: value}},
	}}}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// deadURL is the address of a server that has already shut down: connects
// are refused at once.
func deadURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	return ts.URL
}

// Two heartbeat rounds over identical worker state must produce
// byte-identical /v1/fleet documents: the snapshot is a pure function of
// fleet state, with scrape jitter and scrape counters kept out of the bytes.
func TestSnapshotDeterministicAcrossScrapes(t *testing.T) {
	w1 := fixedWorker(t, fixedMetricsBody(t, "faultd_requests_total", 7))
	w2 := fixedWorker(t, fixedMetricsBody(t, "faultd_requests_total", 3))
	c := New(Config{Workers: []string{w1.URL, w2.URL}, FleetObs: true})
	c.reg.NoteTiming(w1.URL, 8, 0, &api.Timing{QueueWaitSeconds: 0.1, ExecuteSeconds: 2, PublishSeconds: 0.01})
	c.reg.NoteTiming(w2.URL, 4, 0, &api.Timing{ExecuteSeconds: 1.5})
	ctx := context.Background()

	c.reg.probeAll(ctx)
	a, err := json.MarshalIndent(c.Fleet(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	c.reg.probeAll(ctx)
	b, err := json.MarshalIndent(c.Fleet(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-scraped snapshot drifted:\n%s\nvs\n%s", a, b)
	}

	var fs api.FleetSnapshot
	if err := json.Unmarshal(a, &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Workers) != 2 || !fs.Workers[0].Ready || !fs.Workers[1].Ready {
		t.Fatalf("workers not ready after scrape: %+v", fs.Workers)
	}
	// The merged metrics sum both workers' frozen counters, worker-URL order.
	if fs.Metrics == nil || fs.Metrics.Total("faultd_requests_total") != 10 {
		t.Fatalf("merged metrics: %+v", fs.Metrics)
	}
}

// Two workers whose counters sum past float64's range must not take the
// fleet view down: the overflowing family keeps the first worker's value
// and GET /v1/fleet still answers 200 with a decodable document.
func TestFleetServesOverflowingCounters(t *testing.T) {
	w1 := fixedWorker(t, fixedMetricsBody(t, "faultd_requests_total", 1e308))
	w2 := fixedWorker(t, fixedMetricsBody(t, "faultd_requests_total", 1e308))
	c := New(Config{Workers: []string{w1.URL, w2.URL}, FleetObs: true})
	c.reg.probeAll(context.Background())
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/fleet = %d (%s), want 200", resp.StatusCode, body)
	}
	var fs api.FleetSnapshot
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatalf("/v1/fleet body is not a FleetSnapshot: %v", err)
	}
	if len(fs.Workers) != 2 || !fs.Workers[0].Ready || !fs.Workers[1].Ready {
		t.Fatalf("workers not ready after scrape: %+v", fs.Workers)
	}
	if got := fs.Metrics.Total("faultd_requests_total"); got != 1e308 {
		t.Fatalf("merged faultd_requests_total = %v, want the first worker's 1e308", got)
	}
}

// A worker whose scrape starts failing goes stale and keeps serving its last
// good snapshot; one that never answered contributes nothing and stays
// unready. The scrape counters follow every round.
func TestStalenessSemantics(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "gone", http.StatusBadGateway)
			return
		}
		switch r.URL.Path {
		case "/v1/metrics":
			fmt.Fprint(w, fixedMetricsBody(t, "faultd_requests_total", 5))
		case "/readyz":
			fmt.Fprintln(w, "ready")
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	dead := deadURL(t)
	c := New(Config{Workers: []string{dead, ts.URL}, FleetObs: true})
	ctx := context.Background()
	row := func(fs *api.FleetSnapshot, url string) api.FleetWorker {
		for _, w := range fs.Workers {
			if w.URL == url {
				return w
			}
		}
		t.Fatalf("no fleet row for %s", url)
		return api.FleetWorker{}
	}

	c.reg.probeAll(ctx)
	fs := c.Fleet()
	if live := row(fs, ts.URL); !live.Ready || live.Stale {
		t.Fatalf("live worker: %+v", live)
	}
	if d := row(fs, dead); d.Ready || d.Stale {
		t.Fatalf("never-scraped worker must be unready and not stale: %+v", d)
	}
	if fs.Metrics.Total("faultd_requests_total") != 5 {
		t.Fatalf("metrics: %+v", fs.Metrics)
	}

	// The live worker dies: its row goes stale, its last snapshot persists.
	healthy.Store(false)
	c.reg.probeAll(ctx)
	fs = c.Fleet()
	if gone := row(fs, ts.URL); gone.Ready || !gone.Stale {
		t.Fatalf("dead-after-success worker: %+v", gone)
	}
	if fs.Metrics.Total("faultd_requests_total") != 5 {
		t.Fatalf("stale snapshot not retained: %+v", fs.Metrics)
	}
	m := c.Metrics()
	if m.FleetScrapes.Value() != 4 || m.FleetScrapeErrors.Value() != 3 || m.FleetWorkersStale.Value() != 1 {
		t.Fatalf("scrape families: scrapes=%d errors=%d stale=%v, want 4/3/1",
			m.FleetScrapes.Value(), m.FleetScrapeErrors.Value(), m.FleetWorkersStale.Value())
	}
}

// TestFleetReadyFollowsProbe: a row's ready flag is the heartbeat's last
// lease-aware probe verdict, with the metrics scrape on or off. A promoted
// worker reads ready; one refusing its probe reads not ready at once, while
// up rides out the failures short of a demotion, and stays so once demoted.
func TestFleetReadyFollowsProbe(t *testing.T) {
	for _, fleetObs := range []bool{false, true} {
		t.Run(fmt.Sprintf("fleetobs=%v", fleetObs), func(t *testing.T) {
			var refusing atomic.Bool
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/readyz":
					if refusing.Load() {
						http.Error(w, "saturated", http.StatusServiceUnavailable)
						return
					}
					fmt.Fprintln(w, "ready")
				case "/v1/metrics":
					fmt.Fprint(w, fixedMetricsBody(t, "faultd_requests_total", 1))
				default:
					http.NotFound(w, r)
				}
			}))
			defer ts.Close()
			c := New(Config{Workers: []string{ts.URL}, FleetObs: fleetObs})
			ctx := context.Background()
			row := func() api.FleetWorker { return c.Fleet().Workers[0] }

			if w := row(); w.Up || w.Ready {
				t.Fatalf("before any probe: %+v", w)
			}
			c.reg.probeAll(ctx)
			if w := row(); !w.Up || !w.Ready || w.Stale {
				t.Fatalf("promoted worker: %+v", w)
			}
			refusing.Store(true)
			for i := 1; i <= DefaultDownAfter; i++ {
				c.reg.probeAll(ctx)
				if w := row(); w.Ready || w.Up != (i < DefaultDownAfter) {
					t.Fatalf("after %d refused probes: %+v", i, w)
				}
			}
			refusing.Store(false)
			c.reg.probeAll(ctx)
			if w := row(); !w.Up || !w.Ready {
				t.Fatalf("re-promoted worker: %+v", w)
			}
		})
	}
}

// countingTransport counts the requests a heartbeat round sends, by path.
type countingTransport struct {
	mu     sync.Mutex
	counts map[string]int
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.mu.Lock()
	ct.counts[req.URL.Path+"?"+req.URL.RawQuery]++
	ct.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestHeartbeatTrafficPerRound pins what one heartbeat round costs each
// worker: one lease-aware /readyz with the fleet view off, plus one
// /v1/metrics with it on — the scrape rides the heartbeat instead of a loop
// of its own.
func TestHeartbeatTrafficPerRound(t *testing.T) {
	urls := []string{newWorker(t).URL, newWorker(t).URL}
	for _, tc := range []struct {
		fleetObs bool
		want     map[string]int
	}{
		{false, map[string]int{"/readyz?lease=1": 2}},
		{true, map[string]int{"/readyz?lease=1": 2, "/v1/metrics?": 2}},
	} {
		t.Run(fmt.Sprintf("fleetobs=%v", tc.fleetObs), func(t *testing.T) {
			ct := &countingTransport{counts: map[string]int{}}
			c := New(Config{Workers: urls, Transport: ct, FleetObs: tc.fleetObs})
			c.reg.probeAll(context.Background())
			if fmt.Sprint(ct.counts) != fmt.Sprint(tc.want) {
				t.Fatalf("one round over %d workers sent %v, want %v", len(urls), ct.counts, tc.want)
			}
		})
	}
}

// The golden document (testdata/fleet_snapshot.json): a stale worker with a
// lease out and a dead (never-scraped) worker, with fixed URLs and a frozen registry
// state seeded directly. This is the byte-exact /v1/fleet wire format; a
// field rename or ordering change fails here before it breaks fabrictop,
// whose own test renders the same document.
func TestFleetSnapshotGolden(t *testing.T) {
	c := New(Config{Workers: []string{"http://w1:8077", "http://w2:8077"}, FleetObs: true})
	// w1 answered once then went dark (stale, last snapshot retained) with
	// a lease out; w2 never answered at all.
	w1 := c.reg.workers["http://w1:8077"]
	w1.up = true
	w1.leases = 1
	w1.delivered, w1.scenarios, w1.cacheHits = 2, 8, 3
	w1.phaseQueue, w1.phaseExec, w1.phasePub = 0.25, 4, 0.5
	w1.ewmaShard, w1.ewmaRate = 2, 2.5
	w1.ready, w1.stale = false, true
	w1.snap = &metrics.Snapshot{Families: []metrics.Family{{
		Name: "faultd_requests_total", Kind: metrics.KindCounter,
		Samples: []metrics.Sample{{Value: 42}},
	}}}
	c.scs = make([]campaign.Scenario, 16)
	c.delivered = 8
	c.m.ShardsTotal.Set(4)
	c.m.ShardsDone.Add(2)

	got, err := json.MarshalIndent(c.Fleet(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fleet_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("fleet snapshot wire format drifted:\n got %s\nwant %s", got, want)
	}
}
