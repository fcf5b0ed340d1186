package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/fabric"
	"dmafault/internal/faultd"
	"dmafault/internal/metrics"
	"dmafault/internal/resultstore"
)

const (
	// The fabric set is the Fig. 7 window-ladder matrix (fabricLadder
	// scenarios) scheduled fabricRepeats times and cut into one shard per
	// worker. With half the shard size, whether a shard's job or the
	// coordinator's first status poll gets a CPU first varied from run to
	// run, and scenarios_per_s spread about twice as much between runs.
	// The race remains: a lost one costs the lease one 25 ms poll interval,
	// which makes this workload's latency sensitive to host contention.
	fabricLadder    = 16
	fabricRepeats   = 2
	fabricShardSize = fabricLadder * fabricRepeats / workers
	// fabricRunTimeout bounds one coordinator run; a healthy one takes tens
	// of milliseconds.
	fabricRunTimeout = time.Minute
	// fleetRuns is how many coordinator runs one pair of workers serves
	// before the benchmark replaces them, between passes. A worker keeps
	// every finished job in memory, so with workers that live for the whole
	// phase peak_rss_mb grew with the number of runs the phase fitted and
	// moved with host speed (360 to 620 MB); recycled workers still hold up
	// to fleetRuns runs of jobs at their peak.
	fleetRuns = 100
)

// fabricWorkload is fabric-replay: two in-process dmafaultd workers share a
// warm result store and a coordinator drives them, one lease per worker.
// Each pass is one coordinator Run over a window-ladder set.
type fabricWorkload struct {
	seed  int64
	warm  replayWorkload // the warm store and its reference summary
	fleet *fleet
	runs  int // coordinator runs the current fleet has served
}

func (w *fabricWorkload) setup(dir string) error {
	var set []campaign.Scenario
	for i := 0; i < fabricRepeats; i++ {
		set = append(set, campaign.LadderPreset(fabricLadder, w.seed)...)
	}
	if err := w.warm.fill(dir, set, nil); err != nil {
		return err
	}
	w.fleet = startFleet(w.warm.store)
	return nil
}

func (w *fabricWorkload) warmup() error {
	_, err := w.pass(nil)
	return err
}

func (w *fabricWorkload) pass(tr *tracing) (*passStats, error) {
	if w.runs == fleetRuns {
		w.fleet.stop()
		w.fleet, w.runs = startFleet(w.warm.store), 0
	}
	w.runs++
	return w.fleet.run(w.warm.ref, tr)
}

func (w *fabricWorkload) reference() *reference { return w.warm.ref }

func (w *fabricWorkload) close() {
	if w.fleet != nil {
		w.fleet.stop()
	}
	w.warm.close()
}

// fleet is the in-process worker pool and the client transport reaching it.
type fleet struct {
	servers   []*faultd.Server
	listeners []*httptest.Server
	transport *http.Transport
}

func startFleet(store *resultstore.Store) *fleet {
	f := &fleet{transport: http.DefaultTransport.(*http.Transport).Clone()}
	for i := 0; i < workers; i++ {
		srv := faultd.NewServer()
		srv.Workers = 1
		srv.Cache = store
		f.servers = append(f.servers, srv)
		f.listeners = append(f.listeners, httptest.NewServer(srv.Handler()))
	}
	return f
}

func (f *fleet) urls() []string {
	var out []string
	for _, l := range f.listeners {
		out = append(out, l.URL)
	}
	return out
}

func (f *fleet) stop() {
	f.transport.CloseIdleConnections()
	for _, l := range f.listeners {
		l.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range f.servers {
		_ = s.Drain(ctx) // jobs are all finished; Drain stops the dispatcher
	}
}

// run is one coordinator Run over the reference set. A scenario's latency
// runs from its shard's lease (the job submission) to the verified delivery
// of its result.
func (f *fleet) run(ref *reference, tr *tracing) (*passStats, error) {
	n := len(ref.scenarios)
	delivered := make([]time.Time, n)
	lt := &leaseTransport{inner: f.transport, leased: map[int]time.Time{}, timed: tr != nil}
	a0 := heapAllocs()
	start := time.Now()
	c := fabric.New(fabric.Config{
		Workers:            f.urls(),
		ShardSize:          fabricShardSize,
		MaxLeasesPerWorker: 1,
		Transport:          lt,
		OnResult:           func(i int, _ *campaign.Result) { delivered[i] = time.Now() },
	})
	ctx, cancel := context.WithTimeout(context.Background(), fabricRunTimeout)
	defer cancel()
	sum, err := c.Run(ctx, ref.scenarios)
	if err != nil {
		return nil, fmt.Errorf("fabric run: %w", err)
	}
	js, err := sum.JSON()
	if err != nil {
		return nil, err
	}
	ps := &passStats{scenarios: n, wall: time.Since(start), alloc: heapAllocs() - a0}
	for i := range delivered {
		leased, ok := lt.leaseOf(i / fabricShardSize)
		if !ok || delivered[i].IsZero() {
			ps.problems = append(ps.problems, fmt.Sprintf("scenario %d has no lease or delivery time", i))
			continue
		}
		ps.latencies = append(ps.latencies, delivered[i].Sub(leased))
	}
	for _, r := range sum.Results {
		if failedResult(r) {
			ps.failed++
		}
	}
	if !bytes.Equal(js, ref.json) {
		ps.problems = append(ps.problems, "fabric summary differs from the cold reference summary")
	}
	tr.noteFabric(c.Metrics(), lt, n)
	return ps, nil
}

// leaseTransport notes when each shard is leased (its job submission) and,
// when timed, the duration and bytes of every exchange with the workers.
type leaseTransport struct {
	inner http.RoundTripper
	timed bool

	mu     sync.Mutex
	leased map[int]time.Time // shard index -> submission start

	submits, polls     atomic.Int64
	submitNanos, bytes atomic.Int64
}

func (t *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	submit := req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/v1/campaigns")
	if submit {
		if shard, ok := shardOf(req); ok {
			t.mu.Lock()
			t.leased[shard] = start
			t.mu.Unlock()
		}
	}
	resp, err := t.inner.RoundTrip(req)
	if !t.timed {
		return resp, err
	}
	switch {
	case submit:
		t.submits.Add(1)
		t.submitNanos.Add(int64(time.Since(start)))
	case req.Method == http.MethodGet && strings.Contains(req.URL.Path, "/v1/campaigns/"):
		t.polls.Add(1)
	}
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	if resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

func (t *leaseTransport) leaseOf(shard int) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.leased[shard]
	return at, ok
}

// shardOf reads the shard index from a lease submission's job name
// ("fabric-shard-<n>"), which leads the request body.
func shardOf(req *http.Request) (int, bool) {
	if req.GetBody == nil {
		return 0, false
	}
	body, err := req.GetBody()
	if err != nil {
		return 0, false
	}
	defer body.Close()
	head := make([]byte, 64)
	k, _ := io.ReadFull(body, head)
	const key = `"name":"fabric-shard-`
	i := bytes.Index(head[:k], []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := head[i+len(key) : k]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return 0, false
	}
	shard, err := strconv.Atoi(string(rest[:j]))
	return shard, err == nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// phaseSums reads the per-phase sums and counts of the coordinator's
// worker-reported shard phase histogram.
func phaseSums(m *fabric.Metrics) map[string][2]float64 {
	out := map[string][2]float64{}
	m.PhaseLatency.Collect(func(_ string, s metrics.Sample) {
		for _, l := range s.Labels {
			if l.Key == "phase" {
				v := out[l.Value]
				out[l.Value] = [2]float64{v[0] + s.Sum, v[1] + float64(s.Count)}
			}
		}
	})
	return out
}
