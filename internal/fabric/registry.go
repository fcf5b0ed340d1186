package fabric

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
	"dmafault/internal/metrics"
)

// Worker registry: the coordinator's view of the fabric. Workers arrive two
// ways — static URLs configured at start, and self-registrations through
// POST /v1/fabric/join — and both arrive down. Nothing a worker says about
// itself moves it: only the heartbeat's lease-aware /readyz verdict
// promotes a worker or demotes it. A worker that stops answering (killed,
// draining, saturated, cache-less) goes down: its in-flight leases are
// cancelled through the per-up-epoch down channel, and Acquire stops
// handing it new shards until a heartbeat brings it back.
//
// Fleet renders the registry, for GET /v1/fleet and the "fleet" SSE beat.
// With a scrape set (Config.FleetObs), each worker's heartbeat round also
// fetches its /v1/metrics after the readiness verdict is applied, and the
// registry keeps the last good snapshot for the document. Two planes, one
// determinism contract: the campaign's control path never reads the scrape
// state, so scrape jitter, worker restarts and scrape failures change the
// fleet document but never a byte of the merged summary. The document
// itself carries no timestamps or scrape counters, so two renderings of
// identical fleet state are byte-identical.

// ProbeFunc asks one worker whether it should receive a new shard lease.
// nil = ready; anything else = not ready (an *faultdclient.APIError carries
// the server's verdict and Retry-After hint).
type ProbeFunc func(ctx context.Context, url string) error

// scrapeFunc fetches one worker's /v1/metrics snapshot for the fleet view.
type scrapeFunc func(ctx context.Context, url string) (*metrics.Snapshot, error)

type worker struct {
	url    string
	static bool
	up     bool
	leases int
	fails  int // consecutive probe failures; reset by any success
	// down is closed on the up→down transition of the current up-epoch, so
	// every lease granted during that epoch can cancel immediately on
	// heartbeat loss instead of waiting out its TTL. Remade on each return
	// to up.
	down chan struct{}

	// Delivery accounting for the fleet view: cumulative totals and EWMAs
	// fed by NoteTiming on each verified delivery. Deterministic by
	// construction — a pure function of the delivery sequence, untouched by
	// scrape timing — so identical campaigns report identical fleet rows.
	delivered  int     // verified shard deliveries
	scenarios  int     // scenarios across those deliveries
	cacheHits  int     // cache-replayed scenarios across those deliveries
	phaseQueue float64 // cumulative queue-wait seconds
	phaseExec  float64 // cumulative execute seconds
	phasePub   float64 // cumulative publish seconds
	ewmaShard  float64 // EWMA of per-delivery execute seconds
	ewmaRate   float64 // EWMA of per-delivery scenarios/execute-second

	// Fleet scrape state (scrape set). A worker that never answered a scrape
	// has no snapshot and reads not ready, not stale. One whose scrape fails
	// after a success goes stale and keeps its last good snapshot, so
	// operators see the freshest truth available, flagged as aging, rather
	// than a row flickering empty on every network blip.
	ready bool              // lease-aware readiness at the last good scrape
	stale bool              // the latest scrape failed after a success
	snap  *metrics.Snapshot // last good /v1/metrics snapshot
}

// Registry tracks workers and arbitrates lease admission.
type Registry struct {
	// MaxLeases caps concurrent leases per worker (0 = unlimited). Set
	// before Acquire is first called. The cap is what spreads a campaign's
	// shards across the fleet: without it, the first worker the heartbeat
	// promotes — its probe answering before the others' — absorbs every
	// shard.
	MaxLeases int

	mu      sync.Mutex
	workers map[string]*worker
	// wait is closed and remade whenever a worker becomes acquirable
	// (heartbeat up-transition, lease release) or goes down (which can lift
	// an Acquire's exclusion), waking Acquire.
	wait chan struct{}

	probe ProbeFunc
	// scrape, when set (Config.FleetObs), makes each worker's heartbeat
	// round also fetch its metrics for the fleet document.
	scrape scrapeFunc
	m      *Metrics
	log    *slog.Logger
}

// NewRegistry builds a registry over the static worker URLs. Every worker
// starts down, static or joined; the first heartbeat round promotes the
// live ones. URLs are normalized (normURL) on the way in, so a worker named
// twice — statically and by its own join — is one worker.
func NewRegistry(static []string, probe ProbeFunc, m *Metrics, log *slog.Logger) *Registry {
	r := &Registry{
		workers: map[string]*worker{},
		wait:    make(chan struct{}),
		probe:   probe,
		m:       m,
		log:     log,
	}
	for _, url := range static {
		if url = normURL(url); url == "" {
			continue
		}
		r.workers[url] = &worker{url: url, static: true, down: make(chan struct{})}
	}
	r.gaugesLocked()
	return r
}

// normURL is the registry's one spelling of a worker base URL: without a
// trailing slash, the form the /v1 client appends paths to.
func normURL(url string) string { return strings.TrimRight(url, "/") }

// gaugesLocked refreshes the registered/up gauges. Callers hold r.mu.
func (r *Registry) gaugesLocked() {
	if r.m == nil {
		return
	}
	up := 0
	for _, w := range r.workers {
		if w.up {
			up++
		}
	}
	r.m.WorkersRegistered.Set(float64(len(r.workers)))
	r.m.WorkersUp.Set(float64(up))
}

// sortedLocked lists the registered workers in URL order, the tie-break
// that keeps lease admission deterministic and every rendering
// byte-stable. Callers hold r.mu.
func (r *Registry) sortedLocked() []*worker {
	ws := make([]*worker, 0, len(r.workers))
	for _, w := range r.workers {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].url < ws[j].url })
	return ws
}

// walk visits every worker in URL order under the lock.
func (r *Registry) walk(fn func(w *worker)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.sortedLocked() {
		fn(w)
	}
}

// wakeLocked signals every Acquire waiter. Callers hold r.mu.
func (r *Registry) wakeLocked() {
	close(r.wait)
	r.wait = make(chan struct{})
}

// Join registers a worker URL (self-registration) and returns the registry
// size. A join changes no worker's state: a new worker starts down, like a
// static one, and only the heartbeat's probe verdict promotes it — a worker
// announcing itself is not evidence that it should receive a lease.
func (r *Registry) Join(url string) int {
	url = normURL(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.workers[url] == nil {
		r.workers[url] = &worker{url: url, down: make(chan struct{})}
		r.gaugesLocked()
	}
	return len(r.workers)
}

// Empty reports whether no workers are registered at all — the condition
// under which the coordinator degrades straight to local execution.
func (r *Registry) Empty() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers) == 0
}

// AnyUp reports whether at least one worker answered its last probe. An
// Acquire timeout with AnyUp true means the fabric is saturated, not
// unreachable — the shard should keep waiting, not degrade to local.
func (r *Registry) AnyUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if w.up {
			return true
		}
	}
	return false
}

// apply records one probe verdict (err nil: ready) — the only path that
// moves a worker up or down. One success promotes and clears the failure
// streak; DefaultDownAfter consecutive failures demote, closing the
// up-epoch's down channel so the worker's in-flight leases cancel.
func (r *Registry) apply(url string, err error) {
	r.mu.Lock()
	w := r.workers[url]
	if w == nil {
		r.mu.Unlock()
		return
	}
	if err == nil {
		w.fails = 0
		if !w.up {
			w.up = true
			w.down = make(chan struct{})
			r.wakeLocked()
			r.gaugesLocked()
		}
		r.mu.Unlock()
		return
	}
	w.fails++
	demote := w.up && w.fails >= DefaultDownAfter
	if demote {
		w.up = false
		close(w.down)
		r.wakeLocked() // an Acquire excluding another worker may now take that one
		if r.m != nil {
			r.m.WorkerDowns.Inc()
		}
		r.gaugesLocked()
	}
	r.mu.Unlock()
	if demote && r.log != nil {
		r.log.Warn("fabric worker down", "worker", url, "err", err)
	}
}

// Heartbeat probes every registered worker on the interval until ctx ends.
// The first round runs immediately, so workers registered before it —
// static or joined — become acquirable without waiting a full interval.
func (r *Registry) Heartbeat(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		r.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probeAll runs one heartbeat round, probing workers concurrently so one
// black-holed TCP connect cannot stall the verdict on the others.
func (r *Registry) probeAll(ctx context.Context) {
	var urls []string
	r.walk(func(w *worker) { urls = append(urls, w.url) })
	var wg sync.WaitGroup
	for _, url := range urls {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			r.probeWorker(ctx, url)
		}(url)
	}
	wg.Wait()
	if r.scrape != nil && r.m != nil {
		stale := 0
		r.walk(func(w *worker) {
			if w.stale {
				stale++
			}
		})
		r.m.FleetWorkersStale.Set(float64(stale))
	}
}

// probeWorker runs one worker's share of a heartbeat round within one
// DefaultProbeTimeout budget: the lease-aware readiness probe, whose verdict
// is applied at once so lease admission and down-cancellation never wait on
// telemetry, then, with scrape set, the metrics fetch.
func (r *Registry) probeWorker(ctx context.Context, url string) {
	ctx, cancel := context.WithTimeout(ctx, DefaultProbeTimeout)
	defer cancel()
	err := r.probe(ctx, url)
	r.apply(url, err)
	if r.scrape == nil {
		return
	}
	snap, serr := r.scrape(ctx, url)
	r.noteScrape(url, err == nil, snap, serr)
}

// noteScrape folds one scrape into the worker's fleet row: a success records
// the readiness verdict and the fresh snapshot, a failure after a success
// marks the row stale and keeps the last good snapshot.
func (r *Registry) noteScrape(url string, ready bool, snap *metrics.Snapshot, err error) {
	if r.m != nil {
		r.m.FleetScrapes.Inc()
		if err != nil {
			r.m.FleetScrapeErrors.Inc()
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[url]
	if w == nil {
		return
	}
	if err != nil {
		if w.snap != nil {
			w.ready, w.stale = false, true
		}
		if r.log != nil {
			r.log.Debug("fleet scrape failed", "worker", url, "err", err)
		}
		return
	}
	w.ready, w.stale, w.snap = ready, false, snap
}

// WorkerRef is one granted admission slot on a worker: the shard lease's
// view of it. Down() fires if the worker is declared dead while the lease
// runs; Release returns the slot (idempotent).
type WorkerRef struct {
	URL  string
	down <-chan struct{}

	r    *Registry
	once sync.Once
}

// Down returns the channel closed when the worker's current up-epoch ends.
func (ref *WorkerRef) Down() <-chan struct{} { return ref.down }

// Release returns the admission slot to the registry.
func (ref *WorkerRef) Release() {
	ref.once.Do(func() {
		ref.r.mu.Lock()
		if w := ref.r.workers[ref.URL]; w != nil && w.leases > 0 {
			w.leases--
		}
		ref.r.wakeLocked()
		ref.r.mu.Unlock()
	})
}

// Acquire blocks until an up worker is available (returning the
// least-loaded one, URL-ordered for determinism among ties) or ctx ends
// (returning nil). Callers bound ctx with their acquire timeout; a nil
// return means "no reachable worker within the budget" and the shard
// degrades to local execution.
//
// exclude names the worker whose lease on the range just failed ("" for
// none). It is skipped while any other worker is up — waiting for a slot
// there if all of them are saturated — and granted only when no other
// worker is up, so a re-lease goes to a different node whenever one exists.
func (r *Registry) Acquire(ctx context.Context, exclude string) *WorkerRef {
	for {
		r.mu.Lock()
		var best, excluded *worker
		others := false
		for _, w := range r.sortedLocked() {
			if !w.up {
				continue
			}
			if w.url == exclude {
				excluded = w
				continue
			}
			others = true
			if r.admits(w) && (best == nil || w.leases < best.leases) {
				best = w
			}
		}
		if !others && excluded != nil && r.admits(excluded) {
			best = excluded
		}
		if best != nil {
			best.leases++
			ref := &WorkerRef{URL: best.url, down: best.down, r: r}
			r.mu.Unlock()
			return ref
		}
		wait := r.wait
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil
		case <-wait:
		}
	}
}

// admits reports whether an up worker has a lease slot free. Callers hold
// r.mu.
func (r *Registry) admits(w *worker) bool {
	return r.MaxLeases <= 0 || w.leases < r.MaxLeases
}

// EWMAAlpha weights the registry's latency/throughput moving averages: each
// delivery moves the average a quarter of the way to its own value, so the
// estimate tracks a drifting worker within a few shards without whipsawing
// on one outlier. The first delivery seeds the average directly.
const EWMAAlpha = 0.25

// NoteTiming credits one verified delivery's worker-reported timing to the
// registry's per-worker accounting, which the fleet snapshot's per-worker
// row reports (fabrictop shows it; nothing in the control path reads it).
// Deliveries without timing (an old
// worker binary) still count toward delivered/scenarios so lease-load
// attribution stays truthful.
func (r *Registry) NoteTiming(url string, scenarios, cacheHits int, t *api.Timing) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[url]
	if w == nil {
		return
	}
	w.delivered++
	w.scenarios += scenarios
	w.cacheHits += cacheHits
	if t == nil {
		return
	}
	w.phaseQueue += t.QueueWaitSeconds
	w.phaseExec += t.ExecuteSeconds
	w.phasePub += t.PublishSeconds
	if w.delivered == 1 {
		w.ewmaShard = t.ExecuteSeconds
	} else {
		w.ewmaShard += EWMAAlpha * (t.ExecuteSeconds - w.ewmaShard)
	}
	if t.ExecuteSeconds > 0 {
		rate := float64(scenarios) / t.ExecuteSeconds
		if w.delivered == 1 {
			w.ewmaRate = rate
		} else {
			w.ewmaRate += EWMAAlpha * (rate - w.ewmaRate)
		}
	}
}

// Fleet is the registry's one rendering — its share of the /v1/fleet
// document and the "fleet" SSE beat: one URL-sorted row per worker, and the
// order-stable merge of every retained metrics snapshot in the same order
// (nil before any scrape). A pure function of registry state, so two
// renderings without an intervening delivery or heartbeat round are
// byte-identical.
func (r *Registry) Fleet() *api.FleetSnapshot {
	fs := &api.FleetSnapshot{Workers: []api.FleetWorker{}}
	var mergeErr error
	r.walk(func(w *worker) {
		fs.Workers = append(fs.Workers, api.FleetWorker{
			URL:       w.url,
			Up:        w.up,
			Static:    w.static,
			Leases:    w.leases,
			Delivered: w.delivered,
			Scenarios: w.scenarios,
			CacheHits: w.cacheHits,
			PhaseTotals: api.PhaseSeconds{
				QueueWait: w.phaseQueue,
				Execute:   w.phaseExec,
				Publish:   w.phasePub,
			},
			EWMAShardSeconds:    w.ewmaShard,
			EWMAScenariosPerSec: w.ewmaRate,
			Ready:               w.ready,
			Stale:               w.stale,
		})
		if w.snap == nil {
			return
		}
		if fs.Metrics == nil {
			fs.Metrics = &metrics.Snapshot{}
		}
		if err := fs.Metrics.Merge(w.snap); err != nil && mergeErr == nil {
			mergeErr = fmt.Errorf("worker %s: %w", w.url, err)
		}
	})
	if mergeErr != nil && r.log != nil {
		// Incompatible layouts across workers (skewed binaries): serve the
		// rows and what merged, and say so.
		r.log.Warn("fleet metrics merge failed", "err", mergeErr)
	}
	return fs
}

// defaultProbe is the production ProbeFunc: a lease-aware /readyz probe
// through the typed client. The probe rides the coordinator's transport —
// under a netchaos plan, heartbeats suffer the partition too, exactly as a
// real outage would play out.
func defaultProbe(needCache bool, rt http.RoundTripper) ProbeFunc {
	return func(ctx context.Context, url string) error {
		return faultdclient.New(url).WithTransport(rt).Ready(ctx, true, needCache)
	}
}

// defaultScrape is the production scrapeFunc over the same transport. It
// does not retry: the next heartbeat round is the retry, and a backoff
// curve inside the round would hold every worker's next probe behind one
// dead worker's scrape.
func defaultScrape(rt http.RoundTripper) scrapeFunc {
	return func(ctx context.Context, url string) (*metrics.Snapshot, error) {
		cl := faultdclient.New(url).WithTransport(rt)
		cl.Retries = -1
		return cl.Metrics(ctx)
	}
}
