// Package fabric distributes one campaign across many dmafaultd nodes and
// merges the results byte-identically with a single-node run. The engine
// makes this possible — scenarios are independent and deterministic, and
// the summary is aggregated in input order from index-addressed slots — so
// the fabric's real job is surviving the distribution: workers die
// mid-shard, hang, answer late, or never existed, and the coordinator must
// re-lease, deduplicate, journal, and degrade without ever changing a byte
// of the final summary.
//
// The moving parts:
//
//   - Registry: static -worker-urls plus POST /v1/fabric/join
//     self-registrations, promoted and demoted only by lease-aware /readyz
//     heartbeats, and rendered only as the GET /v1/fleet document (with
//     FleetObs, each round also scrapes the workers' metrics into it).
//   - Shards: contiguous global-index ranges of the (globally normalized)
//     scenario set, so per-position IDs are stamped once by the coordinator
//     and survive the trip through a worker untouched.
//   - Leases: a shard is handed to a worker as an ordinary /v1 campaign job
//     whose event stream the coordinator follows to its terminal status,
//     for at most the lease TTL; TTL expiry, worker death (heartbeat loss
//     cancels the wait immediately), and transport errors all end the
//     lease, and the shard is re-leased to another live worker with capped
//     jittered backoff.
//   - Exactly-once: results land in index-addressed slots guarded by a
//     mutex; a late delivery from an "expired" lease racing the re-leased
//     worker's is dropped and counted, and cacheable results are published
//     to the shared result store under their ScenarioDigest.
//   - Journal: every delivered result and lease event is appended to an
//     ordinary campaign journal (torn-tail tolerant), so a coordinator
//     killed -9 resumes mid-campaign with its re-lease counters intact, and
//     a single-node run can finish what the fabric started, or the reverse.
//   - Degradation: zero reachable workers, or a range whose leases failed
//     MaxLeaseAttempts times for any reason, means the coordinator runs the
//     range itself through the local engine — the fabric never produces
//     less than a single-node run would.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
	"dmafault/internal/obs"
	"dmafault/internal/par"
)

// Defaults for Config's zero values.
const (
	// DefaultShardSize is how many scenarios ride in one lease.
	DefaultShardSize = 8
	// DefaultLeaseTTL bounds one lease: submit + worker queue wait +
	// execution + result fetch.
	DefaultLeaseTTL = 2 * time.Minute
	// DefaultHeartbeat paces the registry's readiness probes, the "fleet"
	// SSE beat and, with FleetObs, the metrics scrapes.
	DefaultHeartbeat = time.Second
	// DefaultProbeTimeout bounds one worker's heartbeat round: the readiness
	// probe plus, with FleetObs, the metrics scrape. Deliberately decoupled
	// from the heartbeat interval: a worker busy executing a shard may
	// answer /readyz slowly, and a probe budget of one heartbeat would flap
	// it down — cancelling its own in-flight leases.
	DefaultProbeTimeout = 2 * time.Second
	// DefaultDownAfter is how many consecutive probe failures demote a
	// worker. One lost probe is load, not death; demotion cancels the
	// worker's in-flight leases, so it must not fire on a blip.
	DefaultDownAfter = 2
	// DefaultAcquireTimeout is how long a shard waits for an up worker
	// before degrading to local execution.
	DefaultAcquireTimeout = 10 * time.Second
	// DefaultMaxLeaseAttempts bounds re-leases per shard before the
	// coordinator gives up on the fabric and runs the shard locally.
	DefaultMaxLeaseAttempts = 3
	// DefaultMaxLeasesPerWorker caps concurrent shard leases on one worker:
	// one executing plus one queued keeps a node's pipeline full without
	// letting the first worker up absorb the whole campaign while the rest
	// are still being probed.
	DefaultMaxLeasesPerWorker = 2
	// DefaultReleaseBackoff is the base wait before re-leasing a failed
	// shard, doubled per attempt, jittered, and overridden by a worker's
	// Retry-After hint.
	DefaultReleaseBackoff = 250 * time.Millisecond
	// MaxReleaseBackoff caps the re-lease backoff curve.
	MaxReleaseBackoff = 5 * time.Second
)

// Config parameterizes a Coordinator. The zero value distributes nothing —
// no workers, no journal — and degrades to a plain local campaign run.
type Config struct {
	// Workers are static worker base URLs known at start; more may join at
	// runtime through the coordinator's HTTP surface.
	Workers []string
	// ShardSize is scenarios per lease (0: DefaultShardSize).
	ShardSize int
	// LeaseTTL bounds one lease's wall clock (0: DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Heartbeat paces readiness probes and the "fleet" SSE beat
	// (0: DefaultHeartbeat).
	Heartbeat time.Duration
	// AcquireTimeout bounds the wait for an up worker before a shard runs
	// locally (0: DefaultAcquireTimeout).
	AcquireTimeout time.Duration
	// MaxLeaseAttempts bounds lease grants per shard before local fallback
	// (0: DefaultMaxLeaseAttempts).
	MaxLeaseAttempts int
	// MaxLeasesPerWorker caps concurrent leases per worker
	// (0: DefaultMaxLeasesPerWorker).
	MaxLeasesPerWorker int
	// NeedCache requires workers to run a shared result cache: the
	// heartbeat probes /readyz?lease=1&need_cache=1 and cache-less nodes
	// stay down.
	NeedCache bool
	// JournalPath, when set, is the campaign journal (campaign.OpenJournal)
	// the coordinator appends results and lease events to; with Resume a
	// killed coordinator, or a single-node run, picks the campaign back up
	// from it.
	JournalPath string
	Resume      bool
	// Store, when set, receives every cacheable delivered result under its
	// ScenarioDigest and accelerates local-fallback execution.
	Store campaign.Store
	// LocalWorkers is the engine pool size for locally executed shards
	// (0: one per CPU).
	LocalWorkers int
	// Log receives coordinator diagnostics; nil discards them.
	Log *slog.Logger
	// Hub, when set, receives the merged shard event stream: every leased
	// job's SSE events re-published with shard/worker context, plus the
	// coordinator's own result events. Serve it via Handler.
	Hub *obs.Hub
	// OnResult, if set, observes each delivered result (any goroutine).
	OnResult func(index int, r *campaign.Result)
	// Transport, when set, underlies every worker-bound HTTP exchange —
	// leases, event streams, heartbeat probes. This is the injection point
	// for a netchaos fault plan: one deterministic transport, and every byte
	// the coordinator exchanges with the fleet rides through it. nil uses
	// the default transport. Ignored by NewClient/Probe overrides.
	Transport http.RoundTripper
	// FleetObs makes every heartbeat round also scrape each worker's
	// /v1/metrics, filling the metrics and stale fields of the
	// /v1/fleet document. Opt-in because the scrape costs every round an
	// extra request per worker; pure observability — summary bytes are
	// identical with it on or off (test-enforced).
	FleetObs bool
}

// orDefault resolves a Config knob whose zero value means "the default".
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

func (c Config) shardSize() int { return orDefault(c.ShardSize, DefaultShardSize) }

func (c Config) leaseTTL() time.Duration { return orDefault(c.LeaseTTL, DefaultLeaseTTL) }

func (c Config) heartbeat() time.Duration { return orDefault(c.Heartbeat, DefaultHeartbeat) }

func (c Config) acquireTimeout() time.Duration {
	return orDefault(c.AcquireTimeout, DefaultAcquireTimeout)
}

func (c Config) maxLeaseAttempts() int {
	return orDefault(c.MaxLeaseAttempts, DefaultMaxLeaseAttempts)
}

func (c Config) maxLeasesPerWorker() int {
	return orDefault(c.MaxLeasesPerWorker, DefaultMaxLeasesPerWorker)
}

// shard is one contiguous global-index range [Start, End) of the scenario
// set.
type shard struct {
	Idx, Start, End int
}

// Coordinator runs one distributed campaign. Build with New, run with Run;
// Handler serves the supervision surface for the run's duration.
type Coordinator struct {
	cfg Config
	m   *Metrics
	reg *Registry
	log *slog.Logger

	mu        sync.Mutex
	scs       []campaign.Scenario // globally normalized set
	results   []*campaign.Result  // index-addressed, exactly-once
	delivered int
	journal   *campaign.Journal
	status    string // terminal status, recorded by PublishStatus

	localMu sync.Mutex // serializes local-fallback engine runs
}

// New builds a coordinator. The registry starts with the static workers;
// heartbeats begin when Run does.
func New(cfg Config) *Coordinator {
	m := NewMetrics()
	log := cfg.Log
	if log == nil {
		log = obs.Nop()
	}
	reg := NewRegistry(cfg.Workers, defaultProbe(cfg.NeedCache, cfg.Transport), m, log)
	reg.MaxLeases = cfg.maxLeasesPerWorker()
	if cfg.FleetObs {
		reg.scrape = defaultScrape(cfg.Transport)
	}
	return &Coordinator{cfg: cfg, m: m, reg: reg, log: log}
}

// campaignState is the fleet view's progress source: nil before Run seeds
// the scenario set, live counts afterwards.
func (c *Coordinator) campaignState() *api.FleetCampaign {
	c.mu.Lock()
	total, done := len(c.scs), c.delivered
	c.mu.Unlock()
	if total == 0 {
		return nil
	}
	return &api.FleetCampaign{
		ScenariosTotal: total,
		ScenariosDone:  done,
		ShardsTotal:    int(c.m.ShardsTotal.Value()),
		ShardsDone:     int(c.m.ShardsDone.Value()),
	}
}

// Fleet renders the GET /v1/fleet document: the registry's worker rows and
// merged worker metrics plus the campaign progress.
func (c *Coordinator) Fleet() *api.FleetSnapshot {
	fs := c.reg.Fleet()
	fs.Campaign = c.campaignState()
	return fs
}

// Metrics exposes the fabric instrument set (for /metrics and -fabric-metrics).
func (c *Coordinator) Metrics() *Metrics { return c.m }

// Registry exposes the worker registry (for the HTTP surface and tests).
func (c *Coordinator) Registry() *Registry { return c.reg }

// client builds the /v1 client for one worker, riding the configured
// transport so a netchaos plan sees every lease exchange.
func (c *Coordinator) client(url string) *faultdclient.Client {
	return faultdclient.New(url).WithTransport(c.cfg.Transport)
}

// Run executes the scenario set across the fabric and returns the merged
// summary — byte-identical to a single-node engine run of the same set.
func (c *Coordinator) Run(ctx context.Context, scenarios []campaign.Scenario) (*campaign.Summary, error) {
	// Normalize the FULL set here, so every scenario's position-derived ID
	// is stamped against its global index. Workers re-normalize shard
	// slices with shard-local indexes, but Normalize never overwrites a
	// non-empty ID — global identity survives the trip.
	scs, err := campaign.NormalizeSet(scenarios)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.scs = scs
	c.results = make([]*campaign.Result, len(scs))
	c.delivered = 0
	c.mu.Unlock()

	if c.cfg.JournalPath != "" {
		j, err := c.openJournal(scs)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		st := j.State()
		c.mu.Lock()
		c.journal = j
		for i, r := range st.Restored {
			c.results[i] = r
			c.delivered++
		}
		c.mu.Unlock()
		c.m.Replay(st)
		if len(st.Restored) > 0 {
			c.log.Info("fabric resume", "restored", len(st.Restored),
				"scenarios", len(scs), "releases", st.Released)
		}
	}

	shards := c.partition(len(scs))
	c.m.ShardsTotal.Set(float64(len(shards)))

	// The heartbeat stops with the run and is waited for, so nothing touches
	// registry state after Run returns.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	defer func() {
		stopHB()
		<-hbDone
	}()
	go func() {
		defer close(hbDone)
		c.reg.Heartbeat(hbCtx, c.cfg.heartbeat())
	}()

	err = par.ForEachCtx(ctx, len(shards), len(shards), func(ctx context.Context, i int) error {
		return c.runShard(ctx, shards[i])
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	results := c.results
	c.mu.Unlock()
	for i, r := range results {
		if r == nil {
			// Mirrors the engine's own guard: cancellation can leave empty
			// slots behind, and a summary over them would misreport.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("fabric: scenario %d missing after run", i)
		}
	}
	return campaign.Aggregate(results), nil
}

// openJournal opens the campaign journal at Config.JournalPath. Shard
// boundaries must not move under recorded lease events, so a resumed
// journal whose lease records use another shard size is refused; one with
// no lease records (a single-node run's) resumes under any shard size.
func (c *Coordinator) openJournal(scs []campaign.Scenario) (*campaign.Journal, error) {
	j, err := campaign.OpenJournal(c.cfg.JournalPath, scs, c.cfg.Resume)
	if err != nil {
		return nil, err
	}
	if got, want := j.State().ShardSize, c.cfg.shardSize(); got != 0 && got != want {
		j.Close()
		return nil, fmt.Errorf("fabric: journal %s: lease records use shard size %d, coordinator uses %d",
			c.cfg.JournalPath, got, want)
	}
	return j, nil
}

// journalLease appends one lease event to the journal, if there is one.
func (c *Coordinator) journalLease(event string, sh shard, worker string, attempt int) error {
	if c.journal == nil {
		return nil
	}
	err := c.journal.Lease(campaign.LeaseEvent{Event: event, Shard: sh.Idx,
		ShardSize: c.cfg.shardSize(), Worker: worker, Attempt: attempt})
	if err != nil {
		return fmt.Errorf("fabric: journal: %w", err)
	}
	return nil
}

// partition cuts the set into contiguous shards, skipping none — fully
// restored shards are detected per-lease (unfinished) so their leases
// no-op instantly.
func (c *Coordinator) partition(n int) []shard {
	size := c.cfg.shardSize()
	shards := make([]shard, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		shards = append(shards, shard{Idx: len(shards), Start: start, End: end})
	}
	return shards
}

// unfinished returns the maximal runs of undelivered slots in the shard's
// range, each under the shard's index; none once the range is delivered.
func (c *Coordinator) unfinished(sh shard) []shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	var runs []shard
	for i := sh.Start; i < sh.End; i++ {
		if c.results[i] != nil {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].End == i {
			runs[n-1].End++
		} else {
			runs = append(runs, shard{Idx: sh.Idx, Start: i, End: i + 1})
		}
	}
	return runs
}

// runShard drives one shard of the partition to completion and counts it
// done once: a resumed journal may split the range into unfinished runs with
// their own lease histories, but fabric_shards_completed_total tracks the
// partition's shards.
func (c *Coordinator) runShard(ctx context.Context, sh shard) error {
	if err := c.runShardRange(ctx, sh); err != nil {
		return err
	}
	c.m.ShardsDone.Inc()
	return nil
}

// nextBackoff advances the re-lease backoff curve one step: doubled,
// capped at MaxReleaseBackoff. The zero value starts the curve at
// DefaultReleaseBackoff.
func nextBackoff(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultReleaseBackoff
	}
	return min(2*d, MaxReleaseBackoff)
}

// runShardRange drives one index range [Start, End) to completion: lease to
// a live worker, re-lease a failed lease with a capped jittered backoff, and
// run the range on the local engine when no worker is reachable or its
// leases have failed MaxLeaseAttempts times, whatever the cause. A scenario
// that kills or hangs its host reaches the local engine that way, where the
// engine contains it as a panic or timeout result. A re-lease skips the
// worker whose lease just failed while any other worker is up
// (Registry.Acquire), so a worker that corrupts or drops its deliveries
// cannot eat a range's whole attempt budget while an honest one stands by.
func (c *Coordinator) runShardRange(ctx context.Context, sh shard) error {
	// A range a resumed journal partly restored leases only its unfinished
	// runs, so no restored scenario executes again.
	if runs := c.unfinished(sh); len(runs) != 1 || runs[0] != sh {
		for _, r := range runs {
			if err := c.runShardRange(ctx, r); err != nil {
				return err
			}
		}
		return nil
	}
	// The range's backoff curve lives only as long as this call: a range
	// ends at its first delivery.
	var backoff time.Duration
	failed := "" // the worker whose lease on this range failed last
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if c.reg.Empty() || attempt >= c.cfg.maxLeaseAttempts() {
			return c.runLocal(ctx, sh)
		}
		acquireCtx, cancel := context.WithTimeout(ctx, c.cfg.acquireTimeout())
		ref := c.reg.Acquire(acquireCtx, failed)
		cancel()
		if ref == nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if c.reg.AnyUp() {
				// Live workers exist but all are at their lease cap: the
				// fabric is saturated, not unreachable. Keep waiting — a
				// slot frees when any lease ends — without burning the
				// attempt budget.
				attempt--
				continue
			}
			// Workers are registered but none answered within the budget:
			// the fabric is unreachable, not merely busy. Degrade.
			return c.runLocal(ctx, sh)
		}
		if attempt > 0 {
			c.m.Releases.Inc()
			if err := c.journalLease(campaign.LeaseReleased, sh, ref.URL, attempt); err != nil {
				ref.Release()
				return err
			}
			c.log.Info("fabric re-lease", "shard", sh.Idx, "worker", ref.URL, "attempt", attempt)
		}
		c.m.LeasesGranted.Inc()
		if err := c.journalLease(campaign.LeaseGranted, sh, ref.URL, attempt); err != nil {
			ref.Release()
			return err
		}
		start := time.Now()
		err := c.runLease(ctx, sh, ref)
		ref.Release()
		if err == nil {
			c.m.ShardLatency.Observe(time.Since(start).Seconds())
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		failed = ref.URL
		c.m.LeasesExpired.Inc()
		if serr := c.journalLease(campaign.LeaseExpired, sh, ref.URL, attempt); serr != nil {
			return serr
		}
		c.log.Warn("fabric lease expired", "shard", sh.Idx, "worker", ref.URL,
			"attempt", attempt, "err", err)
		if attempt+1 >= c.cfg.maxLeaseAttempts() {
			continue // the budget is spent: run locally without waiting
		}
		// Back off before the re-lease, jittered so failed shards do not
		// stampede the survivors, honoring a worker's Retry-After when the
		// failure carried one (the server knows its drain schedule).
		backoff = nextBackoff(backoff)
		next := faultdclient.Jitter(backoff)
		var ae *faultdclient.APIError
		if errors.As(err, &ae) && ae.RetryAfter > next {
			next = ae.RetryAfter
		}
		if err := faultdclient.Sleep(ctx, next); err != nil {
			return err
		}
	}
}

// runLease executes one shard lease: submit the shard as an ordinary /v1
// campaign job, wait at most the lease TTL (cancelled early if the worker
// goes down), and deliver the results. Any error means the lease failed and
// the caller re-leases; a best-effort cancel stops the abandoned worker
// from burning cycles on results nobody will collect.
func (c *Coordinator) runLease(ctx context.Context, sh shard, ref *WorkerRef) error {
	leaseCtx, cancel := context.WithTimeout(ctx, c.cfg.leaseTTL())
	defer cancel()
	go func() {
		select {
		case <-ref.Down():
			cancel()
		case <-leaseCtx.Done():
		}
	}()
	cl := c.client(ref.URL)
	c.mu.Lock()
	specs := make([]campaign.Scenario, sh.End-sh.Start)
	copy(specs, c.scs[sh.Start:sh.End])
	c.mu.Unlock()
	acc, err := cl.Submit(leaseCtx, api.SubmitRequest{
		Name:      fmt.Sprintf("fabric-shard-%d", sh.Idx),
		Scenarios: specs,
	})
	if err != nil {
		if isTornBody(err) && leaseCtx.Err() == nil {
			// The 202 body tore in flight: the job may exist server-side but
			// its ID is unknowable, so the lease fails and re-leases. The
			// orphaned job (if any) burns worker cycles, never merges — its
			// results are never fetched.
			c.m.IntegrityRejected.Inc()
			return fmt.Errorf("%w: submit: %v", errIntegrity, err)
		}
		return fmt.Errorf("submit: %w", err)
	}
	job, err := c.awaitJob(leaseCtx, cl, acc.ID, sh, ref.URL)
	if err != nil {
		c.cancelAbandoned(cl, acc.ID, sh)
		return fmt.Errorf("wait: %w", err)
	}
	if job.Status != api.StatusDone {
		return fmt.Errorf("job %d finished %s: %s", acc.ID, job.Status, job.Error)
	}
	if err := c.verifyShard(sh, acc.ID, job); err != nil {
		c.m.IntegrityRejected.Inc()
		c.log.Warn("fabric delivery rejected", "shard", sh.Idx, "worker", ref.URL,
			"job", acc.ID, "err", err)
		return err
	}
	// The delivery verified: credit the worker's own phase breakdown to the
	// per-phase histograms and the registry's EWMA accounting. Timing rides
	// outside the results digest, so a corrupted Timing block can at worst
	// skew telemetry — never the merged summary.
	c.m.ObservePhases(ref.URL, job.Timing)
	c.reg.NoteTiming(ref.URL, len(job.Summary.Results), job.CacheHits, job.Timing)
	for i, r := range job.Summary.Results {
		if err := c.deliver(sh.Start+i, r, true); err != nil {
			return err
		}
	}
	return nil
}

// cancelAbandoned best-effort cancels a job whose lease expired. The fresh
// context is deliberate: the lease context is already dead.
func (c *Coordinator) cancelAbandoned(cl *faultdclient.Client, id int, sh shard) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := cl.Cancel(ctx, id); err != nil && !faultdclient.IsConflict(err) {
		c.log.Warn("fabric abandoned-job cancel failed", "shard", sh.Idx, "job", id, "err", err)
	}
}

// shardStreamEvent wraps a worker job's SSE event with fabric context for
// the merged stream.
type shardStreamEvent struct {
	Shard  int    `json:"shard"`
	Worker string `json:"worker"`
	Event  string `json:"event"`
	Data   any    `json:"data,omitempty"`
}

// awaitJob follows one leased job's event stream to its terminal status —
// re-publishing each event to the hub, when one is set, from the same
// callback — then fetches the job document once. A stream that fails or
// ends without a decodable status, and a torn document, are the network's
// fault: each is counted as an integrity rejection and retried, until the
// lease has spent tornBudget of them. A resubscribe loses nothing: the
// worker replays a finished job's status to a late subscriber.
func (c *Coordinator) awaitJob(ctx context.Context, cl *faultdclient.Client, id int, sh shard, worker string) (*api.Job, error) {
	var forward func(faultdclient.Event) error
	if c.cfg.Hub != nil {
		forward = func(ev faultdclient.Event) error {
			c.cfg.Hub.Publish(obs.StreamEvent{Type: "shard", Data: shardStreamEvent{
				Shard: sh.Idx, Worker: worker, Event: ev.Type, Data: ev.Data,
			}})
			return nil
		}
	}
	torn := 0
	tear := func(what string, err error) error {
		torn++
		c.m.IntegrityRejected.Inc()
		c.log.Warn("fabric torn "+what, "job", id, "torn", torn, "err", err)
		if torn < tornBudget {
			return nil
		}
		return fmt.Errorf("%w: %d torn streams or documents for job %d: %v", errIntegrity, torn, id, err)
	}
	for {
		status, err := cl.Watch(ctx, id, forward)
		if err == nil && status != "" {
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err == nil {
			err = errStreamEnded
		}
		if err := tear("job stream", err); err != nil {
			return nil, err
		}
	}
	for {
		job, err := cl.Get(ctx, id)
		if err == nil || !isTornBody(err) || ctx.Err() != nil {
			return job, err
		}
		if err := tear("job document", err); err != nil {
			return nil, err
		}
	}
}

// deliver lands one result in its global slot, exactly once. A duplicate —
// an expired lease's late results racing the re-leased worker's — is
// dropped and counted. Delivered results are journaled and, when cacheable,
// published to the shared store under the scenario's digest (fromWorker
// false skips the store: the local engine already wrote it).
func (c *Coordinator) deliver(global int, r *campaign.Result, fromWorker bool) error {
	c.mu.Lock()
	if c.results[global] != nil {
		c.mu.Unlock()
		c.m.DedupDropped.Inc()
		return nil
	}
	c.results[global] = r
	c.delivered++
	done, total := c.delivered, len(c.scs)
	spec := c.scs[global]
	j := c.journal
	c.mu.Unlock()
	if j != nil {
		if err := j.Record(global, r); err != nil {
			return fmt.Errorf("fabric: journal: %w", err)
		}
	}
	if fromWorker && c.cfg.Store != nil {
		if err := campaign.PutResult(c.cfg.Store, campaign.ScenarioDigest(spec), r); err != nil {
			return fmt.Errorf("fabric: %w", err)
		}
	}
	if c.cfg.Hub != nil {
		c.cfg.Hub.Publish(obs.StreamEvent{Type: "result", Data: map[string]any{
			"index": global, "id": r.ID, "outcome": campaign.ResultOutcome(r),
			"scenarios_done": done, "scenarios_total": total,
		}})
	}
	if c.cfg.OnResult != nil {
		c.cfg.OnResult(global, r)
	}
	return nil
}

// runLocal executes a shard through the local engine — the degradation path
// when the fabric is empty or unreachable, and the guarantee that a distributed
// campaign never does worse than a single-node one. Its ranges hold no
// delivered slot: runShardRange splits restored slots off first, and a
// verified delivery fills its whole range. Runs are serialized: concurrent
// falling-back shards would each boot a full worker pool and thrash the host.
func (c *Coordinator) runLocal(ctx context.Context, sh shard) error {
	c.m.LocalFallback.Inc()
	c.log.Info("fabric local fallback", "shard", sh.Idx)
	c.localMu.Lock()
	defer c.localMu.Unlock()
	c.mu.Lock()
	specs := make([]campaign.Scenario, sh.End-sh.Start)
	copy(specs, c.scs[sh.Start:sh.End])
	c.mu.Unlock()
	sum, err := campaign.Engine{Workers: c.cfg.LocalWorkers, Cache: c.cfg.Store}.RunCtx(ctx, specs)
	if err != nil {
		return fmt.Errorf("fabric: local shard %d: %w", sh.Idx, err)
	}
	for i, r := range sum.Results {
		if err := c.deliver(sh.Start+i, r, false); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the coordinator's supervision surface: join, the fleet
// document, merged SSE stream, fabric metrics, liveness.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("POST /v1/fabric/join", c.handleJoin)
	mux.HandleFunc("GET /v1/fabric/events", c.handleEvents)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	return mux
}
