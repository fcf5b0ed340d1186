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
//     self-registrations, kept honest by lease-aware /readyz heartbeats.
//   - Shards: contiguous global-index ranges of the (globally normalized)
//     scenario set, so per-position IDs are stamped once by the coordinator
//     and survive the trip through a worker untouched.
//   - Leases: a shard is handed to a worker as an ordinary /v1 campaign job
//     and the coordinator waits at most the lease TTL; TTL expiry, worker
//     death (heartbeat loss cancels the wait immediately), and transport
//     errors all end the lease, and the shard is re-leased to another live
//     worker with capped jittered backoff.
//   - Exactly-once: results land in index-addressed slots guarded by a
//     mutex; a late delivery from an "expired" lease racing the re-leased
//     worker's is dropped and counted, and cacheable results are published
//     to the shared result store under their ScenarioDigest.
//   - State log: every lease event and delivered result is journaled
//     (torn-tail tolerant), so a coordinator killed -9 resumes mid-campaign
//     with its re-lease counters intact.
//   - Degradation: zero reachable workers means the coordinator runs the
//     shard itself through the local engine — the fabric never produces
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
	"dmafault/internal/fleetobs"
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
	// DefaultHeartbeat paces the registry's readiness probes.
	DefaultHeartbeat = time.Second
	// DefaultProbeTimeout bounds one readiness probe. Deliberately decoupled
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
	// Heartbeat paces readiness probes (0: DefaultHeartbeat).
	Heartbeat time.Duration
	// ProbeTimeout bounds one readiness probe (0: DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// DownAfter is the consecutive probe failures that demote a worker
	// (0: DefaultDownAfter).
	DownAfter int
	// AcquireTimeout bounds the wait for an up worker before a shard runs
	// locally (0: DefaultAcquireTimeout).
	AcquireTimeout time.Duration
	// MaxLeaseAttempts bounds lease grants per shard before local fallback
	// (0: DefaultMaxLeaseAttempts).
	MaxLeaseAttempts int
	// MaxLeasesPerWorker caps concurrent leases per worker
	// (0: DefaultMaxLeasesPerWorker, <0: unlimited).
	MaxLeasesPerWorker int
	// NeedCache requires workers to run a shared result cache: the
	// heartbeat probes /readyz?lease=1&need_cache=1 and cache-less nodes
	// stay down.
	NeedCache bool
	// JournalPath, when set, is the coordinator state log; with Resume a
	// killed coordinator picks the campaign back up from it.
	JournalPath string
	Resume      bool
	// Store, when set, receives every cacheable delivered result under its
	// ScenarioDigest and accelerates local-fallback execution.
	Store campaign.Store
	// LocalWorkers is the engine pool size for locally executed shards
	// (0: one per CPU).
	LocalWorkers int
	// JobWorkers is the Workers field on submitted shard jobs (0: the
	// worker node's default).
	JobWorkers int
	// Log receives coordinator diagnostics; nil discards them.
	Log *slog.Logger
	// Hub, when set, receives the merged shard event stream: every leased
	// job's SSE events re-published with shard/worker context, plus the
	// coordinator's own result events. Serve it via Handler.
	Hub *obs.Hub
	// OnResult, if set, observes each delivered result (any goroutine).
	OnResult func(index int, r *campaign.Result)
	// Probe overrides the readiness probe (tests); nil uses the lease-aware
	// /readyz probe through the typed client.
	Probe ProbeFunc
	// NewClient overrides worker client construction (tests); nil builds
	// faultdclient.New with fabric-tuned retry caps.
	NewClient func(url string) *faultdclient.Client
	// Transport, when set, underlies every worker-bound HTTP exchange —
	// leases, polls, heartbeat probes. This is the injection point for a
	// netchaos fault plan: one deterministic transport, and every byte the
	// coordinator exchanges with the fleet rides through it. nil uses the
	// default transport. Ignored by NewClient/Probe overrides.
	Transport http.RoundTripper
	// StealAfter enables straggler work stealing: a shard lease still
	// outstanding after this long is speculatively re-leased to an idle
	// worker, both leases race, and the exactly-once gate drops the loser's
	// results (0: disabled).
	StealAfter time.Duration
	// ByzantineThreshold is the consecutive integrity-rejected deliveries
	// that quarantine a worker (0: DefaultByzantineAfter).
	ByzantineThreshold int
	// ByzantineProbeAfter is the quarantine half-open window: how long after
	// the trip the worker may receive one probe lease
	// (0: DefaultByzantineProbeAfter).
	ByzantineProbeAfter time.Duration
	// FleetObs enables the fleet telemetry plane (internal/fleetobs): a
	// scrape loop over every registered worker's /v1/metrics + /readyz,
	// GET /v1/fleet on the coordinator surface, and periodic "fleet" SSE
	// events on the hub. Pure observability — summary bytes are identical
	// with the plane on or off (test-enforced).
	FleetObs bool
	// FleetInterval paces fleet scrape rounds (0: fleetobs.DefaultInterval).
	FleetInterval time.Duration
}

func (c Config) shardSize() int {
	if c.ShardSize > 0 {
		return c.ShardSize
	}
	return DefaultShardSize
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return DefaultHeartbeat
}

func (c Config) probeTimeout() time.Duration {
	if c.ProbeTimeout > 0 {
		return c.ProbeTimeout
	}
	return DefaultProbeTimeout
}

func (c Config) downAfter() int {
	if c.DownAfter > 0 {
		return c.DownAfter
	}
	return DefaultDownAfter
}

func (c Config) acquireTimeout() time.Duration {
	if c.AcquireTimeout > 0 {
		return c.AcquireTimeout
	}
	return DefaultAcquireTimeout
}

func (c Config) maxLeaseAttempts() int {
	if c.MaxLeaseAttempts > 0 {
		return c.MaxLeaseAttempts
	}
	return DefaultMaxLeaseAttempts
}

func (c Config) maxLeasesPerWorker() int {
	switch {
	case c.MaxLeasesPerWorker > 0:
		return c.MaxLeasesPerWorker
	case c.MaxLeasesPerWorker < 0:
		return 0 // unlimited
	}
	return DefaultMaxLeasesPerWorker
}

func (c Config) byzantineThreshold() int {
	if c.ByzantineThreshold > 0 {
		return c.ByzantineThreshold
	}
	return DefaultByzantineAfter
}

func (c Config) byzantineProbeAfter() time.Duration {
	if c.ByzantineProbeAfter > 0 {
		return c.ByzantineProbeAfter
	}
	return DefaultByzantineProbeAfter
}

// shard is one contiguous global-index range [Start, End) of the scenario
// set.
type shard struct {
	Idx, Start, End int
}

// Coordinator runs one distributed campaign. Build with New, run with Run;
// Handler serves the supervision surface for the run's duration.
type Coordinator struct {
	cfg   Config
	m     *Metrics
	reg   *Registry
	log   *slog.Logger
	fleet *fleetobs.Plane // nil unless cfg.FleetObs

	mu        sync.Mutex
	scs       []campaign.Scenario // globally normalized set
	results   []*campaign.Result  // index-addressed, exactly-once
	delivered int
	state     *StateLog

	// backoffs is the per-shard re-lease backoff curve, keyed by shard
	// index. An entry exists only while the shard is failing: a successful
	// delivery deletes it, so the next failure — possibly minutes later,
	// injected by chaos — restarts from the base instead of resuming a
	// maxed-out curve.
	backoffMu sync.Mutex
	backoffs  map[int]time.Duration

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
	probe := cfg.Probe
	if probe == nil {
		probe = defaultProbe(cfg.NeedCache, cfg.probeTimeout(), cfg.Transport)
	}
	reg := NewRegistry(cfg.Workers, probe, m, log)
	reg.MaxLeases = cfg.maxLeasesPerWorker()
	reg.DownAfter = cfg.downAfter()
	reg.ByzantineAfter = cfg.byzantineThreshold()
	reg.ProbeAfter = cfg.byzantineProbeAfter()
	c := &Coordinator{
		cfg: cfg,
		m:   m,
		reg: reg,
		log: log,
	}
	if cfg.FleetObs {
		c.fleet = fleetobs.New(fleetobs.Config{
			Interval:  cfg.FleetInterval,
			Workers:   reg.FleetState,
			Campaign:  c.campaignState,
			NewClient: cfg.NewClient,
			Transport: cfg.Transport,
			Hub:       cfg.Hub,
			Log:       log,
		})
	}
	return c
}

// campaignState is the fleet plane's progress source: nil before Run seeds
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

// Fleet exposes the fleet telemetry plane (nil unless Config.FleetObs).
func (c *Coordinator) Fleet() *fleetobs.Plane { return c.fleet }

// Metrics exposes the fabric instrument set (for /metrics and -fabric-metrics).
func (c *Coordinator) Metrics() *Metrics { return c.m }

// Registry exposes the worker registry (for the HTTP surface and tests).
func (c *Coordinator) Registry() *Registry { return c.reg }

// client builds the /v1 client for one worker, riding the configured
// transport so a netchaos plan sees every lease exchange.
func (c *Coordinator) client(url string) *faultdclient.Client {
	if c.cfg.NewClient != nil {
		return c.cfg.NewClient(url)
	}
	return faultdclient.New(url).WithTransport(c.cfg.Transport)
}

// Run executes the scenario set across the fabric and returns the merged
// summary — byte-identical to a single-node engine run of the same set.
func (c *Coordinator) Run(ctx context.Context, scenarios []campaign.Scenario) (*campaign.Summary, error) {
	// Normalize the FULL set here, so every scenario's position-derived ID
	// is stamped against its global index. Workers re-normalize shard
	// slices with shard-local indexes, but Normalize never overwrites a
	// non-empty ID — global identity survives the trip.
	scs := make([]campaign.Scenario, len(scenarios))
	copy(scs, scenarios)
	for i := range scs {
		scs[i].Normalize(i)
		if err := scs[i].Validate(); err != nil {
			return nil, fmt.Errorf("scenario %d (%s): %w", i, scs[i].ID, err)
		}
	}
	c.mu.Lock()
	c.scs = scs
	c.results = make([]*campaign.Result, len(scs))
	c.delivered = 0
	c.mu.Unlock()
	c.backoffMu.Lock()
	c.backoffs = map[int]time.Duration{}
	c.backoffMu.Unlock()

	if c.cfg.JournalPath != "" {
		state, st, err := OpenStateLog(c.cfg.JournalPath, scs, c.cfg.shardSize(), c.cfg.Resume)
		if err != nil {
			return nil, err
		}
		defer state.Close()
		c.mu.Lock()
		c.state = state
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

	// The heartbeat and fleet scrape loops stop with the run and are waited
	// for, so nothing touches registry or fleet state after Run returns.
	hbCtx, stopHB := context.WithCancel(ctx)
	var loops sync.WaitGroup
	defer loops.Wait()
	defer stopHB()
	loops.Add(1)
	go func() {
		defer loops.Done()
		c.reg.Heartbeat(hbCtx, c.cfg.heartbeat())
	}()
	if c.fleet != nil {
		loops.Add(1)
		go func() {
			defer loops.Done()
			c.fleet.Run(hbCtx)
		}()
	}

	err := par.ForEachCtx(ctx, len(shards), len(shards), func(ctx context.Context, i int) error {
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

// partition cuts the set into contiguous shards, skipping none — fully
// restored shards are detected per-lease (shardComplete) so their leases
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

// shardComplete reports whether every slot of the shard is delivered.
func (c *Coordinator) shardComplete(sh shard) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := sh.Start; i < sh.End; i++ {
		if c.results[i] == nil {
			return false
		}
	}
	return true
}

// runShard drives one shard of the partition to completion and counts it
// done exactly once — bisection may split the range into sub-ranges with
// their own lease histories, but fabric_shards_completed_total tracks the
// partition's shards, not the splits.
func (c *Coordinator) runShard(ctx context.Context, sh shard) error {
	if err := c.runShardRange(ctx, sh); err != nil {
		return err
	}
	c.m.ShardsDone.Inc()
	return nil
}

// nextBackoff returns the range's current re-lease backoff and advances the
// curve (doubled, capped at MaxReleaseBackoff).
func (c *Coordinator) nextBackoff(idx int) time.Duration {
	c.backoffMu.Lock()
	defer c.backoffMu.Unlock()
	d, ok := c.backoffs[idx]
	if !ok {
		d = DefaultReleaseBackoff
	}
	next := d * 2
	if next > MaxReleaseBackoff {
		next = MaxReleaseBackoff
	}
	c.backoffs[idx] = next
	return d
}

// resetBackoff returns the shard to the base of the curve. Called on every
// successful delivery: the path just proved itself healthy, and a failure
// minutes from now deserves a fresh fast retry, not the tail of an old
// incident's maxed-out curve.
func (c *Coordinator) resetBackoff(idx int) {
	c.backoffMu.Lock()
	delete(c.backoffs, idx)
	c.backoffMu.Unlock()
}

// errShardFatal marks a lease failure where the shard's own content is the
// prime suspect: the worker rejected the submission outright or the job
// executed and died. Only this class of failure arms bisection — expiry,
// timeouts, and corrupted deliveries are the fleet's problem, not the
// range's.
var errShardFatal = errors.New("fabric: shard killed its lease")

// runShardRange drives one index range [Start, End) to completion: lease to
// a live worker, re-lease on expiry with a capped jittered per-shard
// backoff, degrade to local execution when no worker is reachable, bisect
// when the range itself keeps killing leases.
func (c *Coordinator) runShardRange(ctx context.Context, sh shard) error {
	if c.shardComplete(sh) {
		return nil
	}
	// suspect records whether any failed lease showed evidence that the
	// range itself kills its host (the job executed and died, or the worker
	// rejected the submission outright) — as opposed to infrastructure
	// failures like TTL expiry, timeouts, or corrupted deliveries, which say
	// nothing about the scenarios.
	suspect := false
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if c.reg.Empty() {
			return c.runLocal(ctx, sh)
		}
		if attempt >= c.cfg.maxLeaseAttempts() {
			if suspect {
				// Workers exist and at least one lease died executing this
				// range: suspect the range, not the fleet. Bisect to corner
				// the scenario that keeps killing its hosts.
				return c.bisect(ctx, sh)
			}
			// Every failure was infrastructure (dead workers, expiries):
			// splitting the range would just re-lease into the same weather.
			return c.runLocal(ctx, sh)
		}
		acquireCtx, cancel := context.WithTimeout(ctx, c.cfg.acquireTimeout())
		ref := c.reg.Acquire(acquireCtx)
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
		ev := LeaseEvent{Shard: sh.Idx, Worker: ref.URL, Attempt: attempt}
		if attempt > 0 {
			c.m.Releases.Inc()
			if err := c.state.Released(ev); err != nil {
				ref.Release()
				return fmt.Errorf("fabric: state log: %w", err)
			}
			c.log.Info("fabric re-lease", "shard", sh.Idx, "worker", ref.URL, "attempt", attempt)
		}
		c.m.LeasesGranted.Inc()
		if err := c.state.Lease(ev); err != nil {
			ref.Release()
			return fmt.Errorf("fabric: state log: %w", err)
		}
		start := time.Now()
		err := c.runGrantedLease(ctx, sh, ref)
		ref.Release()
		if err == nil {
			c.m.ShardLatency.Observe(time.Since(start).Seconds())
			c.resetBackoff(sh.Idx)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, errShardFatal) {
			suspect = true
		}
		c.m.LeasesExpired.Inc()
		if serr := c.state.Expired(ev); serr != nil {
			return fmt.Errorf("fabric: state log: %w", serr)
		}
		c.log.Warn("fabric lease expired", "shard", sh.Idx, "worker", ref.URL,
			"attempt", attempt, "err", err)
		// Back off before the re-lease, jittered so failed shards do not
		// stampede the survivors, honoring a worker's Retry-After when the
		// failure carried one (the server knows its drain schedule).
		next := faultdclient.Jitter(c.nextBackoff(sh.Idx))
		var ae *faultdclient.APIError
		if errors.As(err, &ae) && ae.RetryAfter > next {
			next = ae.RetryAfter
		}
		if err := sleepCtx(ctx, next); err != nil {
			return err
		}
	}
}

// bisect splits a lease-exhausted range in half and drives each half with a
// fresh attempt budget. A poison scenario — one that reliably kills or
// stalls whatever worker executes its shard — fails every lease it rides
// in; halving per round corners it in log₂(size) rounds, the size-1 range
// it ends up in is quarantined to local execution, and the innocent
// scenarios it dragged down re-lease normally from the other halves.
func (c *Coordinator) bisect(ctx context.Context, sh shard) error {
	if c.shardComplete(sh) {
		return nil
	}
	if sh.End-sh.Start <= 1 {
		c.m.PoisonQuarantined.Inc()
		c.log.Warn("fabric poison scenario quarantined", "shard", sh.Idx, "index", sh.Start)
		return c.runLocal(ctx, sh)
	}
	c.m.BisectRounds.Inc()
	// The halves are new work items with their own failure histories; the
	// parent's backoff curve dies with it rather than taxing them.
	c.resetBackoff(sh.Idx)
	mid := sh.Start + (sh.End-sh.Start)/2
	c.log.Info("fabric bisect", "shard", sh.Idx,
		"range", fmt.Sprintf("[%d,%d)", sh.Start, sh.End), "mid", mid)
	if err := c.runShardRange(ctx, shard{Idx: sh.Idx, Start: sh.Start, End: mid}); err != nil {
		return err
	}
	return c.runShardRange(ctx, shard{Idx: sh.Idx, Start: mid, End: sh.End})
}

// runGrantedLease runs one granted lease, layering straggler stealing on
// when enabled.
func (c *Coordinator) runGrantedLease(ctx context.Context, sh shard, ref *WorkerRef) error {
	if c.cfg.StealAfter <= 0 {
		return c.runNotedLease(ctx, sh, ref)
	}
	return c.runLeaseStealing(ctx, sh, ref)
}

// runNotedLease runs one lease and feeds its verdict to the registry's
// byzantine accounting: a verified delivery heals, an integrity rejection
// strikes, and anything else — transport death, TTL expiry, cancellation —
// is neutral, saying nothing about the worker's honesty. A half-open probe
// lease ending neutral is withdrawn rather than judged.
func (c *Coordinator) runNotedLease(ctx context.Context, sh shard, ref *WorkerRef) error {
	err := c.runLease(ctx, sh, ref)
	switch {
	case err == nil:
		c.reg.NoteGoodDelivery(ref.URL)
	case errors.Is(err, errIntegrity) && ctx.Err() == nil:
		c.reg.NoteBadDelivery(ref.URL)
	default:
		if ref.Probe {
			c.reg.AbortProbe(ref.URL)
		}
	}
	return err
}

// runLeaseStealing waits on the primary lease but, once the steal delay
// elapses with the lease still outstanding, speculatively re-leases the
// range to an idle worker. Both leases then race; the exactly-once deliver
// gate silently drops the loser's results, so whichever valid delivery
// lands first wins and byte-identity is untouched. The thief is acquired
// non-blocking and only when fully idle — stealing spends spare capacity on
// tail latency and must never delay another shard's primary lease.
func (c *Coordinator) runLeaseStealing(ctx context.Context, sh shard, ref *WorkerRef) error {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	pdone := make(chan error, 1)
	go func() { pdone <- c.runNotedLease(pctx, sh, ref) }()

	timer := time.NewTimer(c.cfg.StealAfter)
	defer timer.Stop()
	select {
	case err := <-pdone:
		return err
	case <-timer.C:
	}
	thief := c.reg.AcquireIdle(ref.URL)
	if thief == nil {
		// No spare capacity; the primary remains the only lease.
		return <-pdone
	}
	c.m.Steals.Inc()
	c.m.LeasesGranted.Inc()
	if err := c.state.Lease(LeaseEvent{Shard: sh.Idx, Worker: thief.URL}); err != nil {
		thief.Release()
		return fmt.Errorf("fabric: state log: %w", err)
	}
	c.log.Info("fabric steal", "shard", sh.Idx, "primary", ref.URL, "thief", thief.URL)
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	tdone := make(chan error, 1)
	go func() {
		err := c.runNotedLease(sctx, sh, thief)
		thief.Release()
		tdone <- err
	}()

	// First resolution wins; the loser is cancelled only when the winner
	// actually delivered — a failed lease leaves the other as the range's
	// only hope and must not take it down too.
	var perr, terr error
	stealWon := false
	select {
	case perr = <-pdone:
		if perr == nil {
			scancel()
		}
		terr = <-tdone
		stealWon = terr == nil && perr != nil
	case terr = <-tdone:
		stealWon = terr == nil
		if stealWon {
			pcancel()
		}
		perr = <-pdone
	}
	if stealWon {
		c.m.StealWins.Inc()
		c.log.Info("fabric steal won", "shard", sh.Idx, "thief", thief.URL)
	}
	if perr != nil && terr != nil {
		// Both died; close out the thief's grant here, the caller closes the
		// primary's when it sees the returned error.
		if err := c.closeExpired(sh, thief.URL, terr); err != nil {
			return err
		}
		return perr
	}
	// Delivered. Close out the losing grant's ledger entry so every grant
	// still resolves to exactly one delivery or expiry.
	if perr != nil {
		if err := c.closeExpired(sh, ref.URL, perr); err != nil {
			return err
		}
	}
	if terr != nil {
		if err := c.closeExpired(sh, thief.URL, terr); err != nil {
			return err
		}
	}
	return nil
}

// closeExpired ends one lease's ledger entry without triggering a re-lease:
// the range was handled by the racing lease, but every grant must resolve
// to a delivery or an expiry so resumed counters stay truthful.
func (c *Coordinator) closeExpired(sh shard, url string, cause error) error {
	c.m.LeasesExpired.Inc()
	if err := c.state.Expired(LeaseEvent{Shard: sh.Idx, Worker: url}); err != nil {
		return fmt.Errorf("fabric: state log: %w", err)
	}
	c.log.Info("fabric lease lost steal race", "shard", sh.Idx, "worker", url, "err", cause)
	return nil
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
		Workers:   c.cfg.JobWorkers,
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
		var ae *faultdclient.APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusInternalServerError {
			// The worker looked at this shard and died on the spot — that is
			// evidence against the range, not the weather.
			return fmt.Errorf("%w: submit: %w", errShardFatal, err)
		}
		return fmt.Errorf("submit: %w", err)
	}
	if c.cfg.Hub != nil {
		go c.forwardEvents(leaseCtx, cl, acc.ID, sh, ref.URL)
	}
	job, err := c.pollTerminal(leaseCtx, cl, acc.ID)
	if err != nil {
		c.cancelAbandoned(cl, acc.ID, sh)
		return fmt.Errorf("wait: %w", err)
	}
	if job.Status != api.StatusDone {
		// The job ran and died (failed, stalled, quarantined): the strongest
		// evidence a scenario in this range kills its host.
		return fmt.Errorf("%w: job %d finished %s: %s", errShardFatal, acc.ID, job.Status, job.Error)
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

// forwardEvents re-publishes one leased job's SSE stream into the
// coordinator hub. Purely operator data: a broken stream is dropped, never
// retried — the lease's own WaitTerminal is the control path.
func (c *Coordinator) forwardEvents(ctx context.Context, cl *faultdclient.Client, id int, sh shard, worker string) {
	_, _ = cl.Watch(ctx, id, func(ev faultdclient.Event) error {
		c.cfg.Hub.Publish(obs.StreamEvent{Type: "shard", Data: shardStreamEvent{
			Shard: sh.Idx, Worker: worker, Event: ev.Type, Data: ev.Data,
		}})
		return nil
	})
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
	var digest campaign.Digest
	if fromWorker && c.cfg.Store != nil && campaign.Cacheable(r) {
		digest = campaign.ScenarioDigest(c.scs[global])
	}
	state := c.state
	c.mu.Unlock()
	if err := state.Result(global, r); err != nil {
		return fmt.Errorf("fabric: state log: %w", err)
	}
	if digest != (campaign.Digest{}) {
		// Store the position-independent copy, mirroring the engine's own
		// put: the ID is index-derived, the digest is ID-blanked.
		rr := *r
		rr.ID = ""
		if err := c.cfg.Store.Put(digest, &rr); err != nil {
			return fmt.Errorf("fabric: resultstore: %w", err)
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
// when the fabric is empty or unreachable, and the guarantee that a
// distributed campaign never does worse than a single-node one. Runs are
// serialized: concurrent falling-back shards would each boot a full worker
// pool and thrash the host.
func (c *Coordinator) runLocal(ctx context.Context, sh shard) error {
	c.m.LocalFallback.Inc()
	c.log.Info("fabric local fallback", "shard", sh.Idx)
	c.localMu.Lock()
	defer c.localMu.Unlock()
	c.mu.Lock()
	specs := make([]campaign.Scenario, sh.End-sh.Start)
	copy(specs, c.scs[sh.Start:sh.End])
	completed := map[int]*campaign.Result{}
	for i := sh.Start; i < sh.End; i++ {
		if c.results[i] != nil {
			completed[i-sh.Start] = c.results[i]
		}
	}
	c.mu.Unlock()
	eng := campaign.Engine{
		Workers:   c.cfg.LocalWorkers,
		Cache:     c.cfg.Store,
		Completed: completed,
	}
	sum, err := eng.RunCtx(ctx, specs)
	if err != nil {
		return fmt.Errorf("fabric: local shard %d: %w", sh.Idx, err)
	}
	for i, r := range sum.Results {
		if completed[i] != nil {
			continue // restored before the fallback, already delivered
		}
		if err := c.deliver(sh.Start+i, r, false); err != nil {
			return err
		}
	}
	return nil
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Handler serves the coordinator's supervision surface: join, worker
// listing, merged SSE stream, fabric metrics, liveness.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("POST /v1/fabric/join", c.handleJoin)
	mux.HandleFunc("GET /v1/fabric/workers", c.handleWorkers)
	mux.HandleFunc("GET /v1/fabric/events", c.handleEvents)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	return mux
}
