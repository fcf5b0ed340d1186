package fabric

import (
	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
	"dmafault/internal/metrics"
)

// ShardLatencyBuckets are the fabric_shard_latency_seconds bounds: shard
// wall-clock from lease grant to delivered results, 10ms .. 100s. Wide on
// purpose — a shard's latency includes the worker's queue wait and any
// re-lease detour.
var ShardLatencyBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 25, 100}

// PhaseLatencyBuckets are the fabric_shard_phase_latency_seconds bounds.
// Tighter at the bottom than the whole-shard buckets: queue wait and publish
// are usually sub-millisecond on a healthy worker, and their drift upward is
// the early signal the whole-shard histogram blurs away.
var PhaseLatencyBuckets = []float64{0.001, 0.01, 0.05, 0.25, 1, 5, 25, 100}

// Metrics is the coordinator's fabric_* instrument set. Counters whose
// events are journaled (leases, expiries, re-leases) are campaign-scoped,
// not process-scoped: Replay restores them from the journal on resume, so
// a coordinator killed -9 mid-campaign still reports the re-leases it
// performed before dying. Everything else (gauges, dedup, latency) is
// process-local operator data.
type Metrics struct {
	reg *metrics.Registry

	// LeasesGranted counts every shard lease handed to a worker, including
	// re-grants.
	LeasesGranted *metrics.Counter
	// LeasesExpired counts leases that ended without delivering results:
	// TTL expiry, worker death mid-shard, submit/fetch failures.
	LeasesExpired *metrics.Counter
	// Releases counts re-leases: a shard granted to a worker after a prior
	// lease on the same shard failed. Releases > 0 is the proof the
	// dead-worker recovery path actually fired.
	Releases *metrics.Counter
	// ShardsTotal / ShardsDone report campaign shard progress.
	ShardsTotal *metrics.Gauge
	ShardsDone  *metrics.Counter
	// DedupDropped counts duplicate result deliveries suppressed by the
	// exactly-once gate — an expired lease's late results racing the
	// re-leased worker's.
	DedupDropped *metrics.Counter
	// LocalFallback counts shards the coordinator executed itself because
	// no worker was reachable.
	LocalFallback *metrics.Counter
	// WorkersRegistered / WorkersUp gauge the registry: how many workers
	// the fabric knows about and how many answered the last heartbeat.
	WorkersRegistered *metrics.Gauge
	WorkersUp         *metrics.Gauge
	// WorkerDowns counts up→down transitions observed by the heartbeat.
	WorkerDowns *metrics.Counter
	// ShardLatency is the grant→delivery wall-clock histogram.
	ShardLatency *metrics.Histogram
	// PhaseLatency splits delivered shards' wall-clock into the worker's own
	// phase breakdown, labeled {phase, worker}: the whole-shard histogram
	// answers "how slow", this one answers "slow where, on whom". A labeled
	// vec with no children emits nothing, so runs without timing-reporting
	// workers keep their exposition unchanged.
	PhaseLatency *metrics.HistogramVec

	// The byzantine-tolerance families below describe exceptional
	// conditions and are registered through metrics.OmitZero: absent from a
	// clean run's exposition, present the moment the condition fires — the
	// same convention the faultd supervision plane uses.

	// IntegrityRejected counts deliveries the coordinator refused: torn job
	// event streams and documents (failed, truncated or undecodable bodies)
	// and verification failures (result identity or digest mismatches
	// against the lease's shard).
	IntegrityRejected *metrics.Counter
	// BisectRounds counts shard splits performed to isolate a poison
	// scenario after a shard exhausted its lease-attempt budget.
	BisectRounds *metrics.Counter
	// PoisonQuarantined counts scenarios isolated by bisection and pulled
	// from fabric leasing into local execution.
	PoisonQuarantined *metrics.Counter

	// The fleet-view families count the heartbeat's metrics scrapes
	// (Config.FleetObs). They are telemetry about the scrape itself and stay
	// out of the /v1/fleet document, which must remain a pure function of
	// fleet state; OmitZero keeps them absent while the scrape is off.

	// FleetScrapes counts worker /v1/metrics scrapes attempted.
	FleetScrapes *metrics.Counter
	// FleetScrapeErrors counts failed /v1/metrics fetches; a failed
	// readiness probe is not counted here.
	FleetScrapeErrors *metrics.Counter
	// FleetWorkersStale gauges workers serving their last good snapshot
	// after a failed scrape.
	FleetWorkersStale *metrics.Gauge
}

// NewMetrics builds and registers the fabric instrument set.
func NewMetrics() *Metrics {
	m := &Metrics{
		reg: metrics.NewRegistry(),
		LeasesGranted: metrics.NewCounter("fabric_leases_granted_total",
			"Shard leases granted to workers, including re-grants."),
		LeasesExpired: metrics.NewCounter("fabric_leases_expired_total",
			"Shard leases that expired or failed without delivering results."),
		Releases: metrics.NewCounter("fabric_releases_total",
			"Shards re-leased to another worker after a failed or expired lease."),
		ShardsTotal: metrics.NewGauge("fabric_shards_total",
			"Shards the campaign was partitioned into."),
		ShardsDone: metrics.NewCounter("fabric_shards_completed_total",
			"Shards with every result delivered."),
		DedupDropped: metrics.NewCounter("fabric_dedup_dropped_total",
			"Duplicate result deliveries suppressed by the exactly-once gate."),
		LocalFallback: metrics.NewCounter("fabric_local_fallback_total",
			"Shards executed locally because no worker was reachable."),
		WorkersRegistered: metrics.NewGauge("fabric_workers_registered",
			"Workers known to the registry (static + joined)."),
		WorkersUp: metrics.NewGauge("fabric_workers_up",
			"Workers that answered the last lease-aware readiness probe."),
		WorkerDowns: metrics.NewCounter("fabric_worker_down_total",
			"Worker up-to-down transitions observed by the heartbeat."),
		ShardLatency: metrics.NewHistogram("fabric_shard_latency_seconds",
			"Shard wall-clock from lease grant to delivered results.", ShardLatencyBuckets),
		PhaseLatency: metrics.NewHistogramVec("fabric_shard_phase_latency_seconds",
			"Delivered-shard wall-clock split by worker-reported phase (queue_wait, execute, publish).",
			PhaseLatencyBuckets, "phase", "worker"),
		IntegrityRejected: metrics.NewCounter("fabric_integrity_rejected_total",
			"Deliveries rejected by result integrity verification: torn streams or documents and digest/identity mismatches."),
		BisectRounds: metrics.NewCounter("fabric_bisect_rounds_total",
			"Shard splits performed to isolate a poison scenario."),
		PoisonQuarantined: metrics.NewCounter("fabric_poison_quarantined_total",
			"Scenarios isolated by bisection and quarantined to local execution."),
		FleetScrapes: metrics.NewCounter("fleet_scrapes_total",
			"Worker scrapes attempted by the fleet plane."),
		FleetScrapeErrors: metrics.NewCounter("fleet_scrape_errors_total",
			"Worker /v1/metrics fetches that failed."),
		FleetWorkersStale: metrics.NewGauge("fleet_workers_stale",
			"Workers serving their last good snapshot after a failed scrape."),
	}
	m.reg.MustRegister(m.LeasesGranted, m.LeasesExpired, m.Releases,
		m.ShardsTotal, m.ShardsDone, m.DedupDropped, m.LocalFallback,
		m.WorkersRegistered, m.WorkersUp, m.WorkerDowns, m.ShardLatency, m.PhaseLatency,
		metrics.OmitZero(m.IntegrityRejected), metrics.OmitZero(m.BisectRounds),
		metrics.OmitZero(m.PoisonQuarantined),
		metrics.OmitZero(m.FleetScrapes), metrics.OmitZero(m.FleetScrapeErrors),
		metrics.OmitZero(m.FleetWorkersStale))
	return m
}

// ObservePhases feeds one verified delivery's worker-reported timing into
// the per-phase, per-worker histogram families.
func (m *Metrics) ObservePhases(worker string, t *api.Timing) {
	if t == nil {
		return
	}
	m.PhaseLatency.Observe(t.QueueWaitSeconds, "queue_wait", worker)
	m.PhaseLatency.Observe(t.ExecuteSeconds, "execute", worker)
	m.PhaseLatency.Observe(t.PublishSeconds, "publish", worker)
}

// Replay restores the journaled lease counters from a resumed journal, so
// fabric_releases_total (and friends) survive a coordinator kill.
func (m *Metrics) Replay(st *campaign.JournalState) {
	m.LeasesGranted.Add(uint64(st.Granted))
	m.LeasesExpired.Add(uint64(st.Expired))
	m.Releases.Add(uint64(st.Released))
}

// Text renders the fabric families in the Prometheus text exposition format.
func (m *Metrics) Text() []byte {
	snap, err := m.reg.Gather()
	if err != nil {
		// Static instruments cannot violate the Source contract.
		panic("fabric: " + err.Error())
	}
	return snap.Text()
}
