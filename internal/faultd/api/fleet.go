package api

import "dmafault/internal/metrics"

// Fleet wire types: the coordinator's one rendering of its worker registry
// (the fabric registry builds these from its heartbeat state; GET /v1/fleet
// and the "fleet" SSE beat on the coordinator serve them and fabrictop
// renders them). A snapshot is a
// pure function of registry + scrape state — no timestamps, no scrape
// counters — so two snapshots of identical fleet state marshal to identical
// bytes, the same determinism discipline the campaign summaries live under.
//
// Additional coordinator route:
//
//	GET /v1/fleet  FleetSnapshot (always served; metrics, ready and stale
//	               need the -fleetobs scrape)

// PhaseSeconds is a cumulative per-phase wall-clock total, summed over every
// verified delivery a worker has made.
type PhaseSeconds struct {
	QueueWait float64 `json:"queue_wait_seconds"`
	Execute   float64 `json:"execute_seconds"`
	Publish   float64 `json:"publish_seconds"`
}

// FleetWorker is one worker's row in the fleet snapshot: the coordinator
// registry's view (liveness, leases, delivery accounting) and
// its heartbeat scrape state (readiness, staleness).
type FleetWorker struct {
	URL string `json:"url"`
	// Up is the registry's heartbeat verdict (lease-aware /readyz probe).
	Up bool `json:"up"`
	// Static marks workers configured at coordinator start (-worker-urls).
	Static bool `json:"static,omitempty"`
	// Leases is how many shard leases the worker currently holds.
	Leases int `json:"leases"`
	// Delivered counts verified shard deliveries credited to this worker.
	Delivered int `json:"delivered_shards"`
	// Scenarios counts scenarios across those deliveries.
	Scenarios int `json:"delivered_scenarios"`
	// CacheHits counts scenarios the worker replayed from its result cache.
	CacheHits int `json:"cache_hits,omitempty"`
	// PhaseTotals is the cumulative phase breakdown over all deliveries.
	PhaseTotals PhaseSeconds `json:"phase_totals"`
	// EWMAShardSeconds is the exponentially weighted moving average of
	// whole-shard execute time (alpha 0.25, seeded by the first delivery).
	// Operator data: fabrictop shows it, the coordinator's control path
	// does not read it.
	EWMAShardSeconds float64 `json:"ewma_shard_seconds"`
	// EWMAScenariosPerSec is the matching throughput EWMA
	// (scenarios / execute-seconds per delivery).
	EWMAScenariosPerSec float64 `json:"ewma_scenarios_per_sec"`
	// Ready is the lease-aware /readyz verdict (the heartbeat's own probe)
	// at the last successful scrape; false until the first one, so always
	// false without the -fleetobs scrape. A worker that can never receive a
	// lease — no cache under NeedCache — reads false.
	Ready bool `json:"ready"`
	// Stale marks a worker whose last scrape failed after earlier successes;
	// its metrics contribution is the last good snapshot.
	Stale bool `json:"stale,omitempty"`
}

// FleetCampaign is the coordinator's campaign progress at snapshot time.
type FleetCampaign struct {
	ScenariosTotal int `json:"scenarios_total"`
	ScenariosDone  int `json:"scenarios_done"`
	ShardsTotal    int `json:"shards_total"`
	ShardsDone     int `json:"shards_done"`
}

// FleetSnapshot is the GET /v1/fleet body.
type FleetSnapshot struct {
	// Workers is every registered worker, URL-sorted.
	Workers []FleetWorker `json:"workers"`
	// Campaign is the coordinator's progress (absent outside a run).
	Campaign *FleetCampaign `json:"campaign,omitempty"`
	// Metrics is the order-stable merge of every scraped worker's
	// /v1/metrics snapshot, in worker-URL order (absent before any scrape,
	// so always absent without -fleetobs).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}
