package api

// Fabric wire types: the request/response bodies of the distributed-campaign
// coordinator's supervision surface (internal/fabric serves these; workers
// and operators consume them through internal/faultdclient). The coordinator
// is not a dmafaultd instance — it is the process driving a sharded campaign
// — but it speaks the same typed-wire discipline as the /v1 job API.
//
// Coordinator routes:
//
//	POST /v1/fabric/join    JoinRequest → JoinResponse (worker self-registration)
//	GET  /v1/fleet          FleetSnapshot (the registry's one rendering; fleet.go)
//	GET  /v1/fabric/events  Server-Sent Events: merged shard/result stream and
//	                        a "fleet" FleetSnapshot on every heartbeat beat
//	GET  /metrics           fabric_* families, Prometheus text
//	GET  /healthz           liveness ("ok")

// JoinRequest is the POST /v1/fabric/join body: a worker announcing the base
// URL its /v1 API answers at. Workers re-join on an interval, so a join is an
// upsert — re-announcing an already-registered URL is never an error. A join
// only registers the URL: the coordinator's lease-aware /readyz heartbeat
// decides whether the worker is up.
type JoinRequest struct {
	// URL is the worker's advertised service root, e.g. "http://10.0.0.5:8077"
	// (no /v1 suffix). It must be dialable from the coordinator.
	URL string `json:"url"`
}

// JoinResponse acknowledges a registration.
type JoinResponse struct {
	Accepted bool `json:"accepted"`
	// Workers is the registry size after the join — a worker can tell whether
	// it is alone in the fabric.
	Workers int `json:"workers"`
}
