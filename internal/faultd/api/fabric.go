package api

// Fabric wire types: the request/response bodies of the distributed-campaign
// coordinator's supervision surface (internal/fabric serves these; workers
// and operators consume them through internal/faultdclient). The coordinator
// is not a dmafaultd instance — it is the process driving a sharded campaign
// — but it speaks the same typed-wire discipline as the /v1 job API.
//
// Coordinator routes:
//
//	POST /v1/fabric/join     JoinRequest → JoinResponse (worker self-registration)
//	GET  /v1/fabric/workers  WorkerList (registry snapshot)
//	GET  /v1/fabric/events   Server-Sent Events: merged shard/result stream
//	GET  /metrics            fabric_* families, Prometheus text
//	GET  /healthz            liveness ("ok")

// JoinRequest is the POST /v1/fabric/join body: a worker announcing the base
// URL its /v1 API answers at. Workers re-join on an interval, so a join is an
// upsert — re-announcing an already-registered URL refreshes its liveness and
// is never an error.
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

// WorkerInfo is one registry entry in GET /v1/fabric/workers.
type WorkerInfo struct {
	URL string `json:"url"`
	// Up reports the last heartbeat's verdict (a lease-aware /readyz probe).
	Up bool `json:"up"`
	// Static marks workers configured at coordinator start (-worker-urls)
	// rather than self-registered through /v1/fabric/join.
	Static bool `json:"static,omitempty"`
	// Leases is how many shard leases the worker currently holds.
	Leases int `json:"leases"`
	// LastSeenUnix is the Unix-seconds timestamp of the last successful
	// heartbeat or join (0: never seen up).
	LastSeenUnix int64 `json:"last_seen_unix,omitempty"`
}

// WorkerList is the GET /v1/fabric/workers body.
type WorkerList struct {
	Workers []WorkerInfo `json:"workers"`
}
