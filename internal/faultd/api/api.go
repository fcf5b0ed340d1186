// Package api is the typed wire surface of the dmafaultd /v1 HTTP API:
// every request and response body the service accepts or emits, as plain
// structs with pinned JSON encodings (api_test.go goldens the formats).
// The service (internal/faultd) serves these types and the typed client
// (internal/faultdclient) consumes them, so the two can never skew.
//
// Routes:
//
//	POST   /v1/campaigns             SubmitRequest → SubmitResponse (202)
//	GET    /v1/campaigns             JobList (summaries elided)
//	GET    /v1/campaigns/{id}        Job
//	DELETE /v1/campaigns/{id}        CancelResponse (202; 409 if finished)
//	GET    /v1/campaigns/{id}/events Server-Sent Events (see faultdclient.Watch)
//	GET    /v1/cache/stats           CacheStats
//	DELETE /v1/cache                 ClearCacheResponse (404 without -cache-dir)
//	GET    /v1/metrics               metrics.Snapshot (JSON twin of /metrics)
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"dmafault/internal/campaign"
	"dmafault/internal/fuzz"
	"dmafault/internal/resultstore"
)

// JobStatus is the lifecycle of a submitted campaign.
type JobStatus string

const (
	// StatusQueued: accepted and waiting for a scheduler slot.
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
	// StatusCancelled: stopped by DELETE or shutdown; completed scenarios
	// were journaled.
	StatusCancelled JobStatus = "cancelled"
	// StatusStalled: the watchdog cancelled the job because its progress
	// heartbeat went quiet for longer than the stall timeout.
	StatusStalled JobStatus = "stalled"
)

// Terminal reports whether the status is final.
func (st JobStatus) Terminal() bool {
	return st != StatusQueued && st != StatusRunning
}

// SubmitRequest is the POST /v1/campaigns body. Exactly one of Scenarios,
// Preset, or Fuzz must be given.
type SubmitRequest struct {
	Name    string `json:"name,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// Scenarios is an explicit scenario set (campaign.Scenario JSON).
	Scenarios []campaign.Scenario `json:"scenarios,omitempty"`
	// Preset generates the set server-side: mixed|fuzz|bootstudy|ringflood|ladder.
	Preset string `json:"preset,omitempty"`
	N      int    `json:"n,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// Fuzz runs a coverage-guided fuzz campaign instead of a fixed set
	// (seeded by Seed above).
	Fuzz *FuzzSpec `json:"fuzz,omitempty"`
}

// FuzzSpec parameterizes a fuzz-campaign job. The job's seed comes from
// SubmitRequest.Seed; its corpus persists to
// <JournalDir>/fuzz-<id>.corpus.jsonl.
type FuzzSpec struct {
	// Attempts is the execution budget (<=0: the fuzzer's default; capped
	// like fixed sets).
	Attempts int `json:"attempts,omitempty"`
	// Batch is the scenarios-per-round batch size (<=0: default).
	Batch int `json:"batch,omitempty"`
	// Minimize is the per-entry minimization budget (0: default; negative:
	// skip minimization).
	Minimize int `json:"minimize,omitempty"`
}

// SubmitResponse acknowledges an accepted submission (HTTP 202).
type SubmitResponse struct {
	ID int `json:"id"`
	// URL is the job's canonical /v1 resource path.
	URL            string `json:"url"`
	ScenariosTotal int    `json:"scenarios_total"`
}

// Job is one submitted campaign's public state: live progress while
// running, the final summary or fuzz report once done.
type Job struct {
	ID     int       `json:"id"`
	Name   string    `json:"name,omitempty"`
	Status JobStatus `json:"status"`
	// ScenariosTotal/ScenariosDone report live progress.
	ScenariosTotal int `json:"scenarios_total"`
	ScenariosDone  int `json:"scenarios_done"`
	// CacheHits counts scenarios served from the shared result cache
	// instead of executing (absent without -cache-dir).
	CacheHits int `json:"cache_hits,omitempty"`
	// Recovered marks a job re-registered from a journal at boot.
	Recovered bool `json:"recovered,omitempty"`
	// Error is set when the whole run aborted (invalid spec, pool failure,
	// stall, cancellation).
	Error string `json:"error,omitempty"`
	// Summary is the final aggregate (done fixed-set jobs only).
	Summary *campaign.Summary `json:"summary,omitempty"`
	// Timing is the worker's own phase breakdown of the job — how long it
	// queued, executed, and published — stamped alongside ResultsHash when a
	// fixed-set job completes. It rides outside Summary so the fleet plane's
	// attribution never perturbs summary bytes or the results digest (absent
	// on failed and fuzz jobs).
	Timing *Timing `json:"timing,omitempty"`
	// ResultsHash is HashResults over Summary.Results, stamped by the worker
	// the moment the job completes. A fabric coordinator recomputes it from
	// the document it decoded, so any in-flight mutation of the results — a
	// flipped bit, a truncated tail, a byzantine proxy — shows up as a digest
	// mismatch instead of corrupting the merged campaign (absent on failed
	// and fuzz jobs).
	ResultsHash string `json:"results_sha256,omitempty"`
	// Fuzz is the final fuzz report (done fuzz-campaign jobs only).
	Fuzz *fuzz.Report `json:"fuzz,omitempty"`
}

// Timing is a worker's per-job phase breakdown: the three phases every
// fixed-set job passes through on a dmafaultd worker, in seconds of
// wall-clock. The fabric coordinator folds these into per-phase, per-worker
// latency histograms and the registry's EWMA accounting, which the fleet
// snapshot reports (operator data; no scheduling decision reads it).
type Timing struct {
	// QueueWaitSeconds is time spent admitted but undispatched (bounded
	// FIFO queue wait; zero when a scheduler slot was free at submit).
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	// ExecuteSeconds is the campaign engine's wall-clock for the scenario
	// set, cache replays included.
	ExecuteSeconds float64 `json:"execute_seconds"`
	// PublishSeconds covers post-engine finalization: results hashing and
	// the metrics merge.
	PublishSeconds float64 `json:"publish_seconds"`
	// Attempts is total scenario attempts including transient-fault retries
	// (Summary.Scenarios + Summary.Retries).
	Attempts int `json:"attempts,omitempty"`
}

// HashResults is the canonical results digest carried in Job.ResultsHash:
// sha256 over the compact JSON encoding of the results slice. Producer and
// verifier both call this — the worker over the results it executed, the
// coordinator over the results it decoded off the wire — and the engine's
// canonical-JSON determinism (stable field order, round-trip-exact floats)
// is what makes the recomputation byte-faithful.
func HashResults(results []*campaign.Result) string {
	data, err := json.Marshal(results)
	if err != nil {
		// Engine results are plain data; they cannot fail to marshal.
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// JobList is the GET /v1/campaigns body. Summaries and fuzz reports are
// elided to keep the listing lightweight; GET the job for the full record.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// CancelResponse acknowledges a cancellation (HTTP 202; the engine winds
// down asynchronously — poll the job for the terminal status).
type CancelResponse struct {
	ID     int    `json:"id"`
	Status string `json:"status"`
}

// CacheStats is the GET /v1/cache/stats body: the shared result store's
// geometry and hit/miss counters. Enabled false (every other field zero)
// means the daemon runs without -cache-dir.
type CacheStats struct {
	Enabled           bool `json:"enabled"`
	resultstore.Stats      // flattened: path, records, ..., hits, misses, stores
	// HitRate is Hits/(Hits+Misses), 0 before any lookup.
	HitRate float64 `json:"hit_rate"`
}

// ClearCacheResponse is the DELETE /v1/cache body.
type ClearCacheResponse struct {
	Cleared        bool `json:"cleared"`
	RecordsDropped int  `json:"records_dropped"`
}
