// Package faultd is the campaign service behind cmd/dmafaultd: a stdlib
// net/http server that accepts scenario-set JSON, runs each submission as a
// job on the campaign engine's worker pool, reports live progress, and
// exposes the unified metric surface of internal/metrics.
//
// Endpoints (wire formats in internal/faultd/api; typed client in
// internal/faultdclient):
//
//	GET  /healthz             liveness probe ("ok", or "draining" after
//	                          shutdown begins)
//	GET  /readyz              readiness probe: 503 while draining or while
//	                          the job queue is saturated
//	GET  /metrics             Prometheus text exposition: service counters
//	                          plus every completed campaign's machine
//	                          metrics, merged
//	GET  /v1/metrics          the same merged snapshot as JSON
//	                          (metrics.Snapshot) for typed consumers — the
//	                          fabric heartbeat's fleet scrape reads this
//	POST /v1/campaigns        submit a campaign (scenario array, preset, or
//	                          fuzz spec); returns the job ID. 429 +
//	                          Retry-After when the queue is full, 503 once
//	                          drain has begun
//	GET  /v1/campaigns        list jobs
//	GET  /v1/campaigns/{id}   job status: live progress, final aggregate
//	DELETE /v1/campaigns/{id} cancel a queued or running job (202; 409 if
//	                          finished)
//	GET  /v1/campaigns/{id}/events  live SSE stream
//	GET  /v1/cache/stats      shared result-cache stats
//	DELETE /v1/cache          drop every cached result
//	GET  /debug/pprof/...     runtime profiles
//
// The Cache field (dmafaultd -cache-dir) attaches a shared
// internal/resultstore log: campaign jobs, recovered resumes, and fuzz
// batches all consult it before executing a scenario, so re-submitting
// overlapping work mostly replays recorded results (per-job hit counts on
// the job document, service-wide resultstore_* metric families).
//
// The job plane is supervised (see supervisor.go): submissions pass
// admission control into a bounded FIFO queue, a dispatcher starts them
// oldest-first under the MaxConcurrent cap, a watchdog cancels jobs whose
// progress heartbeat stalls, and on boot the journal directory is scanned
// so jobs interrupted by a crash resume with byte-identical final summaries
// (recovery.go). A scenario that panics or blows its deadline is contained
// by the engine itself (Outcome "panic" or "timeout"), so a job's summary is
// a pure function of its scenario set however often it is submitted.
//
// Two metric planes coexist deliberately. Service-level counters are atomic
// instruments (scrapes race with request handling); campaign snapshots come
// from quiescent machines and are merged under the server mutex, preserving
// the registry's determinism contract. Supervision families (queue depth
// and wait, stall cancellations, recovered jobs) are
// registered through metrics.OmitZero, so they are absent from idle
// expositions — their presence is itself a signal.
package faultd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
	"dmafault/internal/metrics"
	"dmafault/internal/obs"
	"dmafault/internal/resultstore"
)

// MaxScenarios bounds one submission; larger sets are rejected with 400
// rather than silently truncated.
const MaxScenarios = 4096

// DefaultQueueDepth bounds the pending-job queue when the caller leaves
// QueueDepth zero.
const DefaultQueueDepth = 64

// JobStatus is the lifecycle of a submitted campaign (wire type in api).
type JobStatus = api.JobStatus

const (
	StatusQueued    = api.StatusQueued
	StatusRunning   = api.StatusRunning
	StatusDone      = api.StatusDone
	StatusFailed    = api.StatusFailed
	StatusCancelled = api.StatusCancelled
	StatusStalled   = api.StatusStalled
)

// Job is one submitted campaign: the public wire state (api.Job, embedded —
// progress fields are updated by worker goroutines under the server mutex;
// once the job finishes, its encoded document replaces the Summary) plus
// the supervisor's scheduling state.
type Job struct {
	api.Job

	// Scheduling state (owned by the supervisor; see supervisor.go).
	ctx        context.Context
	cancel     context.CancelFunc
	scs        []campaign.Scenario
	workers    int
	resume     bool // reopen the journal for append and restore its results
	enqueuedAt time.Time
	queueWait  time.Duration // admitted → dispatched, set by the dispatcher
	lastBeat   time.Time     // progress heartbeat, guarded by Server.mu
	stalled    bool          // set by the watchdog before it cancels
	// fuzzSpec marks the job as a fuzz campaign (see api.FuzzSpec); scs is
	// nil and fuzzSeed carries the submission's Seed.
	fuzzSpec *api.FuzzSpec
	fuzzSeed int64
	// hub fans the job's live events (spans, results, status) out to SSE
	// subscribers; closed when the job reaches a terminal status.
	hub *obs.Hub
	// panicDumped limits the panic-triggered flight dump to once per job,
	// guarded by Server.mu.
	panicDumped bool
	// doc is the finished job's wire document, encoded once by finish
	// (which then drops Summary) and served as it is; guarded by Server.mu.
	doc []byte
}

// Request is the POST /v1/campaigns body (wire type in api). Exactly one of
// Scenarios, Preset, or Fuzz must be given.
type Request = api.SubmitRequest

// FuzzSpec parameterizes a fuzz-campaign job (wire type in api). Its corpus
// persists to <JournalDir>/fuzz-<id>.corpus.jsonl (a name the boot-recovery
// scan ignores — fuzz jobs are not crash-recovered, but a resubmitted job
// can resume the corpus file by hand via cmd/campaign).
type FuzzSpec = api.FuzzSpec

// Server is the service state: the job table, the scheduler, the merged
// campaign metric dump, and the service-plane instruments. Configuration
// fields must be set before the first submission (or RecoverJobs call) and
// not changed afterwards.
type Server struct {
	// Workers is the default engine pool size for jobs that don't set one.
	Workers int
	// JournalDir, when set, gives every job a campaign journal at
	// <dir>/job-<id>.jsonl. RecoverJobs scans the same directory at boot
	// and resumes any journal whose scenario set is unfinished.
	JournalDir string
	// MaxConcurrent caps how many jobs execute at once; further accepted
	// jobs wait in the queue. <= 0 means unlimited (every accepted job
	// starts immediately).
	MaxConcurrent int
	// QueueDepth bounds the pending-job queue; submissions beyond it get
	// 429 with Retry-After. <= 0 means DefaultQueueDepth. Boot recovery
	// may exceed the bound (recovered jobs were already accepted once).
	QueueDepth int
	// StallTimeout is the watchdog budget: a running job whose progress
	// heartbeat (scenario claims and completions) goes quiet for longer is
	// cancelled with status "stalled". 0 disables the watchdog.
	StallTimeout time.Duration
	// Log receives the service's structured diagnostics; nil discards them.
	Log *slog.Logger
	// Recorder, when set, is the always-on flight recorder: spans and events
	// land in its ring and the supervisor dumps the retained window to the
	// journal directory on stall, panic, and shutdown. Its
	// retention counters are exported (via metrics.OmitZero) once Handler is
	// built.
	Recorder *obs.Recorder
	// HeartbeatInterval paces SSE "progress" events on
	// GET /v1/campaigns/{id}/events. <= 0 means DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// Cache, when set, is the shared content-addressed result store: every
	// campaign job, recovered resume, and fuzz batch consults it before
	// executing a scenario and appends cacheable results. Its resultstore_*
	// metric families are registered (via OmitZero) once Handler is built,
	// and the /v1/cache/* admin endpoints operate on it.
	Cache *resultstore.Store

	mu           sync.Mutex
	jobs         []*Job       // submission order, for listing
	jobsByID     map[int]*Job // monotonic IDs survive recovery gaps
	nextID       int
	pending      []*Job // FIFO queue consumed by the dispatcher
	draining     bool
	dispatchOn   bool
	stopDispatch bool
	cond         *sync.Cond // signals the dispatcher about pending/stop
	runningN     int
	peakRunning  int
	merged       *metrics.Snapshot
	wg           sync.WaitGroup
	sem          chan struct{} // MaxConcurrent tokens (nil = unlimited)

	reg                *metrics.Registry
	requests           *metrics.Counter
	campaignsStarted   *metrics.Counter
	campaignsDone      *metrics.Counter
	campaignsFailed    *metrics.Counter
	campaignsCancelled *metrics.Counter
	scenariosCompleted *metrics.Counter
	running            *metrics.Gauge

	// Supervision families, registered through metrics.OmitZero so an idle
	// boot's exposition carries none of them.
	queueDepthG      *metrics.Gauge
	queueWait        *metrics.Histogram
	peakRunningG     *metrics.Gauge
	rejectedFull     *metrics.Counter
	rejectedDraining *metrics.Counter
	jobsStalled      *metrics.Counter
	jobsRecovered    *metrics.Counter

	// Observability plane (obs.go): spanMetrics summarizes every completed
	// wall-clock span into obs_span_duration_seconds (absent until one
	// completes, via OmitZero); tracer mints the request spans; obsOnce
	// defers Recorder registration until Handler, when the field is final.
	spanMetrics *obs.SpanMetrics
	tracer      *obs.Tracer
	obsOnce     sync.Once
}

// QueueWaitBuckets are the faultd_queue_wait_seconds histogram bounds.
var QueueWaitBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10}

// NewServer builds an empty service.
func NewServer() *Server {
	s := &Server{
		merged:             &metrics.Snapshot{},
		jobsByID:           map[int]*Job{},
		nextID:             1,
		reg:                metrics.NewRegistry(),
		requests:           metrics.NewCounter("faultd_requests_total", "HTTP requests served."),
		campaignsStarted:   metrics.NewCounter("faultd_campaigns_started_total", "Campaign jobs accepted."),
		campaignsDone:      metrics.NewCounter("faultd_campaigns_completed_total", "Campaign jobs finished successfully."),
		campaignsFailed:    metrics.NewCounter("faultd_campaigns_failed_total", "Campaign jobs aborted by an error."),
		campaignsCancelled: metrics.NewCounter("faultd_campaigns_cancelled_total", "Campaign jobs cancelled by request or shutdown."),
		scenariosCompleted: metrics.NewCounter("faultd_scenarios_completed_total", "Scenarios finished across all jobs."),
		running:            metrics.NewGauge("faultd_campaigns_running", "Campaign jobs currently executing."),

		queueDepthG:      metrics.NewGauge("faultd_queue_depth", "Jobs waiting in the admission queue."),
		queueWait:        metrics.NewHistogram("faultd_queue_wait_seconds", "Time jobs spent queued before starting.", QueueWaitBuckets),
		peakRunningG:     metrics.NewGauge("faultd_campaigns_running_peak", "High-water mark of concurrently executing jobs."),
		rejectedFull:     metrics.NewCounter("faultd_submissions_rejected_full_total", "Submissions rejected with 429 because the queue was full."),
		rejectedDraining: metrics.NewCounter("faultd_submissions_rejected_draining_total", "Submissions rejected with 503 after drain began."),
		jobsStalled:      metrics.NewCounter("faultd_jobs_stalled_total", "Jobs cancelled by the stuck-job watchdog."),
		jobsRecovered:    metrics.NewCounter("faultd_jobs_recovered_total", "Unfinished journals re-registered as jobs at boot."),

		spanMetrics: obs.NewSpanMetrics(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.reg.MustRegister(s.requests, s.campaignsStarted, s.campaignsDone,
		s.campaignsFailed, s.campaignsCancelled, s.scenariosCompleted, s.running)
	s.reg.MustRegister(
		metrics.OmitZero(s.queueDepthG), metrics.OmitZero(s.queueWait),
		metrics.OmitZero(s.peakRunningG), metrics.OmitZero(s.rejectedFull),
		metrics.OmitZero(s.rejectedDraining), metrics.OmitZero(s.jobsStalled),
		metrics.OmitZero(s.jobsRecovered))
	s.reg.MustRegister(metrics.OmitZero(s.spanMetrics))
	return s
}

// Handler builds the service mux. It also finalizes the observability
// plane: the flight recorder's retention counters are registered here (not
// in NewServer — the Recorder field is still nil there, and its metrics
// methods are the one part of the obs API that is not nil-receiver safe),
// and the server tracer that mints per-request spans is built against the
// final Recorder value.
func (s *Server) Handler() http.Handler {
	s.obsOnce.Do(func() {
		if s.Recorder != nil {
			s.reg.MustRegister(metrics.OmitZero(s.Recorder))
		}
		if s.Cache != nil {
			s.reg.MustRegister(metrics.OmitZero(s.Cache))
		}
		s.tracer = obs.NewTracer(s.spanMetrics.Sink(), s.Recorder.SpanSink())
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/metrics", s.handleMetricsJSON)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	mux.HandleFunc("DELETE /v1/cache", s.handleCacheClear)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		// The request span ends after the handler returns, so a /metrics
		// scrape never observes its own span — idle expositions stay empty.
		sp := s.tracer.Start("request",
			obs.A("method", r.Method), obs.A("path", r.URL.Path))
		defer sp.End()
		mux.ServeHTTP(w, r)
	})
}

// handleHealthz is the liveness probe; it always answers 200 but the body
// reflects lifecycle state so an operator's curl shows drain progress.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: it fails while drain is in progress
// or while the admission queue is saturated, so load balancers stop routing
// submissions that would only bounce with 503/429.
//
// A fabric coordinator probes with ?lease=1 (and ?need_cache=1 when the
// campaign shares a result cache) to ask the stricter question "should I
// grant this node a NEW shard lease?". A draining node keeps finishing its
// in-flight shards — those jobs are already admitted — but must stop
// attracting fresh ones, and a cache-less node cannot take part in a
// cache-sharing campaign at all, so both answer 503 to lease probes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	saturated := len(s.pending) >= s.queueCap()
	s.mu.Unlock()
	q := r.URL.Query()
	forLease := q.Get("lease") == "1"
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case draining:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case saturated:
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "saturated")
	case forLease && q.Get("need_cache") == "1" && s.Cache == nil:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "cache-less")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// gatherMetrics snapshots the service plane merged with every completed
// campaign's machine metrics: the one document both metrics routes serve.
func (s *Server) gatherMetrics() (*metrics.Snapshot, error) {
	snap, err := s.reg.Gather()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return snap, snap.Merge(s.merged)
}

// handleMetrics renders the gathered snapshot as text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, err := s.gatherMetrics()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WriteText(w)
}

// handleMetricsJSON is /metrics' typed twin: the identical gathered+merged
// snapshot, JSON-encoded for machine consumers (faultdclient.Metrics, the
// coordinator's fleet scrape).
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	snap, err := s.gatherMetrics()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "parse request: "+err.Error(), http.StatusBadRequest)
		return
	}
	scs, err := resolveScenarios(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job, admErr := s.admit(&req, scs)
	if admErr != nil {
		switch {
		case errors.Is(admErr, errDraining):
			s.rejectedDraining.Inc()
			s.logger().Warn("submission rejected", "reason", "draining")
			http.Error(w, "draining: not accepting new campaigns", http.StatusServiceUnavailable)
		case errors.Is(admErr, errQueueFull):
			s.rejectedFull.Inc()
			s.logger().Warn("submission rejected", "reason", "queue full", "queue_cap", s.queueCap())
			w.Header().Set("Retry-After", "1")
			http.Error(w, "job queue full, retry later", http.StatusTooManyRequests)
		default:
			http.Error(w, admErr.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.logger().Info("job accepted", "job", job.ID, "name", job.Name,
		"scenarios", job.ScenariosTotal, "workers", req.Workers)
	writeJSON(w, http.StatusAccepted, &api.SubmitResponse{
		ID: job.ID, URL: fmt.Sprintf("/v1/campaigns/%d", job.ID),
		ScenariosTotal: job.ScenariosTotal,
	})
}

// resolveScenarios turns a request into a validated scenario set (nil for a
// fuzz campaign, which generates its own scenarios as it runs).
func resolveScenarios(req *Request) ([]campaign.Scenario, error) {
	switch {
	case req.Fuzz != nil:
		if len(req.Scenarios) > 0 || req.Preset != "" {
			return nil, fmt.Errorf("a fuzz campaign takes no scenarios or preset")
		}
		if req.Fuzz.Attempts > MaxScenarios {
			return nil, fmt.Errorf("fuzz attempts %d exceed the per-job cap %d", req.Fuzz.Attempts, MaxScenarios)
		}
		return nil, nil
	case len(req.Scenarios) > 0 && req.Preset != "":
		return nil, fmt.Errorf("give scenarios or a preset, not both")
	case req.Preset != "":
		gen, ok := campaign.Presets[req.Preset]
		if !ok {
			names := make([]string, 0, len(campaign.Presets))
			for n := range campaign.Presets {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown preset %q (have %v)", req.Preset, names)
		}
		n := req.N
		if n <= 0 {
			n = 8
		}
		if n > MaxScenarios {
			return nil, fmt.Errorf("n %d exceeds the per-job cap %d", n, MaxScenarios)
		}
		return gen(n, req.Seed), nil
	case len(req.Scenarios) > MaxScenarios:
		return nil, fmt.Errorf("%d scenarios exceed the per-job cap %d", len(req.Scenarios), MaxScenarios)
	case len(req.Scenarios) > 0:
		return req.Scenarios, nil
	default:
		return nil, fmt.Errorf("empty campaign: no scenarios and no preset")
	}
}

// runJob executes the campaign and hands the outcome to finish. It runs on
// a worker goroutine with a scheduler slot held (see supervisor.go).
func (s *Server) runJob(job *Job) {
	if job.fuzzSpec != nil {
		s.runFuzzJob(job)
		return
	}
	workers := job.workers
	if workers <= 0 {
		workers = s.Workers
	}
	eng := campaign.Engine{
		Workers: workers,
		Obs:     s.jobTracer(job),
		OnClaim: func(i int) {
			s.beat(job)
		},
		OnCacheHit: func(i int) {
			s.mu.Lock()
			job.CacheHits++
			s.mu.Unlock()
		},
		OnResult: func(i int, r *campaign.Result) {
			s.scenariosCompleted.Inc()
			s.mu.Lock()
			job.ScenariosDone++
			job.lastBeat = time.Now()
			done := job.ScenariosDone
			panicDump := r.Outcome == campaign.OutcomePanic && !job.panicDumped
			if panicDump {
				job.panicDumped = true
			}
			s.mu.Unlock()
			s.publishResult(job, i, r, done)
			if panicDump {
				s.logger().Warn("scenario panicked", "job", job.ID, "index", i, "id", r.ID)
				s.flightDump("panic", job)
			}
		},
	}
	if s.Cache != nil {
		eng.Cache = s.Cache
	}
	if s.JournalDir != "" {
		j, err := campaign.OpenJournal(filepath.Join(s.JournalDir, fmt.Sprintf("job-%d.jsonl", job.ID)), job.scs, job.resume)
		if err != nil {
			s.logger().Error("journal open failed", "job", job.ID, "err", err)
			s.finish(job, err, nil)
			return
		}
		defer j.Close()
		eng.Journal = j
		if job.resume {
			eng.Completed = j.State().Restored
		}
	}
	execStart := time.Now()
	sum, err := eng.RunCtx(job.ctx, job.scs)
	execDur := time.Since(execStart)
	pubStart := time.Now()
	s.finish(job, err, func() {
		job.Summary = sum
		job.ResultsHash = api.HashResults(sum.Results)
		s.mergeMetrics(job, sum.Metrics)
		// The phase breakdown rides the wire next to ResultsHash but outside
		// Summary, so fleet attribution never perturbs summary bytes.
		job.Timing = &api.Timing{
			QueueWaitSeconds: job.queueWait.Seconds(),
			ExecuteSeconds:   execDur.Seconds(),
			PublishSeconds:   time.Since(pubStart).Seconds(),
			Attempts:         sum.Scenarios + sum.Retries,
		}
	})
}

// mergeMetrics folds a finished job's metric snapshot into the service-wide
// dump. Callers hold s.mu.
func (s *Server) mergeMetrics(job *Job, snap *metrics.Snapshot) {
	if err := s.merged.Merge(snap); err != nil {
		// Incompatible layouts across jobs (a bucket change mid-flight):
		// keep serving, but surface it on the job.
		job.Error = "metrics merge: " + err.Error()
	}
}

// beat refreshes the job's progress heartbeat (worker claimed a scenario).
func (s *Server) beat(job *Job) {
	s.mu.Lock()
	job.lastBeat = time.Now()
	s.mu.Unlock()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := api.JobList{Jobs: make([]api.Job, len(s.jobs))}
	for i, j := range s.jobs {
		list.Jobs[i] = j.Job    // a finished job's Summary is already dropped
		list.Jobs[i].Fuzz = nil // keep the listing lightweight
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, &list)
}

// writeJSON is the one writer of faultd's JSON responses (a job, the job
// table, the cache counters, the metrics snapshot, and the submit, cancel
// and cache-clear answers): compact, newline-terminated, and sized, so a
// client reads the body into one buffer of exactly Content-Length bytes.
// Only a finished job's document is kept encoded (see finish); everything
// else is encoded per request.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := encodeDoc(v)
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeDoc(w, status, data)
}

// encodeDoc is a response document's bytes: compact, newline-terminated.
func encodeDoc(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	return append(data, '\n'), err
}

// writeDoc writes an encoded document with its Content-Length.
func writeDoc(w http.ResponseWriter, status int, data []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	jp := s.jobsByID[id]
	if jp == nil {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("no job %d", id), http.StatusNotFound)
		return
	}
	job, doc := jp.Job, jp.doc // the wire view; scheduling state stays server-side
	s.mu.Unlock()
	if doc != nil {
		writeDoc(w, http.StatusOK, doc)
		return
	}
	writeJSON(w, http.StatusOK, &job)
}

// handleCancel aborts a queued or running job. The response is 202 (the
// engine winds down asynchronously: claimed scenarios finish and are
// journaled); polling GET /v1/campaigns/{id} shows "cancelled" when it has.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	job := s.jobsByID[id]
	if job == nil {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("no job %d", id), http.StatusNotFound)
		return
	}
	if job.Status != StatusRunning && job.Status != StatusQueued {
		status := job.Status
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("job %d is %s, not cancellable", id, status), http.StatusConflict)
		return
	}
	cancel := job.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	writeJSON(w, http.StatusAccepted, &api.CancelResponse{ID: id, Status: "cancelling"})
}
