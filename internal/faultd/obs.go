package faultd

import (
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/obs"
)

// Observability plane of the service: per-job wall-clock spans summarized
// into the obs_span_duration_seconds family, live event streaming over SSE
// (GET /v1/campaigns/{id}/events), and flight-recorder dumps shipped to the
// journal directory on stall, panic, and shutdown. All of
// it is operator data — none of it touches job summaries, journals, or the
// merged campaign metric plane.

// DefaultHeartbeatInterval paces SSE progress events when the caller leaves
// HeartbeatInterval zero.
const DefaultHeartbeatInterval = time.Second

var nopLogger = obs.Nop()

// logger returns the configured structured logger, or a discard logger.
func (s *Server) logger() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return nopLogger
}

// heartbeat resolves the SSE progress cadence.
func (s *Server) heartbeat() time.Duration {
	if s.HeartbeatInterval > 0 {
		return s.HeartbeatInterval
	}
	return DefaultHeartbeatInterval
}

// jobTracer builds the per-job span tracer: spans summarize into the
// histogram family, land in the flight recorder (when one is attached), and
// stream to the job's SSE subscribers.
func (s *Server) jobTracer(job *Job) *obs.Tracer {
	return obs.NewTracer(
		s.spanMetrics.Sink(),
		func(sp obs.Span) { s.Recorder.SpanSink()(sp) },
		func(sp obs.Span) { job.hub.Publish(obs.StreamEvent{Type: "span", Data: sp}) },
	)
}

// emitSpan records an already-completed span built by hand (queue-wait,
// measured by the dispatcher rather than an ActiveSpan).
func (s *Server) emitSpan(job *Job, sp obs.Span) {
	s.spanMetrics.Sink()(sp)
	s.Recorder.SpanSink()(sp)
	job.hub.Publish(obs.StreamEvent{Type: "span", Data: sp})
}

// jobEvent is the SSE view of a job's live state ("progress" heartbeats and
// the terminal "status" event).
type jobEvent struct {
	ID             int       `json:"id"`
	Name           string    `json:"name,omitempty"`
	Status         JobStatus `json:"status"`
	ScenariosDone  int       `json:"scenarios_done"`
	ScenariosTotal int       `json:"scenarios_total"`
	CacheHits      int       `json:"cache_hits,omitempty"`
	Error          string    `json:"error,omitempty"`
}

// resultEvent is the SSE record of one finished scenario.
type resultEvent struct {
	Index          int    `json:"index"`
	ID             string `json:"id"`
	Outcome        string `json:"outcome"`
	Retries        int    `json:"retries,omitempty"`
	ScenariosDone  int    `json:"scenarios_done"`
	ScenariosTotal int    `json:"scenarios_total"`
}

// jobView snapshots the job's SSE state. Callers hold s.mu or own the job.
func jobView(job *Job) jobEvent {
	return jobEvent{
		ID: job.ID, Name: job.Name, Status: job.Status,
		ScenariosDone: job.ScenariosDone, ScenariosTotal: job.ScenariosTotal,
		CacheHits: job.CacheHits,
		Error:     job.Error,
	}
}

// flightDump ships the flight recorder's retained window to the journal
// directory — the forensic artifact for a stall, panic, or shutdown. A trigger event is recorded first so the dump is self-labelling.
// No recorder or no journal directory means no dump.
func (s *Server) flightDump(trigger string, job *Job) {
	if s.Recorder == nil || s.JournalDir == "" {
		return
	}
	name := "flight-" + trigger + ".jsonl"
	var attrs []obs.Attr
	if job != nil {
		name = fmt.Sprintf("flight-%s-job-%d.jsonl", trigger, job.ID)
		attrs = append(attrs, obs.Af("job", "%d", job.ID))
	}
	s.Recorder.Event("flight-dump", trigger, attrs...)
	path := filepath.Join(s.JournalDir, name)
	if err := s.Recorder.DumpFile(path); err != nil {
		s.logger().Error("flight dump failed", "trigger", trigger, "path", path, "err", err)
		return
	}
	s.logger().Info("flight recorder dumped", "trigger", trigger, "path", path)
}

// handleEvents streams a job's live events as Server-Sent Events: periodic
// "progress" heartbeats (cumulative, so a dropped event is recovered by the
// next beat), "span" completions, per-scenario "result" records, and a final
// "status" event after which the stream closes. Subscribing to a finished
// job yields its snapshot and status immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	job := s.jobsByID[id]
	s.mu.Unlock()
	if job == nil {
		http.Error(w, fmt.Sprintf("no job %d", id), http.StatusNotFound)
		return
	}
	view := func(typ string) func() obs.StreamEvent {
		return func() obs.StreamEvent {
			s.mu.Lock()
			defer s.mu.Unlock()
			return obs.StreamEvent{Type: typ, Data: jobView(job)}
		}
	}
	job.hub.Serve(w, r, s.heartbeat(), view("progress"), view("status"))
}

// publishResult streams one finished scenario to the job's subscribers.
func (s *Server) publishResult(job *Job, index int, r *campaign.Result, done int) {
	job.hub.Publish(obs.StreamEvent{Type: "result", Data: resultEvent{
		Index: index, ID: r.ID, Outcome: campaign.ResultOutcome(r),
		Retries: r.Retries, ScenariosDone: done, ScenariosTotal: job.ScenariosTotal,
	}})
}
