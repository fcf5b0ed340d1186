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
// journal directory on stall, panic, quarantine trip, and shutdown. All of
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

// terminal reports whether the status is final.
func terminal(st JobStatus) bool {
	return st != StatusQueued && st != StatusRunning
}

// publishTerminal broadcasts the job's final status to its SSE subscribers
// and closes the hub (late subscribers get the status from the job table).
func (s *Server) publishTerminal(job *Job) {
	s.mu.Lock()
	view := jobView(job)
	s.mu.Unlock()
	job.hub.Publish(obs.StreamEvent{Type: "status", Data: view})
	job.hub.Close()
	args := []any{"job", view.ID, "status", string(view.Status),
		"done", view.ScenariosDone, "total", view.ScenariosTotal, "err", view.Error}
	if view.Status == StatusFailed || view.Status == StatusStalled {
		s.logger().Warn("job finished", args...)
		return
	}
	s.logger().Info("job finished", args...)
}

// flightDump ships the flight recorder's retained window to the journal
// directory — the forensic artifact for a stall, panic, quarantine trip, or
// shutdown. A trigger event is recorded first so the dump is self-labelling.
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
// job yields its status immediately.
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
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Subscribe before the first snapshot so no terminal transition can fall
	// between them; a closed hub (already-finished job) hands back a closed
	// channel and the loop emits the final status straight away.
	ch, cancel := job.hub.Subscribe(64)
	defer cancel()
	s.mu.Lock()
	view := jobView(job)
	s.mu.Unlock()
	if obs.WriteSSE(w, "progress", view) != nil {
		return
	}
	fl.Flush()
	if terminal(view.Status) {
		_ = obs.WriteSSE(w, "status", view)
		fl.Flush()
		return
	}
	tick := time.NewTicker(s.heartbeat())
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			s.mu.Lock()
			view := jobView(job)
			s.mu.Unlock()
			if obs.WriteSSE(w, "progress", view) != nil {
				return
			}
			fl.Flush()
		case e, open := <-ch:
			if !open {
				// Hub closed: the job is terminal (or the server shut the
				// stream down); report the final state and end the stream.
				s.mu.Lock()
				view := jobView(job)
				s.mu.Unlock()
				_ = obs.WriteSSE(w, "status", view)
				fl.Flush()
				return
			}
			if obs.WriteSSE(w, e.Type, e.Data) != nil {
				return
			}
			fl.Flush()
			if e.Type == "status" {
				return
			}
		}
	}
}

// publishResult streams one finished scenario to the job's subscribers.
func (s *Server) publishResult(job *Job, index int, r *campaign.Result, done int) {
	job.hub.Publish(obs.StreamEvent{Type: "result", Data: resultEvent{
		Index: index, ID: r.ID, Outcome: campaign.ResultOutcome(r),
		Retries: r.Retries, ScenariosDone: done, ScenariosTotal: job.ScenariosTotal,
	}})
}
