package faultd

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
	"dmafault/internal/fuzz"
	"dmafault/internal/obs"
)

// Supervision layer: admission control, the FIFO scheduler, the stuck-job
// watchdog, and graceful drain.
//
// Lifecycle of a job, the only one there is: register (after admission
// control for submissions; recovered jobs skip it) → pending queue →
// dispatcher (starts jobs oldest-first, holding one of MaxConcurrent slots)
// → runWorker (watchdog armed, engine executes) → finish, the one place a
// terminal status is assigned. Every accepted job reaches a terminal status
// — jobs are never silently dropped: drain lets queued and running jobs
// finish, and a drain deadline cancels them into StatusCancelled with their
// completed scenarios journaled.

// Admission rejections, mapped to HTTP statuses by handleSubmit.
var (
	errDraining  = errors.New("faultd: draining")
	errQueueFull = errors.New("faultd: queue full")
)

// queueCap resolves the configured queue bound.
func (s *Server) queueCap() int {
	if s.QueueDepth > 0 {
		return s.QueueDepth
	}
	return DefaultQueueDepth
}

// admit applies admission control and, if accepted, registers the job with
// the scheduler. The returned error is errDraining or errQueueFull. A
// non-nil req.Fuzz makes the job a fuzz campaign (scs is nil; the progress
// total is the fuzz execution budget).
func (s *Server) admit(req *Request, scs []campaign.Scenario) (*Job, error) {
	total := len(scs)
	if req.Fuzz != nil {
		total = req.Fuzz.Attempts
		if total <= 0 {
			total = fuzz.DefaultBudget
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, errDraining
	}
	if len(s.pending) >= s.queueCap() {
		s.mu.Unlock()
		cancel()
		return nil, errQueueFull
	}
	job := &Job{
		Job: api.Job{
			ID: s.nextID, Name: req.Name, Status: StatusQueued,
			ScenariosTotal: total,
		},
		ctx: ctx, cancel: cancel,
		scs: scs, workers: req.Workers,
		fuzzSpec: req.Fuzz, fuzzSeed: req.Seed,
		enqueuedAt: time.Now(),
		hub:        obs.NewHub(),
	}
	s.nextID++
	s.register(job)
	s.mu.Unlock()
	return job, nil
}

// register adds the job to the table and the pending queue, waking the
// dispatcher — the one way into the job plane for submitted and recovered
// jobs alike. Callers hold s.mu.
func (s *Server) register(job *Job) {
	s.jobs = append(s.jobs, job)
	s.jobsByID[job.ID] = job
	s.wg.Add(1)
	s.pending = append(s.pending, job)
	s.queueDepthG.Add(1)
	s.ensureDispatcherLocked()
	s.cond.Signal()
	s.campaignsStarted.Inc()
}

// ensureDispatcherLocked lazily starts the dispatcher goroutine and the
// concurrency semaphore on first use, after the configuration fields are
// final. Callers hold s.mu.
func (s *Server) ensureDispatcherLocked() {
	if s.dispatchOn {
		return
	}
	s.dispatchOn = true
	if s.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, s.MaxConcurrent)
	}
	go s.dispatch()
}

// dispatch is the scheduler loop: it starts pending jobs strictly
// oldest-first, blocking on a concurrency slot before taking the next job,
// so queue order is also start order. A job cancelled while queued is
// retired (runWorker's cancelled-before-start path) without consuming a
// slot.
func (s *Server) dispatch() {
	s.mu.Lock()
	for {
		for len(s.pending) == 0 && !s.stopDispatch {
			s.cond.Wait()
		}
		if len(s.pending) == 0 && s.stopDispatch {
			s.mu.Unlock()
			return
		}
		job := s.pending[0]
		s.pending = s.pending[1:]
		wait := time.Since(job.enqueuedAt)
		job.queueWait = wait // reported back in the job's Timing breakdown
		s.mu.Unlock()
		s.queueDepthG.Add(-1)
		s.queueWait.Observe(wait.Seconds())
		// The dispatcher measured the wait itself, so the span is synthesized
		// complete rather than minted through an ActiveSpan.
		s.emitSpan(job, obs.Span{
			Name:           "queue-wait",
			StartUnixNanos: job.enqueuedAt.UnixNano(),
			DurationNanos:  int64(wait),
			Attrs:          map[string]string{"job": fmt.Sprintf("%d", job.ID)},
		})
		s.logger().Debug("dispatching job", "job", job.ID, "queue_wait", wait)
		if job.ctx.Err() != nil {
			s.runWorker(job)
			s.mu.Lock()
			continue
		}
		if s.sem != nil {
			s.sem <- struct{}{}
		}
		go func(job *Job) {
			defer func() {
				if s.sem != nil {
					<-s.sem
				}
			}()
			s.runWorker(job)
		}(job)
		s.mu.Lock()
	}
}

// runWorker executes one job end to end: watchdog arming, engine
// execution, terminal bookkeeping. It runs
// on its own goroutine with a scheduler slot held — except for a job
// cancelled before it started (DELETE while queued, or a drain deadline),
// which the dispatcher retires inline.
func (s *Server) runWorker(job *Job) {
	defer s.wg.Done()
	if err := job.ctx.Err(); err != nil {
		s.finish(job, err, nil)
		return
	}
	s.mu.Lock()
	job.Status = StatusRunning
	job.lastBeat = time.Now()
	s.runningN++
	if s.runningN > s.peakRunning {
		s.peakRunning = s.runningN
		s.peakRunningG.Set(float64(s.peakRunning))
	}
	s.mu.Unlock()
	s.running.Add(1)
	stopWatch := make(chan struct{})
	if s.StallTimeout > 0 {
		go s.watchJob(job, stopWatch)
	}
	s.runJob(job)
	close(stopWatch)
	job.cancel()
	s.running.Add(-1)
	s.mu.Lock()
	s.runningN--
	s.mu.Unlock()
}

// finish is the job plane's one way out: it maps the runner's error to the
// job's terminal status and service counters, encodes the finished job's
// document, then publishes the terminal event. nil is done (onDone, run
// under s.mu, records what done means for the runner); context.Canceled on
// a job the watchdog marked is stalled (with the stall flight dump); any
// other context.Canceled is cancelled; anything else is failed.
func (s *Server) finish(job *Job, err error, onDone func()) {
	s.mu.Lock()
	switch {
	case err == nil:
		job.Status = StatusDone
		if onDone != nil {
			onDone()
		}
		s.campaignsDone.Inc()
	case errors.Is(err, context.Canceled) && job.stalled:
		job.Status = StatusStalled
		job.Error = fmt.Sprintf("stalled: no progress within %s", s.StallTimeout)
		s.jobsStalled.Inc()
		s.campaignsFailed.Inc()
		s.flightDump("stall", job)
	case errors.Is(err, context.Canceled):
		job.Status = StatusCancelled
		job.Error = "cancelled"
		s.campaignsCancelled.Inc()
	default:
		job.Status = StatusFailed
		job.Error = err.Error()
		s.campaignsFailed.Inc()
	}
	// A finished job never changes again: its document is encoded once,
	// here, and GET serves those bytes. The decoded summary is dropped;
	// the document holds it.
	if doc, err := encodeDoc(&job.Job); err == nil {
		job.doc, job.Summary = doc, nil
	}
	view := jobView(job)
	s.mu.Unlock()

	// Subscribers still attached get the status event; the closed hub sends
	// later ones to the job table (see handleEvents).
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

// watchJob is the stuck-job watchdog: it polls the job's progress heartbeat
// (refreshed on every scenario claim and completion) and cancels the job
// once the heartbeat is older than StallTimeout, marking it stalled so
// finish records the structured outcome.
func (s *Server) watchJob(job *Job, stop <-chan struct{}) {
	interval := s.StallTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.mu.Lock()
			stalled := job.Status == StatusRunning && time.Since(job.lastBeat) > s.StallTimeout
			if stalled {
				job.stalled = true
			}
			s.mu.Unlock()
			if stalled {
				s.logger().Warn("watchdog cancelling stalled job",
					"job", job.ID, "stall_timeout", s.StallTimeout)
				job.cancel()
				return
			}
		}
	}
}

// Wait blocks until every accepted job has finished — test and shutdown
// hygiene.
func (s *Server) Wait() { s.wg.Wait() }

// CancelAll aborts every queued or running job's context. Running jobs
// finish their claimed scenarios, journal them, and publish
// StatusCancelled; queued ones retire without starting.
func (s *Server) CancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if (j.Status == StatusRunning || j.Status == StatusQueued) && j.cancel != nil {
			j.cancel()
		}
	}
}

// BeginDrain flips the server into drain mode: from this point every new
// submission is rejected with 503 and /healthz reports "draining". Already
// accepted jobs (queued or running) are unaffected.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain is graceful shutdown for the job plane: it stops admissions
// (BeginDrain), then waits for queued and in-flight jobs to complete; if
// ctx expires first it cancels the stragglers (which stop claiming
// scenarios, journal the ones they finished, and drain) and waits for them
// to wind down, returning the ctx error. The dispatcher goroutine exits
// once the queue is empty.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	defer s.stopDispatcher()
	// The shutdown flight dump ships after the job plane has wound down, so
	// the retained window covers the whole drain.
	defer s.flightDump("shutdown", nil)
	idle := make(chan struct{})
	go func() { s.wg.Wait(); close(idle) }()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.logger().Warn("drain deadline expired, cancelling remaining jobs")
		s.CancelAll()
		<-idle
		return ctx.Err()
	}
}

// stopDispatcher tells the scheduler loop to exit after the pending queue
// empties (it is already empty when Drain returns).
func (s *Server) stopDispatcher() {
	s.mu.Lock()
	s.stopDispatch = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
