package faultd

import (
	"fmt"
	"path/filepath"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/fuzz"
	"dmafault/internal/obs"
)

// Fuzz-campaign jobs: the supervised job plane (admission, queue, watchdog,
// drain, cancellation) is shared with fixed-set campaigns; only the engine
// differs. The fuzz loop publishes two extra live surfaces — per-execution
// "result" SSE events (the execution index plays the scenario-index role)
// and per-round "fuzz" coverage events carrying fuzz.RoundStats — and its
// final report merges into /metrics as the fuzz_* families.
//
// When JournalDir is set, the corpus persists to fuzz-<id>.corpus.jsonl.
// That name deliberately does not match the boot-recovery journal pattern:
// fuzz jobs are not crash-recovered (their budget semantics do not replay),
// but the corpus file survives and can seed a later run.

// runFuzzJob executes a fuzz-campaign job and hands the outcome to finish.
// Called from runJob with a scheduler slot held.
func (s *Server) runFuzzJob(job *Job) {
	spec := job.fuzzSpec
	workers := job.workers
	if workers <= 0 {
		workers = s.Workers
	}
	cfg := fuzz.Config{
		Seed:           job.fuzzSeed,
		Workers:        workers,
		Attempts:       spec.Attempts,
		Batch:          spec.Batch,
		MinimizeBudget: spec.Minimize,
	}
	if s.Cache != nil {
		cfg.Cache = s.Cache
		cfg.OnCacheHit = func(exec int) {
			s.mu.Lock()
			job.CacheHits++
			s.mu.Unlock()
		}
	}
	if s.JournalDir != "" {
		cfg.CorpusPath = filepath.Join(s.JournalDir, fmt.Sprintf("fuzz-%d.corpus.jsonl", job.ID))
	}
	cfg.OnResult = func(exec int, r *campaign.Result) {
		s.scenariosCompleted.Inc()
		s.mu.Lock()
		job.ScenariosDone++
		job.lastBeat = time.Now()
		done := job.ScenariosDone
		s.mu.Unlock()
		s.publishResult(job, exec, r, done)
	}
	cfg.OnRound = func(st fuzz.RoundStats) {
		s.mu.Lock()
		job.lastBeat = time.Now()
		s.mu.Unlock()
		job.hub.Publish(obs.StreamEvent{Type: "fuzz", Data: st})
		s.logger().Debug("fuzz round", "job", job.ID, "round", st.Round,
			"execs", st.Execs, "corpus", st.CorpusSize, "signatures", st.Signatures)
	}

	rep, err := fuzz.Run(job.ctx, cfg)
	s.finish(job, err, func() {
		job.Fuzz = rep
		s.mergeMetrics(job, rep.MetricsSnapshot())
	})
}
