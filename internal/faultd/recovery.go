package faultd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
	"dmafault/internal/obs"
)

// Crash recovery at boot: the service analogue of `cmd/campaign -resume`.
// Every job journals to <JournalDir>/job-<id>.jsonl; the journal header
// embeds the scenario set (campaign.ScanJournal), so a restarted daemon
// needs nothing but the directory to rediscover interrupted work. Recovered
// jobs re-enter the ordinary scheduler with their completed scenarios
// seeded from the journal, and because per-scenario results are
// deterministic and aggregation is order-stable, a resumed job's final
// summary is byte-identical to an uninterrupted run's.

// journalNameRE matches per-job journal files and captures the job ID. The
// .jsonl suffix is historical (journals are internal/recordlog files with
// JSON payloads); it stays because journal directories, perfbench and
// soaksmoke all name files this way.
var journalNameRE = regexp.MustCompile(`^job-(\d+)\.jsonl$`)

// RecoverJobs scans JournalDir for per-job journals and re-registers every
// journal with an unfinished scenario set as a queued job, resumed through
// the scheduler. Finished and unreadable journals are left on disk
// untouched. The job-ID counter is seeded past every journal seen (finished
// or not), so new submissions never collide with recovered IDs. Call it
// after configuration and before serving traffic.
//
// It returns how many jobs were re-registered; the error (if any) joins the
// per-file scan problems — recovery of the remaining journals proceeds
// regardless.
func (s *Server) RecoverJobs() (int, error) {
	if s.JournalDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.JournalDir)
	if err != nil {
		return 0, fmt.Errorf("faultd: recover: %w", err)
	}
	var errs []error
	recovered := 0
	for _, ent := range entries {
		m := journalNameRE.FindStringSubmatch(ent.Name())
		if ent.IsDir() || m == nil {
			continue
		}
		id, err := strconv.Atoi(m[1])
		if err != nil || id < 1 {
			continue
		}
		s.mu.Lock()
		if id >= s.nextID {
			s.nextID = id + 1
		}
		_, taken := s.jobsByID[id]
		s.mu.Unlock()
		if taken {
			errs = append(errs, fmt.Errorf("faultd: recover %s: job %d already registered", ent.Name(), id))
			continue
		}
		st, err := campaign.ScanJournal(filepath.Join(s.JournalDir, ent.Name()))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !st.Unfinished() {
			continue
		}
		s.resumeJob(id, st)
		recovered++
	}
	return recovered, errors.Join(errs...)
}

// resumeJob registers one unfinished journal as a queued job: the journal's
// restored results seed Engine.Completed, the journal is reopened for
// append, and the job flows through the same dispatcher as fresh
// submissions (admission control does not apply — the work was accepted
// before the crash; the queue bound may be exceeded).
func (s *Server) resumeJob(id int, st *campaign.JournalState) {
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		Job: api.Job{
			ID: id, Status: StatusQueued,
			ScenariosTotal: len(st.Scenarios),
			ScenariosDone:  len(st.Restored),
			Recovered:      true,
		},
		ctx: ctx, cancel: cancel,
		scs:        st.Scenarios,
		restored:   st.Restored,
		resume:     true,
		enqueuedAt: time.Now(),
		hub:        obs.NewHub(),
	}
	s.logger().Info("resuming recovered job", "job", id,
		"restored", len(st.Restored), "total", len(st.Scenarios))
	s.mu.Lock()
	s.register(job)
	s.mu.Unlock()
	s.jobsRecovered.Inc()
}
