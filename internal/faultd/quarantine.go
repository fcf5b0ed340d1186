package faultd

import (
	"sync"

	"dmafault/internal/breaker"
	"dmafault/internal/campaign"
)

// Scenario quarantine: a circuit breaker over scenario *keys* (the
// position-independent fingerprint campaign.ScenarioKey). A scenario whose
// runs panic or blow their deadline QuarantineThreshold times across jobs
// trips the breaker; from then on jobs record a deterministic
// Outcome:"quarantined" result for it instead of executing. After
// QuarantineProbeAfter further jobs have sat the scenario out, one job is
// admitted as a half-open probe: a clean probe resets the breaker entirely,
// a failing one re-arms the wait.
//
// Determinism: breaker state only changes at job boundaries (admission and
// completion), never while a job's workers are racing. Each job snapshots
// its verdicts into an admission at start, so which scenarios short-circuit
// is a pure function of the job-start order — identical at any engine
// worker count.

// DefaultProbeAfter is the half-open wait (in jobs) when the caller leaves
// QuarantineProbeAfter zero.
const DefaultProbeAfter = 2

// quarantine keys one breaker per scenario. Each key's tick is its own
// count of jobs admitted while it was tripped, so the half-open wait is
// measured in the scenario's jobs, never in wall-clock time. Failures accumulate across
// jobs and only a clean probe resets them; a probe is taken as soon as the
// wait has elapsed.
type quarantine struct {
	mu      sync.Mutex
	policy  breaker.Policy
	entries map[string]*scenarioBreaker
}

// scenarioBreaker is one key's breaker and its clock.
type scenarioBreaker struct {
	breaker.State
	satOut int64 // jobs admitted while the breaker was open
}

// admission is one job's snapshot of breaker verdicts, fixed at job start.
type admission struct {
	blocked map[string]bool // keys that short-circuit this job
	probes  map[string]bool // keys this job runs as half-open probes
}

func newQuarantine(threshold, probeAfter int) *quarantine {
	if probeAfter <= 0 {
		probeAfter = DefaultProbeAfter
	}
	return &quarantine{policy: breaker.Policy{Threshold: threshold, Wait: int64(probeAfter)},
		entries: map[string]*scenarioBreaker{}}
}

// admit snapshots verdicts for one job's scenario keys. Tripped keys are
// blocked; a tripped key whose half-open wait has elapsed (and that has no
// probe already in flight) is admitted as a probe instead. probes reports
// how many probe admissions were granted (for the service counter).
func (q *quarantine) admit(keys []string) (adm *admission, probes int) {
	adm = &admission{blocked: map[string]bool{}, probes: map[string]bool{}}
	q.mu.Lock()
	defer q.mu.Unlock()
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		e := q.entries[k]
		if e == nil || !e.Open() {
			continue
		}
		if e.Ready(q.policy, e.satOut) {
			e.StartProbe()
			adm.probes[k] = true
			probes++
		} else {
			adm.blocked[k] = true
		}
		e.satOut++
	}
	return adm, probes
}

// report feeds one finished job's results back into the breaker: non-probe
// panic/timeout outcomes accumulate toward the threshold (tripping the
// breaker when reached), and probe keys are resolved — clean probes reset
// the breaker, failing ones re-arm the half-open wait. trips reports how
// many keys tripped on this job. results are index-aligned with keys;
// quarantined outcomes never count as failures.
func (q *quarantine) report(adm *admission, keys []string, results []*campaign.Result) (trips int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	probeFailed := map[string]bool{}
	probeSeen := map[string]bool{}
	for i, r := range results {
		if r == nil || i >= len(keys) {
			continue
		}
		k := keys[i]
		failed := r.Outcome == campaign.OutcomePanic || r.Outcome == campaign.OutcomeTimeout
		if adm != nil && adm.probes[k] {
			probeSeen[k] = true
			if failed {
				probeFailed[k] = true
			}
			continue
		}
		if r.Outcome == campaign.OutcomeQuarantined || !failed {
			continue
		}
		e := q.entries[k]
		if e == nil {
			e = &scenarioBreaker{}
			q.entries[k] = e
		}
		if e.Strike(q.policy, e.satOut) {
			trips++
		}
	}
	for k := range probeSeen {
		if e := q.entries[k]; e != nil {
			e.Resolve(!probeFailed[k], e.satOut)
			if !e.Open() {
				delete(q.entries, k) // healed: full reset
			}
		}
	}
	return trips
}

// abort releases probe reservations of a job that never produced results
// (cancelled, stalled, or failed before aggregation), so the half-open slot
// is not wedged forever.
func (q *quarantine) abort(adm *admission) {
	if adm == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for k := range adm.probes {
		if e := q.entries[k]; e != nil {
			e.AbortProbe()
		}
	}
}

// --- Server integration -------------------------------------------------

// quarantineEnabled reports whether the breaker is configured.
func (s *Server) quarantineEnabled() bool { return s.QuarantineThreshold > 0 }

// breaker returns the lazily-constructed quarantine (construction is
// deferred so NewServer has no configuration ordering constraints).
func (s *Server) breaker() *quarantine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantine == nil {
		s.quarantine = newQuarantine(s.QuarantineThreshold, s.QuarantineProbeAfter)
	}
	return s.quarantine
}

// quarantineAdmit computes the job's scenario keys and breaker snapshot
// just before it starts.
func (s *Server) quarantineAdmit(job *Job) {
	if !s.quarantineEnabled() {
		return
	}
	q := s.breaker()
	keys := make([]string, len(job.scs))
	for i := range job.scs {
		keys[i] = campaign.ScenarioKey(job.scs[i])
	}
	adm, probes := q.admit(keys)
	if probes > 0 {
		s.quarantineProbes.Add(uint64(probes))
	}
	s.mu.Lock()
	job.keys = keys
	job.adm = adm
	s.mu.Unlock()
}

// quarantineGate builds the engine Gate for the job: blocked scenario
// indexes short-circuit to a recorded quarantined result. The admission is
// fixed for the job's lifetime, so the gate is deterministic at any worker
// count.
func (s *Server) quarantineGate(job *Job) func(int, *campaign.Scenario) *campaign.Result {
	adm, keys := job.adm, job.keys
	if adm == nil || len(adm.blocked) == 0 {
		return nil
	}
	return func(i int, sc *campaign.Scenario) *campaign.Result {
		if i >= len(keys) || !adm.blocked[keys[i]] {
			return nil
		}
		s.scenariosQuarantined.Inc()
		return campaign.QuarantinedResult(sc)
	}
}

// quarantineReport resolves the finished job against the breaker.
func (s *Server) quarantineReport(job *Job, results []*campaign.Result) {
	if !s.quarantineEnabled() || job.keys == nil {
		return
	}
	if trips := s.breaker().report(job.adm, job.keys, results); trips > 0 {
		s.quarantineTrips.Add(uint64(trips))
		s.logger().Warn("quarantine breaker tripped", "job", job.ID, "trips", trips)
		s.flightDump("quarantine", job)
	}
}

// quarantineAbort releases the job's probe reservations when it ends
// without results.
func (s *Server) quarantineAbort(job *Job) {
	if !s.quarantineEnabled() || job.adm == nil {
		return
	}
	s.breaker().abort(job.adm)
}
