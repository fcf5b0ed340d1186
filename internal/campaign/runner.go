package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dmafault/internal/attacks"
	"dmafault/internal/core"
	"dmafault/internal/dkasan"
	"dmafault/internal/faultinject"
	"dmafault/internal/iommu"
	"dmafault/internal/metrics"
	"dmafault/internal/netstack"
	"dmafault/internal/workload"
)

// attackerDev is the requester ID campaign boots give the malicious NIC,
// matching the attacks package convention.
const attackerDev iommu.DeviceID = 1

// traceRingCap bounds the per-scenario forensic event ring. Old events fall
// off; Result.TraceDropped counts them, so million-scenario campaigns never
// hold full traces in memory.
const traceRingCap = 512

// Result is the outcome of one scenario, flattened for aggregation and
// stable JSON encoding. Metrics values are pre-formatted strings so the
// encoding never depends on float printing context.
type Result struct {
	ID          string `json:"id"`
	Kind        Kind   `json:"kind"`
	Seed        int64  `json:"seed"`
	Success     bool   `json:"success"`
	Escalations int    `json:"escalations"`
	// WindowPath is the Fig. 7 path the scenario's injection used (empty
	// for kinds without one).
	WindowPath string `json:"window_path,omitempty"`
	// Metrics carries kind-specific numbers (modal rates, report tallies).
	Metrics map[string]string `json:"metrics,omitempty"`
	// TraceEvents/TraceDropped report the forensic ring's retention.
	TraceEvents  int    `json:"trace_events,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// StepsDropped counts attack-log lines shed by the Result step cap.
	StepsDropped uint64 `json:"steps_dropped,omitempty"`
	// VirtualNanos is the final virtual-clock reading of the machine(s) the
	// scenario booted, summed (0 for kinds that don't capture metrics).
	VirtualNanos uint64 `json:"virtual_nanos,omitempty"`
	// Snapshot is the machine's full metric dump gathered once the scenario
	// finished (nil under skip_metrics, or for kinds that don't capture one).
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
	// Err records a scenario-level failure; the campaign keeps going.
	Err string `json:"err,omitempty"`
	// Outcome classifies abnormal terminations the engine isolated:
	// OutcomePanic, OutcomeTimeout, or empty for a scenario that ran to
	// completion (successfully or not).
	Outcome string `json:"outcome,omitempty"`
	// Stack is the sanitized goroutine stack of a panicking scenario
	// (addresses and goroutine IDs normalized so equal campaigns stay
	// byte-identical at any worker count).
	Stack string `json:"stack,omitempty"`
	// Retries counts the extra attempts the engine spent on transient
	// injected faults before producing this result.
	Retries int `json:"retries,omitempty"`

	// transient marks Err as wrapping faultinject.ErrTransient — the class
	// of failure the engine's retry loop re-attempts.
	transient bool
	// rest is the result's canonical compact JSON after its ID, made once
	// (see Encode); nil until then.
	rest []byte
}

// Abnormal-termination outcomes the engine records in Result.Outcome.
const (
	// OutcomePanic: the scenario panicked; the engine isolated it and kept
	// the campaign alive. Result.Stack holds the sanitized trace.
	OutcomePanic = "panic"
	// OutcomeTimeout: the scenario's TimeoutMS deadline expired.
	OutcomeTimeout = "timeout"
)

// captureMetrics gathers the system registry into the result. A gather
// failure is a Source contract bug; it surfaces as a scenario error.
func (r *Result) captureMetrics(sys *core.System) {
	if sys.Metrics == nil {
		return
	}
	snap, err := sys.Metrics.Gather()
	if err != nil {
		if r.Err == "" {
			r.Err = "metrics: " + err.Error()
		}
		return
	}
	r.Snapshot = snap
	r.VirtualNanos += uint64(sys.Clock.Now())
}

func (s *Scenario) newResult() *Result {
	return &Result{ID: s.ID, Kind: s.Kind, Seed: s.Seed, Metrics: map[string]string{}}
}

// RunScenario executes one scenario to completion. Execution errors are
// captured in Result.Err (a campaign run survives individual failures);
// only an invalid spec returns a Go error.
func RunScenario(s Scenario) (*Result, error) {
	return runAttempt(context.Background(), s, 0)
}

// scenarioStallWall is the wall-clock hang an injected ScenarioStall fault
// simulates — long enough that any realistic TimeoutMS deadline fires first,
// short enough that undeadlined campaigns still make progress.
const scenarioStallWall = 250 * time.Millisecond

// runAttempt is one execution attempt: the attempt number salts the fault
// plan so retries re-roll rate-based injection decisions. Control-flow
// faults (scenario-panic, scenario-stall) fire here from a scenario-scoped
// injector before any machine boots; substrate faults arm the boots via the
// plan. Errors wrapping faultinject.ErrTransient mark the result transient
// for the engine's retry loop.
func runAttempt(ctx context.Context, s Scenario, attempt int) (*Result, error) {
	s.Normalize(0)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan, err := s.faultPlan(attempt)
	if err != nil {
		return nil, err
	}
	r := s.newResult()
	if inj := faultinject.New(plan, s.Seed); inj != nil {
		if inj.Fire(faultinject.ScenarioPanic) {
			panic(fmt.Sprintf("faultinject: injected scenario panic (%s)", s.ID))
		}
		if inj.Fire(faultinject.ScenarioStall) {
			select {
			case <-ctx.Done():
			case <-time.After(scenarioStallWall):
			}
		}
	}
	var runErr error
	switch s.Kind {
	case KindBootStudy:
		runErr = runBootStudy(&s, r, plan)
	case KindRingFlood:
		runErr = runRingFlood(&s, r, plan)
	case KindPoisonedTX, KindForwardThinking:
		runErr = runSingleBootAttack(&s, r, plan)
	case KindWindowLadder:
		runErr = runWindowLadder(&s, r, plan)
	case KindDKASAN:
		runErr = runDKASAN(&s, r, plan)
	case KindPageSpray:
		runErr = runPageSpray(&s, r, plan)
	}
	if runErr != nil {
		r.Err = runErr.Error()
		r.transient = errors.Is(runErr, faultinject.ErrTransient)
	}
	return r, nil
}

// runBootStudy reproduces the §5.3 statistics for the scenario's cell.
func runBootStudy(s *Scenario, r *Result, plan *faultinject.Plan) error {
	version, _ := s.kernelVersion()
	st, err := attacks.RunBootStudyOpts(version, s.Trials, s.Seed,
		attacks.BootOptions{JitterPages: s.jitter(), Queues: s.Queues, FaultPlan: plan})
	if err != nil {
		return err
	}
	r.Metrics["modal_rate"] = fmt.Sprintf("%.4f", st.ModalRate)
	r.Metrics["median_rate"] = fmt.Sprintf("%.4f", st.MedianRate)
	r.Metrics["footprint_pages"] = fmt.Sprintf("%d", st.FootprintPages)
	r.Metrics["modal_pfn"] = fmt.Sprintf("%d", st.ModalPFN)
	// The paper's determinism claim: the modal frame repeats in >50% of
	// reboots (kernel 5.0; >95% on 4.15).
	r.Success = st.ModalRate > 0.5
	return nil
}

// runRingFlood profiles offline, then attacks fresh boots (§5.3). The
// profiling study runs clean — it models the attacker's own machine — while
// the attacked victim boots carry the scenario's fault plan.
func runRingFlood(s *Scenario, r *Result, plan *faultinject.Plan) error {
	version, _ := s.kernelVersion()
	study, err := attacks.RunBootStudyOpts(version, s.Trials, s.Seed, attacks.BootOptions{JitterPages: s.jitter(), Queues: s.Queues})
	if err != nil {
		return err
	}
	// Attack boots draw unseen seeds, disjoint from the profiling range.
	hits, results, err := attacks.RingFloodCampaignOpts(version, study, s.Attempts, s.Seed+1_000_000, plan)
	if err != nil {
		return err
	}
	paths := map[string]int{}
	for _, res := range results {
		r.Escalations += res.Escalations
		r.StepsDropped += res.DroppedSteps
		if p := res.Detail["window_path"]; p != "" {
			paths[p]++
		}
	}
	// Merge the per-attempt machine snapshots in attempt order — the same
	// order the historical sequential loop produced — so the merged dump is
	// byte-identical at any worker count.
	if !s.SkipMetrics {
		snap := &metrics.Snapshot{}
		for _, res := range results {
			if err := snap.Merge(res.Snapshot); err != nil {
				return err
			}
		}
		if len(snap.Families) > 0 {
			r.Snapshot = snap
			r.VirtualNanos = uint64(snap.Total("sim_virtual_time_nanos"))
		}
	}
	for p, n := range paths {
		r.Metrics["path["+p+"]"] = fmt.Sprintf("%d", n)
	}
	r.Metrics["hits"] = fmt.Sprintf("%d", hits)
	r.Metrics["attempts"] = fmt.Sprintf("%d", s.Attempts)
	r.Metrics["modal_rate"] = fmt.Sprintf("%.4f", study.ModalRate)
	r.Success = hits > 0
	return nil
}

// bootAttackSystem boots a single-NIC system per the scenario spec with the
// forensic trace ring attached.
func (s *Scenario) bootAttackSystem(plan *faultinject.Plan) (*core.System, *netstack.NIC, func(*Result), error) {
	opts, err := s.options(plan)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := core.New(append(opts, core.WithTracing(traceRingCap))...)
	if err != nil {
		return nil, nil, nil, err
	}
	log := sys.Trace()
	model, _ := s.driverModel()
	nic, err := sys.AddNIC(attackerDev, model, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	finish := func(r *Result) {
		r.TraceEvents = len(log.Events())
		r.TraceDropped = log.Dropped
		r.captureMetrics(sys)
	}
	return sys, nic, finish, nil
}

// takeAttack copies a single-boot attack's verdict into the scenario result.
func (r *Result) takeAttack(res *attacks.Result) {
	r.Success = res.Success
	r.Escalations = res.Escalations
	r.StepsDropped = res.DroppedSteps
	r.WindowPath = res.Detail["window_path"]
}

// runSingleBootAttack covers Poisoned TX (§5.4) and Forward Thinking (§5.5).
func runSingleBootAttack(s *Scenario, r *Result, plan *faultinject.Plan) error {
	if s.Kind == KindForwardThinking {
		// §5.5 has no story without the forwarding path.
		s.Forwarding = true
	}
	sys, nic, finish, err := s.bootAttackSystem(plan)
	if err != nil {
		return err
	}
	var res *attacks.Result
	if s.Kind == KindForwardThinking {
		res = attacks.RunForwardThinking(sys, nic)
	} else {
		res = attacks.RunPoisonedTX(sys, nic)
	}
	r.takeAttack(res)
	r.Metrics["steps"] = fmt.Sprintf("%d", len(res.Steps))
	finish(r)
	return nil
}

// runWindowLadder probes which Fig. 7 path is open under the scenario's
// driver ordering and IOMMU mode.
func runWindowLadder(s *Scenario, r *Result, plan *faultinject.Plan) error {
	sys, nic, finish, err := s.bootAttackSystem(plan)
	if err != nil {
		return err
	}
	path, err := attacks.ProbeTimeWindow(sys, nic, attacks.PickNeighborSlot(nic))
	if err != nil {
		return err
	}
	r.WindowPath = path.String()
	// The §5.2 claim: some path is always open.
	r.Success = path != attacks.WindowNone
	finish(r)
	return nil
}

// runPageSpray runs the spray-assisted injection ("Take a Step Further"):
// free a device-visible RX page block, spray kernel objects over the hole,
// write through the stale IOTLB entry. An unspecified driver defaults to the
// mlx5 HW-LRO model — the datapath whose buffers actually reach the buddy
// allocator on release (other drivers remain explicit choices, and usually
// demonstrate the miss).
func runPageSpray(s *Scenario, r *Result, plan *faultinject.Plan) error {
	if s.Driver == "" {
		s.Driver = netstack.DriverMlx5LRO.Name
	}
	sys, nic, finish, err := s.bootAttackSystem(plan)
	if err != nil {
		return err
	}
	blocks := s.SprayBlocks
	if blocks <= 0 {
		blocks = DefaultSprayBlocks
	}
	res := attacks.RunPageSpray(sys, nic, attacks.SprayConfig{Blocks: blocks, Order: s.SprayOrder})
	r.takeAttack(res)
	r.Metrics["spray"] = res.Detail["reuse"]
	if v := res.Detail["stale"]; v != "" {
		r.Metrics["stale"] = v
	}
	r.Metrics["spray_blocks"] = res.Detail["spray_blocks"]
	r.Metrics["spray_order"] = res.Detail["spray_order"]
	finish(r)
	return nil
}

// runDKASAN boots with the sanitizer attached and tallies its reports.
func runDKASAN(s *Scenario, r *Result, plan *faultinject.Plan) error {
	opts, err := s.options(plan)
	if err != nil {
		return err
	}
	dk := dkasan.New()
	sys, err := core.New(append(opts, core.WithTracer(dk))...)
	if err != nil {
		return err
	}
	dk.Attach(sys.Mem, sys.Mapper)
	if sys.Metrics != nil {
		sys.Metrics.MustRegister(dk)
	}
	model, _ := s.driverModel()
	nic, err := sys.AddNIC(attackerDev, model, 0)
	if err != nil {
		return err
	}
	if _, err := workload.Run(sys, nic, workload.Config{Iterations: s.Iterations, NICDevice: attackerDev}); err != nil {
		return err
	}
	st := dk.Stats()
	r.Metrics["alloc_after_map"] = fmt.Sprintf("%d", st.AllocAfterMap)
	r.Metrics["map_after_alloc"] = fmt.Sprintf("%d", st.MapAfterAlloc)
	r.Metrics["access_after_map"] = fmt.Sprintf("%d", st.AccessAfterMap)
	r.Metrics["multiple_map"] = fmt.Sprintf("%d", st.MultipleMap)
	r.Metrics["reports"] = fmt.Sprintf("%d", len(dk.Reports()))
	r.Success = len(dk.Reports()) > 0
	r.captureMetrics(sys)
	return nil
}
