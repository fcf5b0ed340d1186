// Package attacks implements the paper's DMA code-injection attacks against
// the simulated Linux machine:
//
//   - a single-step baseline in the style of prior work (Thunderclap [45],
//     Kupfer [38]), where all three vulnerability attributes of §3.3 are
//     present on one mapped page;
//   - the three novel compound attacks of §5: RingFlood (§5.3), Poisoned TX
//     (§5.4), and Forward Thinking (§5.5), including the §5.5 arbitrary-
//     page-read surveillance variant;
//   - the boot-determinism study behind RingFlood (256 simulated reboots,
//     PFN repeat statistics for kernels 5.0 and 4.15);
//   - the Fig. 7 time-window matrix (driver ordering × IOMMU mode ×
//     neighbor-IOVA path).
//
// Every attack operates strictly through the device side (IOVA DMA via the
// IOMMU) plus build knowledge, acquiring the three attributes — malicious
// buffer KVA, writable callback pointer, time window — the same way the
// paper does.
//
// Each operation has one entry point: BootOnceOpts boots a machine,
// RunBootStudyOpts profiles many boots (RunBootStudyQueues is its shorthand
// for the perfbench module), RingFloodCampaignOpts floods fresh boots,
// ProbeTimeWindow and WindowMatrix probe Fig. 7, NewAttacker builds the
// malicious device, and RunSingleStep, RunFreelistDoS, RunRingFlood,
// RunPoisonedTX, RunForwardThinking, RunSurveillance, RunMemoryDump and
// RunPageSpray run the attacks. Each attack step is written once: the
// KASLR-breaking prologue (openAttack, breakKASLR), the Fig. 7 window
// ladder (primeSI, overwriteDargLadder, triggerInjection), the forged-frag
// read (leakVmemmap, readForgedFrag, forgedRead.undo) and the delayed
// TX-completion tail (completeTX).
package attacks

import (
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/metrics"
)

// MaxSteps bounds the per-result step trace. Like trace.Log, the trace is
// a ring: once full, the oldest line falls off and DroppedSteps counts it —
// million-scenario campaigns must not hold every step line in memory.
const MaxSteps = 64

// Result is the outcome of one attack run: a human-readable step trace plus
// the success criterion (privilege escalations observed by the kernel). The
// JSON encoding is snake_case, matching the repo's wire-format convention.
type Result struct {
	Name string `json:"name"`
	// Steps holds the most recent MaxSteps trace lines, oldest first.
	Steps       []string `json:"steps"`
	Success     bool     `json:"success"`
	Escalations int      `json:"escalations"`
	// DroppedSteps counts older lines shed once Steps reached MaxSteps.
	DroppedSteps uint64 `json:"dropped_steps,omitempty"`
	// Detail carries attack-specific numbers (hit rates, leaked bytes...).
	Detail map[string]string `json:"detail,omitempty"`
	// Snapshot, set by RunRingFlood when the attacked machine carried a
	// metrics registry, is its full metric dump gathered after the attack
	// finished.
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
}

func newResult(name string) *Result {
	return &Result{Name: name, Detail: make(map[string]string)}
}

// logf appends a formatted step to the trace, shedding the oldest line at
// the MaxSteps cap.
func (r *Result) logf(format string, args ...any) {
	if len(r.Steps) >= MaxSteps {
		copy(r.Steps, r.Steps[1:])
		r.Steps = r.Steps[:len(r.Steps)-1]
		r.DroppedSteps++
	}
	r.Steps = append(r.Steps, fmt.Sprintf(format, args...))
}

// fail records a blocking failure as the final step.
func (r *Result) fail(err error) *Result {
	r.logf("BLOCKED: %v", err)
	r.Success = false
	return r
}

// CaptureMetrics gathers the machine's metric registry into the result. It
// is a no-op on systems booted without metrics; a gather failure (a Source
// contract bug) is recorded in Detail rather than aborting the attack.
func (r *Result) CaptureMetrics(sys *core.System) {
	if sys.Metrics == nil {
		return
	}
	snap, err := sys.Metrics.Gather()
	if err != nil {
		r.Detail["metrics_error"] = err.Error()
		return
	}
	r.Snapshot = snap
}

// String renders the trace. Step numbering stays absolute: a capped trace
// starts at DroppedSteps+1.
func (r *Result) String() string {
	out := fmt.Sprintf("=== %s (success=%v, escalations=%d) ===\n", r.Name, r.Success, r.Escalations)
	if r.DroppedSteps > 0 {
		out += fmt.Sprintf("  ... %d earlier step(s) dropped ...\n", r.DroppedSteps)
	}
	for i, s := range r.Steps {
		out += fmt.Sprintf("  %2d. %s\n", uint64(i+1)+r.DroppedSteps, s)
	}
	return out
}
