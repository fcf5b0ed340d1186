// Package campaign turns the repo's one-off attack studies into
// declarative, parallel, reproducible campaigns — the shape of every result
// in the paper's evaluation (§6: hundreds of boots × attack attempts ×
// hardware configurations). It has four parts:
//
//   - Scenario: a serializable spec covering every knob the substrates
//     expose (core.New options, kernel version, driver model, ring-queue
//     count, boot jitter) plus which attack or probe to run;
//   - Engine: a worker pool that shards scenarios across goroutines, each
//     booting an isolated core.System (built on internal/par, so results
//     are byte-identical at any worker count);
//   - Grid / Mutator: deterministic scenario generators — exhaustive cross
//     products and seeded DyMA-Fuzz-style perturbations;
//   - Aggregate / Summary: an order-stable merge of per-scenario results
//     (success rates, Fig. 7 window-path histograms, escalation counts,
//     trace-ring drops, D-KASAN tallies) with deterministic JSON encoding.
//
// cmd/campaign is the CLI; attacks.RunBootStudy and
// attacks.RingFloodCampaign run on the same par substrate, so the legacy
// sequential entry points are thin wrappers over the engine's pool.
package campaign

// Presets generate ready-to-run scenario sets for the CLI and tests. All
// are pure functions of (n, seed).

// MixedPreset is the §6-shaped mixed campaign: boot studies, ring floods,
// and window-ladder probes with randomized knobs. Study sizes are kept
// small per scenario — campaigns get their statistics from scenario count,
// not per-scenario trial count.
func MixedPreset(n int, seed int64) []Scenario {
	m := NewMutator(Scenario{Seed: seed, Trials: 4, Attempts: 2}, seed)
	m.Kinds = []Kind{KindBootStudy, KindRingFlood, KindWindowLadder}
	return m.Generate(n)
}

// FuzzPreset mutates across every kind (adds Poisoned TX, Forward Thinking,
// and D-KASAN scenarios to the mix).
func FuzzPreset(n int, seed int64) []Scenario {
	m := NewMutator(Scenario{Seed: seed, Trials: 4, Attempts: 2, Iterations: 6}, seed)
	return m.Generate(n)
}

// BootStudyPreset sweeps the §5.3 grid: kernel × jitter amplitude, n/8
// replicas per cell (minimum 1).
func BootStudyPreset(n int, seed int64) []Scenario {
	replicas := n / 8
	if replicas < 1 {
		replicas = 1
	}
	return Grid(Scenario{Kind: KindBootStudy, Seed: seed, Trials: 8}, GridSpec{
		Kernels:  []string{"5.0", "4.15"},
		Jitters:  []int{128, 512, 1024, 2048},
		Replicas: replicas,
	})
}

// RingFloodPreset sweeps ring-flood success across kernels and modes.
func RingFloodPreset(n int, seed int64) []Scenario {
	replicas := n / 4
	if replicas < 1 {
		replicas = 1
	}
	return Grid(Scenario{Kind: KindRingFlood, Seed: seed, Trials: 6, Attempts: 2}, GridSpec{
		Kernels:  []string{"5.0", "4.15"},
		Modes:    []string{"deferred", "strict"},
		Replicas: replicas,
	})
}

// LadderPreset is the Fig. 7 matrix as a campaign: driver ordering × IOMMU
// mode, n/4 replicas per cell.
func LadderPreset(n int, seed int64) []Scenario {
	replicas := n / 4
	if replicas < 1 {
		replicas = 1
	}
	return Grid(Scenario{Kind: KindWindowLadder, Seed: seed}, GridSpec{
		Drivers:  []string{"i40e", "correct"},
		Modes:    []string{"deferred", "strict"},
		Replicas: replicas,
	})
}

// Presets maps preset names to generators (stable iteration via sorted
// keys at the call site).
var Presets = map[string]func(n int, seed int64) []Scenario{
	"mixed":     MixedPreset,
	"fuzz":      FuzzPreset,
	"bootstudy": BootStudyPreset,
	"ringflood": RingFloodPreset,
	"ladder":    LadderPreset,
}
