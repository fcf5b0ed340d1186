package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dmafault/internal/attacks"
	"dmafault/internal/core"
	"dmafault/internal/faultinject"
	"dmafault/internal/iommu"
	"dmafault/internal/mem"
	"dmafault/internal/netstack"
)

// Kind selects which attack or probe a scenario runs.
type Kind string

const (
	// KindBootStudy re-runs the §5.3 boot-determinism study: many reboots,
	// PFN repeat statistics (Trials, JitterPages, Queues).
	KindBootStudy Kind = "boot-study"
	// KindRingFlood profiles with a boot study, then attacks Attempts fresh
	// boots (§5.3) and counts escalations.
	KindRingFlood Kind = "ring-flood"
	// KindPoisonedTX runs the §5.4 manufactured-leak attack on one boot.
	KindPoisonedTX Kind = "poisoned-tx"
	// KindForwardThinking runs the §5.5 GRO/forwarding attack on one boot
	// (Forwarding is forced on).
	KindForwardThinking Kind = "forward-thinking"
	// KindWindowLadder probes the Fig. 7 time-window ladder on one boot:
	// which path (driver ordering / stale IOTLB / neighbor IOVA) is open
	// under the scenario's Driver and Mode.
	KindWindowLadder Kind = "window-ladder"
	// KindDKASAN boots with the D-KASAN tracer attached, runs the build+ping
	// workload, and tallies reports per class (§7 detection).
	KindDKASAN Kind = "dkasan"
	// KindPageSpray runs the "Take a Step Further" spray-assisted injection:
	// a delivered packet frees its RX buffer, the kernel sprays same-order
	// page blocks over the hole, and the device writes its payload through
	// the stale IOTLB entry into whichever sprayed object won the race
	// (SprayBlocks, SprayOrder).
	KindPageSpray Kind = "page-spray"
)

// Kinds lists the original grid-preset kinds, in stable order. The list is
// frozen: preset scenario sequences (Mutator draws kinds by index) and the
// golden summaries derived from them must not shift when new kinds land.
func Kinds() []Kind {
	return []Kind{KindBootStudy, KindRingFlood, KindPoisonedTX,
		KindForwardThinking, KindWindowLadder, KindDKASAN}
}

// AllKinds lists every runnable kind, including ones newer than the frozen
// preset list — the space generators like the coverage-guided fuzzer mutate
// over.
func AllKinds() []Kind { return append(Kinds(), KindPageSpray) }

// Scenario is one serializable cell of the campaign space: every knob the
// substrates expose, with zero values meaning "the paper's default" so a
// JSON scenario only states what it perturbs. Equal scenarios always
// produce equal results (the seed drives every randomized component).
type Scenario struct {
	// ID labels the scenario in reports; Normalize derives one if empty.
	ID   string `json:"id,omitempty"`
	Kind Kind   `json:"kind"`
	// Seed drives KASLR, boot jitter, and any attack RNG.
	Seed int64 `json:"seed"`

	// --- machine knobs (core.New options) ---

	// NoKASLR disables layout randomization (KASLR is on by default).
	NoKASLR bool `json:"no_kaslr,omitempty"`
	// Mode is the IOMMU invalidation policy: "deferred" (default) or
	// "strict".
	Mode string `json:"mode,omitempty"`
	// CPUs is the simulated core count (0 = core.DefaultCPUs).
	CPUs int `json:"cpus,omitempty"`
	// MemBytes is the simulated physical memory (0 = sized automatically).
	MemBytes uint64 `json:"mem_bytes,omitempty"`
	// Forwarding enables the §5.5 forwarding path.
	Forwarding bool `json:"forwarding,omitempty"`
	// OutOfLineSharedInfo applies the D3 hardening.
	OutOfLineSharedInfo bool `json:"out_of_line_shared_info,omitempty"`

	// --- driver / boot knobs ---

	// Kernel picks the §5.3 driver-footprint regime: "5.0" (default) or
	// "4.15" (HW LRO).
	Kernel string `json:"kernel,omitempty"`
	// Driver overrides the NIC model for single-boot kinds:
	// "i40e" (default), "correct", "mlx5_core-5.0", "mlx5_core-4.15".
	Driver string `json:"driver,omitempty"`
	// Queues is the RX ring count for boot studies (0 = 1).
	Queues int `json:"queues,omitempty"`
	// JitterPages is the early-boot drift amplitude; 0 means the default
	// (attacks.BootJitterPages), negative means no jitter.
	JitterPages int `json:"jitter_pages,omitempty"`

	// --- study sizes ---

	// Trials is the reboot count for boot-study and ring-flood profiling
	// (0 = 8).
	Trials int `json:"trials,omitempty"`
	// Attempts is the attack-boot count for ring-flood (0 = 2).
	Attempts int `json:"attempts,omitempty"`
	// Iterations sizes the D-KASAN workload (0 = 8).
	Iterations int `json:"iterations,omitempty"`

	// --- page-spray knobs (KindPageSpray) ---

	// SprayBlocks is how many page blocks the spray pass allocates over the
	// freed RX buffer (0 = DefaultSprayBlocks).
	SprayBlocks int `json:"spray_blocks,omitempty"`
	// SprayOrder is the buddy order of each sprayed block: 0 means "match
	// the victim buffer's own order" (the exact-overlay strategy), negative
	// means order-0 single pages.
	SprayOrder int `json:"spray_order,omitempty"`

	// SkipMetrics runs the scenario without metric collection (no registry
	// on booted machines, no snapshot in the result) — the ablation knob of
	// the overhead benchmark.
	SkipMetrics bool `json:"skip_metrics,omitempty"`

	// --- hardening knobs ---

	// FaultSpec arms deterministic fault injection for every machine the
	// scenario boots, in faultinject.ParseSpec syntax (e.g.
	// "dma-corrupt:0.01,alloc-fail@3"). Empty means a clean run.
	FaultSpec string `json:"fault_spec,omitempty"`
	// TimeoutMS is the wall-clock deadline for one execution attempt of the
	// scenario; 0 means no deadline. On expiry the engine records a
	// structured "timeout" outcome and moves on.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Defaults applied by Normalize.
const (
	DefaultTrials     = 8
	DefaultAttempts   = 2
	DefaultIterations = 8
	// DefaultSprayBlocks is the page-spray allocation count when
	// SprayBlocks is 0. Applied at run time, not by Normalize, so specs
	// of other kinds never grow spray fields.
	DefaultSprayBlocks = 8
)

// Normalize fills derived fields (ID) and study-size defaults in place.
func (s *Scenario) Normalize(index int) {
	if s.Trials <= 0 {
		s.Trials = DefaultTrials
	}
	if s.Attempts <= 0 {
		s.Attempts = DefaultAttempts
	}
	if s.Iterations <= 0 {
		s.Iterations = DefaultIterations
	}
	if s.ID == "" {
		s.ID = fmt.Sprintf("%04d-%s-seed%d", index, s.Kind, s.Seed)
	}
}

// Validate rejects specs the runner cannot execute.
func (s *Scenario) Validate() error {
	switch s.Kind {
	case KindBootStudy, KindRingFlood, KindPoisonedTX, KindForwardThinking,
		KindWindowLadder, KindDKASAN, KindPageSpray:
	default:
		return fmt.Errorf("campaign: unknown kind %q", s.Kind)
	}
	if s.SprayBlocks < 0 {
		return fmt.Errorf("campaign: negative spray_blocks %d", s.SprayBlocks)
	}
	if s.SprayOrder > mem.MaxOrder {
		return fmt.Errorf("campaign: spray_order %d exceeds mem.MaxOrder %d", s.SprayOrder, mem.MaxOrder)
	}
	if _, err := s.iommuMode(); err != nil {
		return err
	}
	if _, err := s.kernelVersion(); err != nil {
		return err
	}
	if _, err := s.driverModel(); err != nil {
		return err
	}
	if s.FaultSpec != "" {
		if _, err := faultinject.ParseSpec(s.FaultSpec); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("campaign: negative timeout_ms %d", s.TimeoutMS)
	}
	return nil
}

// faultPlan compiles the FaultSpec into a plan for one execution attempt.
// The plan seed is the scenario seed (equal scenarios inject identically);
// the attempt number becomes the salt, so a retry re-rolls every rate-based
// decision while point-based rules still fire at their fixed ordinals.
func (s *Scenario) faultPlan(attempt int) (*faultinject.Plan, error) {
	if s.FaultSpec == "" {
		return nil, nil
	}
	plan, err := faultinject.ParseSpec(s.FaultSpec)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	plan.Seed = s.Seed
	plan.Salt = int64(attempt)
	return plan, nil
}

// iommuMode parses the Mode knob.
func (s *Scenario) iommuMode() (iommu.Mode, error) {
	switch s.Mode {
	case "", "deferred":
		return iommu.Deferred, nil
	case "strict":
		return iommu.Strict, nil
	default:
		return 0, fmt.Errorf("campaign: unknown IOMMU mode %q", s.Mode)
	}
}

// kernelVersion parses the Kernel knob.
func (s *Scenario) kernelVersion() (attacks.KernelVersion, error) {
	switch s.Kernel {
	case "", string(attacks.Kernel50):
		return attacks.Kernel50, nil
	case string(attacks.Kernel415):
		return attacks.Kernel415, nil
	default:
		return "", fmt.Errorf("campaign: unknown kernel %q", s.Kernel)
	}
}

// driverModel parses the Driver knob (single-boot kinds).
func (s *Scenario) driverModel() (netstack.DriverModel, error) {
	switch s.Driver {
	case "", netstack.DriverI40E.Name:
		return netstack.DriverI40E, nil
	case netstack.DriverCorrect.Name:
		return netstack.DriverCorrect, nil
	case netstack.DriverMlx5.Name:
		return netstack.DriverMlx5, nil
	case netstack.DriverMlx5LRO.Name:
		return netstack.DriverMlx5LRO, nil
	default:
		return netstack.DriverModel{}, fmt.Errorf("campaign: unknown driver %q", s.Driver)
	}
}

// jitter resolves the JitterPages convention (0 = default, <0 = none).
func (s *Scenario) jitter() int {
	if s.JitterPages < 0 {
		return 0
	}
	if s.JitterPages == 0 {
		return attacks.BootJitterPages
	}
	return s.JitterPages
}

// options assembles the core.New options for single-boot kinds; a non-nil
// plan arms fault injection on the booted machine.
func (s *Scenario) options(plan *faultinject.Plan) ([]core.Option, error) {
	mode, err := s.iommuMode()
	if err != nil {
		return nil, err
	}
	opts := []core.Option{
		core.WithSeed(s.Seed),
		core.WithKASLR(!s.NoKASLR),
		core.WithIOMMUMode(mode),
	}
	if s.CPUs > 0 {
		opts = append(opts, core.WithCPUs(s.CPUs))
	}
	if s.MemBytes > 0 {
		opts = append(opts, core.WithMemBytes(s.MemBytes))
	}
	if s.Forwarding {
		opts = append(opts, core.WithForwarding())
	}
	if s.OutOfLineSharedInfo {
		opts = append(opts, core.WithOutOfLineSharedInfo())
	}
	if s.SkipMetrics {
		opts = append(opts, core.WithoutMetrics())
	}
	if plan != nil {
		opts = append(opts, core.WithFaultPlan(plan))
	}
	return opts, nil
}

// LoadScenarios reads a JSON scenario array (or a {"scenarios": [...]}
// campaign document) and normalizes and validates every entry.
func LoadScenarios(r io.Reader) ([]Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var scs []Scenario
	if err := json.Unmarshal(data, &scs); err != nil {
		var doc struct {
			Scenarios []Scenario `json:"scenarios"`
		}
		if err2 := json.Unmarshal(data, &doc); err2 != nil || doc.Scenarios == nil {
			return nil, fmt.Errorf("campaign: parse scenarios: %w", err)
		}
		scs = doc.Scenarios
	}
	return NormalizeSet(scs)
}

// NormalizeSet returns an index-normalized copy of the set, or the first
// spec that fails Validate. Every entry point that accepts a scenario set
// (LoadScenarios, Engine.RunCtx, the fabric coordinator) goes through it,
// so a set is stamped and rejected the same way everywhere.
func NormalizeSet(scs []Scenario) ([]Scenario, error) {
	norm := normalizeSet(scs)
	for i := range norm {
		if err := norm[i].Validate(); err != nil {
			return nil, fmt.Errorf("scenario %d (%s): %w", i, norm[i].ID, err)
		}
	}
	return norm, nil
}

// LoadScenarioFile is LoadScenarios over a file path.
func LoadScenarioFile(path string) ([]Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	return LoadScenarios(f)
}

// SaveScenarios writes the set as indented JSON, suitable for LoadScenarios.
func SaveScenarios(w io.Writer, scs []Scenario) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(scs)
}
