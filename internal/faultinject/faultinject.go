// Package faultinject is the deterministic chaos layer of the simulator:
// a seed-driven fault plan that the execution substrates consult at their
// natural failure points — DMA writes (internal/dma), IOMMU translations
// (internal/iommu), RX ring refills (internal/netstack), page allocations
// (internal/mem), and scenario dispatch (internal/campaign).
//
// The paper's whole argument is that hardware misbehaves in exactly these
// places; this package lets campaigns misbehave on purpose, repeatably. A
// Plan is a set of per-class rules, rate-based ("corrupt 1% of DMA writes")
// or point-based ("fail the 3rd allocation"). Every decision is a pure
// function of (plan seed, plan salt, scope seed, class, per-class
// opportunity counter), so a campaign under injection stays byte-identical
// at any worker count — the same determinism contract the rest of the repo
// enforces (DESIGN.md §7).
//
// Hook direction: each consuming package defines its own small interface
// (dma.WriteInjector, iommu.Injector, netstack.RefillInjector,
// mem.AllocInjector) and *Injector satisfies all of them structurally, so
// no substrate imports this package for wiring — only core does, through
// core.WithFaultPlan.
package faultinject

import (
	"errors"

	"dmafault/internal/iommu"
	"dmafault/internal/metrics"
	"dmafault/internal/sim"
)

// Class enumerates the injectable fault classes. The order is the wire
// order of metrics and spec rendering; append only.
type Class uint8

const (
	// DMACorrupt flips one byte of a device DMA write (sub-page corruption
	// in the Thunderclap/peripheral-misbehavior spirit).
	DMACorrupt Class = iota
	// DMADrop silently discards a device DMA write (a lost posted write).
	DMADrop
	// IOMMUStall delays a translation, advancing the virtual clock — which
	// can push a deferred-flush deadline past its window.
	IOMMUStall
	// IOMMUFault forces a spurious translation fault (counted by the IOMMU
	// like any real fault, so injected-vs-detected is directly readable).
	IOMMUFault
	// RingDrop loses an RX descriptor refill: the slot stays unposted.
	RingDrop
	// AllocFail makes a page allocation fail transiently (allocator
	// pressure); the error wraps ErrTransient so callers can retry.
	AllocFail
	// ScenarioPanic panics a campaign scenario at dispatch — exercising the
	// engine's panic isolation.
	ScenarioPanic
	// ScenarioStall blocks a campaign scenario at dispatch for longer than
	// any sane per-scenario deadline — exercising timeout handling.
	ScenarioStall

	numClasses
)

var vocabulary = Vocabulary{Pkg: "faultinject", Names: []string{
	"dma-corrupt",
	"dma-drop",
	"iommu-stall",
	"iommu-fault",
	"ring-drop",
	"alloc-fail",
	"scenario-panic",
	"scenario-stall",
}}

// Vocabulary binds the plan engine to this package's class names.
func (Class) Vocabulary() *Vocabulary { return &vocabulary }

// String names the class as ParseSpec spells it.
func (c Class) String() string { return vocabulary.Name(uint8(c)) }

// Classes lists every fault class in stable order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// ClassByName resolves a spec name back to its class.
func ClassByName(name string) (Class, bool) {
	c, ok := vocabulary.lookup(name)
	return Class(c), ok
}

// ErrTransient marks injected failures that a retry with a fresh salt may
// clear. Substrates wrap it with %w; the campaign engine classifies with
// errors.Is.
var ErrTransient = errors.New("injected transient fault")

// TranslateStallNanos is the virtual-time cost of one injected IOMMU stall:
// comfortably larger than an invalidation (~2000 cycles) so a stall can
// carry a deferred-flush deadline past its window.
const TranslateStallNanos = 5 * sim.Microsecond

// Rule and Plan are the plan engine's rule and plan over this package's
// classes.
type (
	Rule = RuleOf[Class]
	Plan = PlanOf[Class]
)

// ParseSpec compiles a fault spec (see Parse for the grammar), e.g.
// "dma-corrupt:0.01,alloc-fail@1,scenario-panic:0.2". Seed and Salt are
// left zero; the campaign engine binds the scenario seed and the attempt
// number.
func ParseSpec(spec string) (*Plan, error) { return Parse[Class](spec) }

// Injector makes the plan's decisions for one scope (one booted machine or
// one scenario attempt). It is NOT safe for concurrent use: each scope owns
// its injector, exactly as each scope owns its machine. All methods are
// nil-receiver safe and report "no fault".
type Injector struct {
	s Stream[Class]
}

// New compiles a plan for a scope (typically the machine seed). A nil or
// empty plan yields a nil injector, which every method treats as "inject
// nothing".
func New(plan *Plan, scope int64) *Injector {
	if plan == nil || len(plan.Rules) == 0 {
		return nil
	}
	return &Injector{s: Compile(plan, scope)}
}

// Fire counts one opportunity of the class and decides whether to inject.
func (in *Injector) Fire(c Class) bool {
	if in == nil {
		return false
	}
	return in.s.Fire(c)
}

// Counts returns (opportunities, injections) for a class — the
// injected-vs-detected numerator tests and reports read.
func (in *Injector) Counts(c Class) (ops, injected uint64) {
	if in == nil {
		return 0, 0
	}
	return in.s.Counts(c)
}

// --- substrate hooks (each satisfies a consumer-defined interface) ---

// InjectDeviceWrite implements dma.WriteInjector: it may drop the write
// entirely (true) or corrupt one byte of buf in place. The bus hands it a
// private copy of the payload, so corruption never mutates driver memory.
func (in *Injector) InjectDeviceWrite(dev iommu.DeviceID, va iommu.IOVA, buf []byte) (drop bool) {
	if in == nil {
		return false
	}
	if in.Fire(DMADrop) {
		return true
	}
	if in.Fire(DMACorrupt) && len(buf) > 0 {
		// Reuse the decision stream (different constant) for position and
		// flip pattern; the xor is forced nonzero so the byte always changes.
		h := in.s.Draw(DMACorrupt, 0xc0ee)
		buf[h%uint64(len(buf))] ^= byte(h>>8) | 1
	}
	return false
}

// InjectTranslate implements iommu.Injector: a positive stall advances the
// virtual clock before the walk; spurious forces a not-present fault.
func (in *Injector) InjectTranslate(dev iommu.DeviceID, v iommu.IOVA, write bool) (stall sim.Nanos, spurious bool) {
	if in == nil {
		return 0, false
	}
	if in.Fire(IOMMUStall) {
		stall = TranslateStallNanos
	}
	return stall, in.Fire(IOMMUFault)
}

// InjectRXRefillDrop implements netstack.RefillInjector: true loses the
// descriptor refill for this round (the slot stays unposted).
func (in *Injector) InjectRXRefillDrop(dev iommu.DeviceID, slot int) bool {
	return in.Fire(RingDrop)
}

// InjectAllocFailure implements mem.AllocInjector: true makes the page
// allocation fail with an error wrapping ErrTransient.
func (in *Injector) InjectAllocFailure() bool {
	return in.Fire(AllocFail)
}

// --- metrics ---

// Describe implements metrics.Source: opportunity and injection counters
// per class, so injected-vs-detected is readable from any snapshot.
func (in *Injector) Describe() []metrics.Desc {
	return []metrics.Desc{
		{Name: "faultinject_opportunities_total",
			Help: "Fault-injection decision points consulted, per class.", Kind: metrics.KindCounter},
		{Name: "faultinject_injected_total",
			Help: "Faults actually injected, per class.", Kind: metrics.KindCounter},
	}
}

// Collect implements metrics.Source. Every class is emitted (zeros
// included) so sample sets are structurally identical across machines.
func (in *Injector) Collect(emit func(string, metrics.Sample)) {
	if in == nil {
		return
	}
	for c := Class(0); c < numClasses; c++ {
		ops, hits := in.s.Counts(c)
		emit("faultinject_opportunities_total",
			metrics.Sample{Labels: metrics.L("class", c.String()), Value: float64(ops)})
		emit("faultinject_injected_total",
			metrics.Sample{Labels: metrics.L("class", c.String()), Value: float64(hits)})
	}
}
