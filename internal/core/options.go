package core

import (
	"dmafault/internal/faultinject"
	"dmafault/internal/iommu"
	"dmafault/internal/mem"
)

// Option configures a machine boot for New. The zero configuration is the
// paper's default victim: KASLR on (as on Linux), the deferred IOMMU
// invalidation policy, DefaultCPUs cores, DefaultMemBytes of memory, no
// forwarding, and the metrics registry attached.
type Option func(*settings)

// settings is the resolved boot configuration: the machine config plus the
// knobs that only affect the System wrapper.
type settings struct {
	cfg       config
	tracing   bool
	traceCap  int
	noMetrics bool
}

// WithSeed sets the seed driving every randomized component (KASLR draw,
// text image, boot-order jitter). Equal seeds boot identical machines.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.cfg.Seed = seed }
}

// WithKASLR toggles kernel layout randomization (on by default, as on
// Linux).
func WithKASLR(on bool) Option {
	return func(s *settings) { s.cfg.KASLR = on }
}

// WithIOMMUMode selects the invalidation policy (default iommu.Deferred,
// the Linux default).
func WithIOMMUMode(m iommu.Mode) Option {
	return func(s *settings) { s.cfg.Mode = m }
}

// WithCPUs sets the simulated core count (per-CPU allocators and rings).
func WithCPUs(n int) Option {
	return func(s *settings) { s.cfg.CPUs = n }
}

// WithMemBytes sets the simulated physical memory size.
func WithMemBytes(n uint64) Option {
	return func(s *settings) { s.cfg.MemBytes = n }
}

// WithForwarding enables the packet-forwarding path (§5.5).
func WithForwarding() Option {
	return func(s *settings) { s.cfg.Forwarding = true }
}

// WithOutOfLineSharedInfo applies the D3 hardening: skb_shared_info is
// allocated separately from the (DMA-mapped) packet data.
func WithOutOfLineSharedInfo() Option {
	return func(s *settings) { s.cfg.OutOfLineSharedInfo = true }
}

// WithTracer attaches an allocator/CPU-access observer (D-KASAN).
func WithTracer(t mem.Tracer) Option {
	return func(s *settings) { s.cfg.Tracer = t }
}

// WithTracing arms the forensic event ring at boot with the given capacity
// (0 picks the trace package default). The log is reachable via
// System.Trace.
func WithTracing(capacity int) Option {
	return func(s *settings) { s.tracing, s.traceCap = true, capacity }
}

// WithoutMetrics boots without the metrics registry — the ablation knob the
// overhead benchmark uses. System.Metrics is nil.
func WithoutMetrics() Option {
	return func(s *settings) { s.noMetrics = true }
}

// WithFaultPlan arms deterministic fault injection: every substrate hook
// (DMA writes, IOMMU translations, RX refills, page allocations) consults
// an injector compiled from the plan, scoped by the machine seed. A nil
// plan boots clean; the injector's counters join the metrics registry so
// injected-vs-detected counts appear in every snapshot.
func WithFaultPlan(p *faultinject.Plan) Option {
	return func(s *settings) { s.cfg.FaultPlan = p }
}
