// Package core assembles the simulated victim machine: physical memory and
// its allocators, the KASLR'd virtual layout, the IOMMU with its invalidation
// policy, the DMA API, the kernel execution model (NX/ROP/JOP), and the
// network stack. It is the top-level entry point library users start from;
// the attack and experiment packages operate on a *System.
//
// Boot a machine with New and functional options:
//
//	sys, err := core.New(core.WithSeed(2021), core.WithIOMMUMode(iommu.Strict),
//	    core.WithCPUs(4), core.WithTracing(1024))
//
// Every booted System carries a metrics.Registry (System.Metrics) with all
// subsystem Sources registered, so one Gather yields the machine's complete
// counter state in a deterministic, mergeable snapshot.
package core

import (
	"fmt"

	"dmafault/internal/dma"
	"dmafault/internal/faultinject"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
	"dmafault/internal/metrics"
	"dmafault/internal/netstack"
	"dmafault/internal/sim"
	"dmafault/internal/trace"
)

// config describes one simulated machine boot: the carrier the options of
// New resolve into.
type config struct {
	// Seed drives every randomized component (KASLR draw, boot-order
	// jitter). Equal seeds boot identical machines. The kernel text image
	// belongs to the build (kexec.DefaultBuild), not the seed.
	Seed int64
	// KASLR randomizes the kernel layout (on by default in Linux).
	KASLR bool
	// Mode is the IOMMU invalidation policy; Linux defaults to Deferred.
	Mode iommu.Mode
	// CPUs is the number of simulated cores (per-CPU allocators and rings).
	CPUs int
	// MemBytes is the simulated physical memory size.
	MemBytes uint64
	// Forwarding enables the packet-forwarding path (§5.5).
	Forwarding bool
	// OutOfLineSharedInfo applies the D3 hardening: skb_shared_info is
	// allocated separately from the (DMA-mapped) packet data.
	OutOfLineSharedInfo bool
	// Tracer, if set, observes allocator and CPU-access events (D-KASAN).
	Tracer mem.Tracer
	// FaultPlan, if set, arms deterministic fault injection across every
	// substrate hook (see internal/faultinject); nil boots a clean machine.
	FaultPlan *faultinject.Plan
}

// System is one simulated victim machine.
type System struct {
	Layout *layout.Layout
	Mem    *mem.Memory
	Clock  *sim.Clock
	IOMMU  *iommu.IOMMU
	Mapper *dma.Mapper
	Bus    *dma.Bus
	Kernel *kexec.Kernel
	Net    *netstack.Stack

	// Metrics is the machine's registry with every subsystem Source
	// registered (nil when booted WithoutMetrics). Gather it only while the
	// machine is quiescent.
	Metrics *metrics.Registry

	// Inject is the machine's fault injector (nil unless booted with a
	// FaultPlan). Its counters report opportunities vs injected faults.
	Inject *faultinject.Injector

	trace       *trace.Log
	traceHooked bool
}

// Defaults used when config fields are zero.
const (
	DefaultCPUs     = 4
	DefaultMemBytes = 128 << 20
)

// New boots a machine from functional options. Defaults: KASLR on, deferred
// IOMMU invalidation, DefaultCPUs cores, DefaultMemBytes of memory, metrics
// registry attached, tracing off.
func New(opts ...Option) (*System, error) {
	st := settings{cfg: config{KASLR: true}}
	for _, o := range opts {
		o(&st)
	}
	s, err := boot(st.cfg)
	if err != nil {
		return nil, err
	}
	if !st.noMetrics {
		s.initMetrics()
	}
	if st.tracing {
		s.EnableTracing(st.traceCap)
	}
	return s, nil
}

// boot assembles the substrates.
func boot(cfg config) (*System, error) {
	if cfg.CPUs <= 0 {
		cfg.CPUs = DefaultCPUs
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = DefaultMemBytes
	}
	l := layout.New(layout.Config{KASLR: cfg.KASLR, Seed: cfg.Seed, PhysBytes: cfg.MemBytes})
	// The injector is scoped by the machine seed: equal (plan, seed) pairs
	// make identical decisions, keeping fault-injected boots deterministic.
	// Fields are only assigned when the injector exists, so a nil plan
	// leaves every hook interface nil (no typed-nil indirection on hot
	// paths).
	inj := faultinject.New(cfg.FaultPlan, cfg.Seed)
	memCfg := mem.Config{Layout: l, CPUs: cfg.CPUs, Tracer: cfg.Tracer}
	if inj != nil {
		memCfg.Inject = inj
	}
	m, err := mem.New(memCfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	clk := sim.NewClock()
	unit := iommu.New(cfg.Mode, clk)
	mapper := dma.NewMapper(m, unit)
	kern := kexec.NewKernel(m, kexec.DefaultBuild)
	nsCfg := netstack.Config{
		Mem: m, Mapper: mapper, Kernel: kern, Clock: clk,
		Forwarding: cfg.Forwarding, OutOfLineSharedInfo: cfg.OutOfLineSharedInfo,
	}
	bus := dma.NewBus(m, unit)
	if inj != nil {
		unit.Inject = inj
		bus.Inject = inj
		nsCfg.Inject = inj
	}
	ns, err := netstack.New(nsCfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{
		Layout: l, Mem: m, Clock: clk, IOMMU: unit,
		Mapper: mapper, Bus: bus, Kernel: kern, Net: ns,
		Inject: inj,
	}, nil
}

// initMetrics builds the registry and registers every subsystem Source. The
// trace ring is registered through an indirection so EnableTracing can swap
// the live ring without re-registering.
func (s *System) initMetrics() {
	s.Metrics = metrics.NewRegistry()
	s.Metrics.MustRegister(s.IOMMU, s.Mem, s.Net,
		clockSource{s.Clock}, traceSource{s})
	// Fault-injected machines additionally expose injected-vs-detected
	// counters; clean boots omit the families entirely, keeping historical
	// snapshots (and their golden files) byte-identical.
	if s.Inject != nil {
		s.Metrics.MustRegister(s.Inject)
	}
}

// clockSource exposes the virtual clock as a gauge.
type clockSource struct{ clk *sim.Clock }

func (c clockSource) Describe() []metrics.Desc {
	return []metrics.Desc{{
		Name: "sim_virtual_time_nanos",
		Help: "Current virtual time of the machine clock.",
		Kind: metrics.KindGauge,
	}}
}

func (c clockSource) Collect(emit func(string, metrics.Sample)) {
	emit("sim_virtual_time_nanos", metrics.Sample{Value: float64(c.clk.Now())})
}

// traceSource delegates to the system's current forensic ring, so the
// registry follows EnableTracing swaps and emits nothing before tracing is
// armed.
type traceSource struct{ s *System }

func (t traceSource) Describe() []metrics.Desc { return (*trace.Log)(nil).Describe() }

func (t traceSource) Collect(emit func(string, metrics.Sample)) {
	if t.s.trace != nil {
		t.s.trace.Collect(emit)
	}
}

// Trace returns the forensic event ring, or nil if tracing was never
// enabled.
func (s *System) Trace() *trace.Log { return s.trace }

// EnableTracing attaches an event log to every subsystem: DMA map/unmap,
// device accesses (with faults), IOMMU faults, callback dispatches, and
// privilege escalations all become time-stamped events. Returns the log.
//
// Calling it again swaps in a fresh ring of the new capacity (the previous
// log stops receiving events and keeps its retained history); the
// subsystem hooks are installed only once.
func (s *System) EnableTracing(capacity int) *trace.Log {
	s.trace = trace.NewLog(s.Clock, capacity)
	if s.traceHooked {
		return s.trace
	}
	s.traceHooked = true
	s.Mapper.AddHook(&traceHook{s})
	s.Bus.OnAccess = func(dev iommu.DeviceID, va iommu.IOVA, n int, write bool, err error) {
		kind := trace.EvDeviceRead
		if write {
			kind = trace.EvDeviceWrite
		}
		note := ""
		if err != nil {
			note = "FAULTED"
		}
		s.trace.Append(kind, uint16(dev), uint64(va), uint64(n), note)
	}
	s.IOMMU.OnFault = func(f *iommu.Fault) {
		s.trace.Append(trace.EvFault, uint16(f.Dev), uint64(f.Addr), uint64(f.Perm), f.Error())
	}
	s.Kernel.OnDispatch = func(fn layout.Addr, arg uint64) {
		note := ""
		if s.Kernel.Text().Contains(fn) {
			note = "into kernel text"
		} else {
			note = "NON-TEXT TARGET"
		}
		s.trace.Append(trace.EvCallback, 0, uint64(fn), arg, note)
	}
	s.Kernel.OnEscalation = func() {
		s.trace.Append(trace.EvEscalation, 0, 0, 0, "privilege escalation (commit_creds with forged cred)")
	}
	return s.trace
}

// traceHook adapts the system's current trace ring to the dma.Hook
// interface.
type traceHook struct{ s *System }

func (h *traceHook) OnMap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir dma.Direction, va iommu.IOVA) {
	h.s.trace.Append(trace.EvDMAMap, uint16(dev), uint64(va), n, dir.String())
}

func (h *traceHook) OnUnmap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir dma.Direction, va iommu.IOVA) {
	h.s.trace.Append(trace.EvDMAUnmap, uint16(dev), uint64(va), n, dir.String())
}

// AddNIC attaches a NIC in its own IOMMU domain and fills its RX ring.
func (s *System) AddNIC(dev iommu.DeviceID, model netstack.DriverModel, cpu int) (*netstack.NIC, error) {
	if _, err := s.IOMMU.CreateDomain(model.Name, dev); err != nil {
		return nil, err
	}
	n, err := s.Net.AddNIC(dev, model, cpu)
	if err != nil {
		return nil, err
	}
	if err := n.FillRX(); err != nil {
		return nil, err
	}
	return n, nil
}

// AttachToDomainOf attaches an extra device (e.g. the FireWire attacker of
// §6) to an existing device's domain, sharing its page table.
func (s *System) AttachToDomainOf(newDev, existing iommu.DeviceID) error {
	d, err := s.IOMMU.DomainOf(existing)
	if err != nil {
		return err
	}
	return s.IOMMU.AttachDevice(newDev, d)
}
