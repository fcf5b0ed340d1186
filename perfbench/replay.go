package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dmafault/internal/attacks"
	"dmafault/internal/campaign"
	"dmafault/internal/core"
	"dmafault/internal/dkasan"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
	"dmafault/internal/metrics"
	"dmafault/internal/netstack"
	"dmafault/internal/obs"
	"dmafault/internal/sim"
	"dmafault/internal/trace"
	dkworkload "dmafault/internal/workload"
)

// These mirror the campaign runner's constants: the malicious NIC's
// requester ID and the forensic ring capacity of single-boot scenarios.
const (
	attackerDev  iommu.DeviceID = 1
	traceRingCap                = 512
)

// probeSeedOffset keeps the coverage probe's scenarios apart from the
// workload's own.
const probeSeedOffset = 1 << 33

// replayLayers is the layer replay of the traced run. Every reference
// scenario is executed again on this goroutine through the packages' public
// calls, one span per call under a scenario span, and must reach the same
// verdict as the engine did; otherwise its layer numbers are void and the
// run fails. A coverage probe follows.
func (b *bench) replayLayers(w workload, tr *tracing) error {
	ref := w.reference()
	have := map[campaign.Kind]bool{}
	seen := map[campaign.Digest]bool{}
	for i, s := range ref.scenarios {
		// A spec scheduled twice would replay identically.
		d := campaign.ScenarioDigest(s)
		if seen[d] {
			continue
		}
		seen[d] = true
		got, err := tr.replayScenario(s)
		r := ref.summary.Results[i]
		switch {
		case err != nil:
			b.fail("layer replay of %s: %v", s.ID, err)
		case got.success != r.Success || got.windowPath != r.WindowPath:
			b.fail("layer replay of %s reached success=%v path=%q, the engine success=%v path=%q",
				s.ID, got.success, got.windowPath, r.Success, r.WindowPath)
		}
		have[s.Kind] = true
	}
	scen, n := tr.main.sum("replay.scenario_ms")
	covered, _ := tr.main.sum("replay.covered_ms")
	fmt.Printf("layer replay: %d scenarios, layer spans cover %.1f%% of %.1f ms attempt wall time (unattributed %.2f ms per scenario)\n",
		n, 100*covered/scen, scen, (scen-covered)/float64(n))
	return b.probe(tr, have)
}

type replayed struct {
	success    bool
	windowPath string
}

// replayScenario executes one normalized scenario the way the campaign
// runner does, with a span per layer call.
func (t *tracing) replayScenario(s campaign.Scenario) (replayed, error) {
	var out replayed
	sp := t.tracer.Start("replay.scenario", obs.A("id", s.ID), obs.A("kind", string(s.Kind)))
	start := time.Now()
	covered := 0.0
	step := func(name string, fn func(*obs.ActiveSpan) error) error {
		ms, err := t.call(sp, name, fn)
		covered += ms
		return err
	}
	sys, err := t.replayKind(s, &out, step)
	t.cur.add("replay.scenario_ms", sinceMS(start))
	t.cur.add("replay.covered_ms", covered)
	if err != nil {
		sp.End(obs.A("outcome", "error"))
		return out, err
	}
	sp.End()
	if sys != nil {
		// Every attack derives its ROP chain from a gadget scan of the
		// kernel image; the attacks do it internally, so the scan is timed
		// here on the replayed machine, outside the scenario span.
		scan := t.tracer.Start("replay.text_scan", obs.A("id", s.ID))
		_, err = t.call(scan, "kexec.text_scan", func(*obs.ActiveSpan) error {
			_, err := kexec.ExtractBuildOffsets(sys.Kernel.Text(), sys.Layout.Symbols())
			return err
		})
		scan.End()
	}
	return out, err
}

// call runs fn under a child span of parent and records its wall time and
// heap allocation as <name>_ms and <name>_alloc_mb.
func (t *tracing) call(parent *obs.ActiveSpan, name string, fn func(*obs.ActiveSpan) error) (float64, error) {
	a0 := heapAllocs()
	sp := parent.Child(name)
	start := time.Now()
	err := fn(sp)
	ms := sinceMS(start)
	alloc := heapAllocs() - a0
	attrs := []obs.Attr{obs.Af("alloc_bytes", "%d", alloc)}
	if err != nil {
		attrs = append(attrs, obs.A("outcome", "error"))
	}
	sp.End(attrs...)
	t.cur.add(name+"_ms", ms)
	t.cur.add(name+"_alloc_mb", float64(alloc)/1e6)
	return ms, err
}

type stepFunc func(name string, fn func(*obs.ActiveSpan) error) error

// replayKind dispatches on the scenario kind. Single-boot kinds return the
// booted machine.
func (t *tracing) replayKind(s campaign.Scenario, out *replayed, step stepFunc) (*core.System, error) {
	version, err := kernelVersion(s.Kernel)
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case campaign.KindBootStudy:
		var st *attacks.BootStudy
		err := step("attacks.boot_study", func(*obs.ActiveSpan) (err error) {
			st, err = attacks.RunBootStudyOpts(version, s.Trials, s.Seed,
				attacks.BootOptions{JitterPages: jitter(s), Queues: s.Queues})
			return err
		})
		out.success = err == nil && st.ModalRate > 0.5
		return nil, err
	case campaign.KindRingFlood:
		var study *attacks.BootStudy
		if err := step("attacks.boot_study", func(*obs.ActiveSpan) (err error) {
			study, err = attacks.RunBootStudyQueues(version, s.Trials, s.Seed, jitter(s), s.Queues)
			return err
		}); err != nil {
			return nil, err
		}
		var hits int
		err := step("attacks.ring_flood", func(*obs.ActiveSpan) (err error) {
			hits, _, err = attacks.RingFloodCampaignOpts(version, study, s.Attempts, s.Seed+1_000_000, nil)
			return err
		})
		out.success = hits > 0
		return nil, err
	}
	return t.replaySingleBoot(s, out, step)
}

func (t *tracing) replaySingleBoot(s campaign.Scenario, out *replayed, step stepFunc) (*core.System, error) {
	switch {
	case s.Kind == campaign.KindForwardThinking:
		s.Forwarding = true
	case s.Kind == campaign.KindPageSpray && s.Driver == "":
		s.Driver = netstack.DriverMlx5LRO.Name
	}
	model, err := driverModel(s.Driver)
	if err != nil {
		return nil, err
	}
	var dk *dkasan.Sanitizer
	var memTracer mem.Tracer
	if s.Kind == campaign.KindDKASAN {
		dk = dkasan.New()
		memTracer = dk
	}
	var sys *core.System
	if err := step("core.boot", func(sp *obs.ActiveSpan) (err error) {
		sys, err = t.boot(sp, s, memTracer)
		return err
	}); err != nil {
		return nil, err
	}
	if dk != nil {
		dk.Attach(sys.Mem, sys.Mapper)
		sys.Metrics.MustRegister(dk)
	}
	var nic *netstack.NIC
	if err := step("netstack.add_nic", func(*obs.ActiveSpan) (err error) {
		nic, err = sys.AddNIC(attackerDev, model, 0)
		return err
	}); err != nil {
		return nil, err
	}
	attack := func(name string, run func() *attacks.Result) {
		var res *attacks.Result
		_ = step(name, func(*obs.ActiveSpan) error { res = run(); return nil })
		out.success, out.windowPath = res.Success, res.Detail["window_path"]
	}
	switch s.Kind {
	case campaign.KindPoisonedTX:
		attack("attacks.poisoned_tx", func() *attacks.Result { return attacks.RunPoisonedTX(sys, nic) })
	case campaign.KindForwardThinking:
		attack("attacks.forward_thinking", func() *attacks.Result { return attacks.RunForwardThinking(sys, nic) })
	case campaign.KindPageSpray:
		blocks := s.SprayBlocks
		if blocks <= 0 {
			blocks = campaign.DefaultSprayBlocks
		}
		attack("attacks.page_spray", func() *attacks.Result {
			return attacks.RunPageSpray(sys, nic, attacks.SprayConfig{Blocks: blocks, Order: s.SprayOrder})
		})
	case campaign.KindWindowLadder:
		var path attacks.WindowPath
		if err := step("attacks.window_probe", func(*obs.ActiveSpan) (err error) {
			path, err = attacks.ProbeTimeWindow(sys, nic, attacks.PickNeighborSlot(nic))
			return err
		}); err != nil {
			return nil, err
		}
		out.success, out.windowPath = path != attacks.WindowNone, path.String()
	case campaign.KindDKASAN:
		if err := step("workload.dkasan", func(*obs.ActiveSpan) error {
			_, err := dkworkload.Run(sys, nic, dkworkload.Config{Iterations: s.Iterations, NICDevice: attackerDev})
			return err
		}); err != nil {
			return nil, err
		}
		out.success = len(dk.Reports()) > 0
	default:
		return nil, fmt.Errorf("unknown kind %q", s.Kind)
	}
	err = step("metrics.gather", func(*obs.ActiveSpan) error {
		_, err := sys.Metrics.Gather()
		return err
	})
	return sys, err
}

// boot assembles a machine from the substrate constructors in core.New's
// order, one span per constructor under the core.boot span, then attaches
// the metrics registry and (for attack kinds) the forensic trace ring.
func (t *tracing) boot(parent *obs.ActiveSpan, s campaign.Scenario, memTracer mem.Tracer) (*core.System, error) {
	mode, err := iommuMode(s.Mode)
	if err != nil {
		return nil, err
	}
	memBytes := s.MemBytes
	if memBytes == 0 {
		memBytes = core.DefaultMemBytes
	}
	cpus := s.CPUs
	if cpus <= 0 {
		cpus = core.DefaultCPUs
	}
	step := func(name string, fn func() error) error {
		_, err := t.call(parent, name, func(*obs.ActiveSpan) error { return fn() })
		return err
	}
	sys := &core.System{Clock: sim.NewClock()}
	_ = step("layout.new", func() error {
		sys.Layout = layout.New(layout.Config{KASLR: !s.NoKASLR, Seed: s.Seed, PhysBytes: memBytes})
		return nil
	})
	if err := step("mem.new", func() (err error) {
		sys.Mem, err = mem.New(mem.Config{Layout: sys.Layout, CPUs: cpus, Tracer: memTracer})
		return err
	}); err != nil {
		return nil, err
	}
	_ = step("iommu.new", func() error { sys.IOMMU = iommu.New(mode, sys.Clock); return nil })
	_ = step("dma.new_mapper", func() error { sys.Mapper = dma.NewMapper(sys.Mem, sys.IOMMU); return nil })
	_ = step("kexec.new_kernel", func() error { sys.Kernel = kexec.NewKernel(sys.Mem, s.Seed); return nil })
	_ = step("dma.new_bus", func() error { sys.Bus = dma.NewBus(sys.Mem, sys.IOMMU); return nil })
	if err := step("netstack.new", func() (err error) {
		sys.Net, err = netstack.New(netstack.Config{
			Mem: sys.Mem, Mapper: sys.Mapper, Kernel: sys.Kernel, Clock: sys.Clock,
			Forwarding: s.Forwarding, OutOfLineSharedInfo: s.OutOfLineSharedInfo,
		})
		return err
	}); err != nil {
		return nil, err
	}
	sys.Metrics = metrics.NewRegistry()
	sys.Metrics.MustRegister(sys.IOMMU, sys.Mem, sys.Net, clockSource{sys.Clock}, traceSource{sys})
	if memTracer == nil {
		sys.EnableTracing(traceRingCap)
	}
	return sys, nil
}

// clockSource and traceSource are the registry sources core.New registers
// besides the substrates: the virtual clock and the current trace ring.
type clockSource struct{ clk *sim.Clock }

func (c clockSource) Describe() []metrics.Desc {
	return []metrics.Desc{{Name: "sim_virtual_time_nanos", Help: "Current virtual time of the machine clock.", Kind: metrics.KindGauge}}
}

func (c clockSource) Collect(emit func(string, metrics.Sample)) {
	emit("sim_virtual_time_nanos", metrics.Sample{Value: float64(c.clk.Now())})
}

type traceSource struct{ s *core.System }

func (t traceSource) Describe() []metrics.Desc { return (*trace.Log)(nil).Describe() }

func (t traceSource) Collect(emit func(string, metrics.Sample)) {
	if l := t.s.Trace(); l != nil {
		l.Collect(emit)
	}
}

// The scenario knob parsers below follow the campaign package's.

func kernelVersion(k string) (attacks.KernelVersion, error) {
	switch k {
	case "", string(attacks.Kernel50):
		return attacks.Kernel50, nil
	case string(attacks.Kernel415):
		return attacks.Kernel415, nil
	}
	return "", fmt.Errorf("unknown kernel %q", k)
}

func iommuMode(m string) (iommu.Mode, error) {
	switch m {
	case "", "deferred":
		return iommu.Deferred, nil
	case "strict":
		return iommu.Strict, nil
	}
	return 0, fmt.Errorf("unknown IOMMU mode %q", m)
}

func driverModel(d string) (netstack.DriverModel, error) {
	for _, m := range []netstack.DriverModel{netstack.DriverI40E, netstack.DriverCorrect,
		netstack.DriverMlx5, netstack.DriverMlx5LRO} {
		if d == m.Name {
			return m, nil
		}
	}
	if d == "" {
		return netstack.DriverI40E, nil
	}
	return netstack.DriverModel{}, fmt.Errorf("unknown driver %q", d)
}

func jitter(s campaign.Scenario) int {
	switch {
	case s.JitterPages < 0:
		return 0
	case s.JitterPages == 0:
		return attacks.BootJitterPages
	}
	return s.JitterPages
}

// probe measures, on a small generated set, the layers the workload itself
// does not reach, so every per-layer metric has a value on every workload:
// one layer replay for each scenario kind the reference set lacks, then a
// two-scenario window-ladder campaign run cold into a result store, replayed
// from it with a journal, and run through a two-worker fabric.
func (b *bench) probe(tr *tracing, have map[campaign.Kind]bool) error {
	tr.startProbe()
	seed := b.seed + probeSeedOffset
	gen := func(k campaign.Kind, n int) []campaign.Scenario {
		m := campaign.NewMutator(campaign.Scenario{Seed: seed, Trials: 4, Attempts: 2, Iterations: 6}, seed)
		m.Kinds = []campaign.Kind{k}
		return m.Generate(n)
	}
	for _, k := range campaign.AllKinds() {
		if have[k] {
			continue
		}
		s := gen(k, 1)[0]
		s.Normalize(0)
		if _, err := tr.replayScenario(s); err != nil {
			b.fail("probe replay of %s: %v", s.ID, err)
		}
	}
	w := &replayWorkload{}
	defer w.close()
	dir := filepath.Join(b.dir, "probe")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	if err := w.fill(dir, gen(campaign.KindWindowLadder, 2), tr); err != nil {
		return fmt.Errorf("probe cold pass: %w", err)
	}
	ps, err := w.pass(tr)
	if err != nil {
		return fmt.Errorf("probe warm pass: %w", err)
	}
	for _, p := range ps.problems {
		b.fail("probe warm pass: %s", p)
	}
	f := startFleet(w.store)
	defer f.stop()
	ps, err = f.run(w.ref, tr)
	if err != nil {
		return fmt.Errorf("probe fabric run: %w", err)
	}
	for _, p := range ps.problems {
		b.fail("probe fabric run: %s", p)
	}
	return nil
}
