package experiments

import (
	"fmt"

	"dmafault/internal/attacks"
	"dmafault/internal/cminor"
	"dmafault/internal/core"
	"dmafault/internal/corpus"
	"dmafault/internal/device"
	"dmafault/internal/dkasan"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
	"dmafault/internal/sim"
	"dmafault/internal/spade"
	"dmafault/internal/workload"
)

const nicDev iommu.DeviceID = 1

func bootSystem(cfg Config, mode iommu.Mode, forwarding bool) (*core.System, *netstack.NIC, error) {
	opts := []core.Option{core.WithSeed(cfg.Seed), core.WithIOMMUMode(mode)}
	if forwarding {
		opts = append(opts, core.WithForwarding())
	}
	sys, err := core.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	nic, err := sys.AddNIC(nicDev, netstack.DriverI40E, 0)
	if err != nil {
		return nil, nil, err
	}
	return sys, nic, nil
}

// Figure1 constructs one live instance of each sub-page vulnerability type
// (a)–(d) and verifies device visibility through the IOMMU.
func Figure1(cfg Config) (*Outcome, error) {
	o := newOutcome("F1", "The four sub-page vulnerability types (Figure 1)")
	sys, nic, err := bootSystem(cfg, iommu.Strict, false)
	if err != nil {
		return nil, err
	}
	atk, err := attacks.NewAttacker(sys, nicDev)
	if err != nil {
		return nil, err
	}

	// (a) Driver metadata: a buggy driver maps a whole command struct.
	blk, err := attacks.InstallBuggyDriver(sys, nicDev, 0)
	if err != nil {
		return nil, err
	}
	words, err := atk.ReadWords(blk.IOVA, 4)
	if err != nil {
		return nil, err
	}
	aOK := layout.Addr(words[0]) == blk.KVA // self list head readable
	o.printf("(a) driver metadata: mapped command struct leaks its own KVA %#x: %v\n", words[0], aOK)

	// (b) OS metadata: skb_shared_info always rides on the data page.
	s, err := sys.Net.AllocSKB(0, 2048)
	if err != nil {
		return nil, err
	}
	va, err := sys.Mapper.MapSingle(nicDev, s.Head, netstack.TruesizeFor(2048), dma.FromDevice)
	if err != nil {
		return nil, err
	}
	siIOVA := device.SharedInfoIOVA(va, 2048)
	bOK := atk.CanWrite(siIOVA)
	o.printf("(b) OS metadata: skb_shared_info at IOVA %#x is device-writable with its packet: %v\n", uint64(siIOVA), bOK)
	if err := sys.Mapper.UnmapSingle(nicDev, va, netstack.TruesizeFor(2048), dma.FromDevice); err != nil {
		return nil, err
	}
	if err := sys.Net.ReleaseSKB(s); err != nil {
		return nil, err
	}

	// (c) Multiple IOVAs: two ring buffers on one page.
	dom, err := sys.IOMMU.DomainOf(nicDev)
	if err != nil {
		return nil, err
	}
	cOK := false
	var cPage layout.PFN
	for _, d := range nic.RXRing() {
		pfn, err := sys.Layout.KVAToPFN(d.Data)
		if err != nil {
			continue
		}
		if len(dom.IOVAsFor(pfn)) >= 2 {
			cOK, cPage = true, pfn
			break
		}
	}
	o.printf("(c) multiple IOVA: RX ring page %d mapped by %d IOVAs: %v\n", cPage, 2, cOK)

	// (d) Random co-location: a secret kmalloc object shares the page of a
	// mapped same-class buffer.
	ioBuf, _ := sys.Mem.Slab.Kmalloc(0, 512, "nic_io")
	secret, _ := sys.Mem.Slab.Kmalloc(0, 512, "session_key")
	if err := sys.Mem.WriteU64(secret, 0x5ec2e7); err != nil {
		return nil, err
	}
	vb, err := sys.Mapper.MapSingle(nicDev, ioBuf, 512, dma.Bidirectional)
	if err != nil {
		return nil, err
	}
	leak, err := atk.ReadWords(vb+iommu.IOVA(secret-ioBuf), 1)
	dOK := err == nil && leak[0] == 0x5ec2e7
	o.printf("(d) random co-location: secret kmalloc object leaked through I/O buffer mapping: %v\n", dOK)

	o.OK = aOK && bOK && cOK && dOK
	o.metric("types_demonstrated", "%d/4", boolCount(aOK, bOK, cOK, dOK))
	return o, nil
}

func boolCount(bs ...bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// Figure2 regenerates the SPADE trace for the nvme_fc driver.
func Figure2(cfg Config) (*Outcome, error) {
	o := newOutcome("F2", "SPADE output for nvme_fc (Figure 2)")
	f, err := cminor.Parse("drivers/nvme/host/fc.c", corpus.NvmeFC)
	if err != nil {
		return nil, err
	}
	rep := spade.NewAnalyzer([]*cminor.File{f}).Run()
	o.printf("%s", rep.TraceFor("drivers/nvme/host/fc.c"))
	for _, fd := range rep.Findings {
		if fd.ExposedStruct == "nvme_fc_fcp_op" && fd.DirectCallbacks == 1 {
			o.metric("direct_callbacks", "%d (paper: 1, fcp_req.done)", fd.DirectCallbacks)
			o.metric("spoofable_callbacks", "%d (paper: 931 on the full tree)", fd.SpoofableCallbacks)
			o.OK = fd.DirectCallbacks == 1 && fd.SpoofableCallbacks > 0
			return o, nil
		}
	}
	o.OK = false
	return o, nil
}

// Figure3 runs the D-KASAN workload and renders the report.
func Figure3(cfg Config) (*Outcome, error) {
	o := newOutcome("F3", "D-KASAN report under build+ping workload (Figure 3)")
	dk := dkasan.New()
	sys, err := core.New(core.WithSeed(cfg.Seed), core.WithIOMMUMode(iommu.Deferred), core.WithTracer(dk))
	if err != nil {
		return nil, err
	}
	dk.Attach(sys.Mem, sys.Mapper)
	nic, err := sys.AddNIC(nicDev, netstack.DriverI40E, 0)
	if err != nil {
		return nil, err
	}
	if _, err := workload.Run(sys, nic, workload.Config{Iterations: 12, NICDevice: nicDev}); err != nil {
		return nil, err
	}
	o.printf("%s", dk.Render())
	st := dk.Stats()
	o.metric("alloc_after_map", "%d", st.AllocAfterMap)
	o.metric("map_after_alloc", "%d", st.MapAfterAlloc)
	o.metric("access_after_map", "%d", st.AccessAfterMap)
	o.metric("multiple_map", "%d", st.MultipleMap)
	o.OK = st.AllocAfterMap > 0 && st.MultipleMap > 0
	return o, nil
}

// Figure4 executes the skb_shared_info code-injection walk of Fig. 4 in
// isolation (attributes granted, mechanism under test).
func Figure4(cfg Config) (*Outcome, error) {
	o := newOutcome("F4", "skb_shared_info code injection (Figure 4)")
	sys, nic, err := bootSystem(cfg, iommu.Strict, false)
	if err != nil {
		return nil, err
	}
	atk, err := attacks.NewAttacker(sys, nicDev)
	if err != nil {
		return nil, err
	}
	// Grant the KASLR break via the init_net leak.
	initNet, err := sys.Layout.SymbolKVA("init_net")
	if err != nil {
		return nil, err
	}
	atk.Infer.ObserveWords([]uint64{uint64(initNet)})

	d := nic.RXRing()[0]
	o.printf("(a) RX buffer mapped WRITE at IOVA %#x (whole page)\n", uint64(d.IOVA))
	if err := atk.PlantPayload(d.IOVA, d.Data, d.Cap); err != nil {
		return nil, err
	}
	o.printf("(b) destructor_arg overwritten to point at device-built ubuf_info\n")
	o.printf("(c) ubuf_info callback = JOP pivot; ROP chain beside it\n")
	s, err := sys.Net.BuildSKB(d.Data, uint32(netstack.TruesizeFor(d.Cap)))
	if err != nil {
		return nil, err
	}
	s.Source = netstack.DataExternal // keep the ring buffer for inspection
	// Restore the planted destructor_arg (BuildSKB zeroed shared info, as
	// the driver does; Fig. 4 assumes the device wins the §5.2 window —
	// probed separately in F7).
	if err := atk.PlantPayload(d.IOVA, d.Data, d.Cap); err != nil {
		return nil, err
	}
	before := sys.Kernel.Escalations
	relErr := sys.Net.ReleaseSKB(s)
	o.printf("(d) sk_buff released → callback invoked: escalations=%d (err=%v)\n", sys.Kernel.Escalations-before, relErr)
	o.OK = sys.Kernel.Escalations == before+1
	o.metric("escalations", "%d", sys.Kernel.Escalations-before)
	return o, nil
}

// Figure5 demonstrates page_frag allocation geometry (Fig. 5).
func Figure5(cfg Config) (*Outcome, error) {
	o := newOutcome("F5", "page_frag allocation (Figure 5)")
	sys, _, err := bootSystem(cfg, iommu.Strict, false)
	if err != nil {
		return nil, err
	}
	var addrs []layout.Addr
	for i := 0; i < 13; i++ {
		a, err := sys.Mem.Frag.Alloc(1, 2048, 64)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
	}
	samePage, sameRegion := 0, 0
	for i := 1; i < len(addrs); i++ {
		p1, _ := sys.Layout.KVAToPFN(addrs[i-1])
		p2, _ := sys.Layout.KVAToPFN(addrs[i] + 2047)
		if p1 == p2 {
			samePage++
		}
		r1, _ := sys.Mem.Frag.RegionOf(addrs[i-1])
		r2, _ := sys.Mem.Frag.RegionOf(addrs[i])
		if r1 == r2 {
			sameRegion++
		}
	}
	o.printf("13 consecutive 2 KiB allocations: offsets descend within 32 KiB regions\n")
	for i, a := range addrs {
		o.printf("  buf[%2d] KVA %#x (page offset %4d)\n", i, uint64(a), layout.PageOffsetOf(a))
	}
	o.printf("adjacent pairs sharing a page: %d; pairs in same region: %d\n", samePage, sameRegion)
	o.metric("same_page_pairs", "%d/12", samePage)
	o.metric("descending", "%v", addrs[1] < addrs[0])
	o.OK = samePage > 0 && addrs[1] < addrs[0]
	for _, a := range addrs {
		if err := sys.Mem.Frag.Free(1, a); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// Figure6 measures the strict-vs-deferred invalidation window (Fig. 6).
func Figure6(cfg Config) (*Outcome, error) {
	o := newOutcome("F6", "Strict vs deferred IOTLB invalidation window (Figure 6)")
	measure := func(mode iommu.Mode) (sim.Nanos, error) {
		sys, err := core.New(core.WithSeed(cfg.Seed), core.WithIOMMUMode(mode))
		if err != nil {
			return 0, err
		}
		if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
			return 0, err
		}
		buf, err := sys.Mem.Slab.Kmalloc(0, 2048, "rx")
		if err != nil {
			return 0, err
		}
		va, err := sys.Mapper.MapSingle(nicDev, buf, 2048, dma.FromDevice)
		if err != nil {
			return 0, err
		}
		if err := sys.Bus.Write(nicDev, va, []byte{1}); err != nil { // prime IOTLB
			return 0, err
		}
		start := sys.Clock.Now()
		if err := sys.Mapper.UnmapSingle(nicDev, va, 2048, dma.FromDevice); err != nil {
			return 0, err
		}
		// Probe until the device loses access, advancing 100 µs per step.
		for sys.Clock.Now()-start < 20*sim.Millisecond {
			if err := sys.Bus.Write(nicDev, va, []byte{2}); err != nil {
				return sys.Clock.Now() - start, nil
			}
			sys.Clock.Advance(100 * sim.Microsecond)
		}
		return sys.Clock.Now() - start, nil
	}
	strictWin, err := measure(iommu.Strict)
	if err != nil {
		return nil, err
	}
	deferredWin, err := measure(iommu.Deferred)
	if err != nil {
		return nil, err
	}
	o.printf("strict:   device loses access %.3f ms after dma_unmap\n", float64(strictWin)/float64(sim.Millisecond))
	o.printf("deferred: device retains access for %.3f ms after dma_unmap (paper: up to 10 ms)\n", float64(deferredWin)/float64(sim.Millisecond))
	o.metric("strict_window_ms", "%.3f", float64(strictWin)/float64(sim.Millisecond))
	o.metric("deferred_window_ms", "%.3f", float64(deferredWin)/float64(sim.Millisecond))
	o.OK = strictWin < sim.Millisecond && deferredWin >= 9*sim.Millisecond && deferredWin <= 11*sim.Millisecond
	return o, nil
}

// Figure7 evaluates the time-window matrix (Fig. 7): every driver-ordering ×
// IOMMU-mode cell has a working corruption path.
func Figure7(cfg Config) (*Outcome, error) {
	o := newOutcome("F7", "Time-window paths (Figure 7)")
	cells, err := attacks.WindowMatrix(cfg.Seed)
	if err != nil {
		return nil, err
	}
	allHave := true
	for _, c := range cells {
		o.printf("%-18s %-9s → %v\n", c.Driver, c.Mode, c.Path)
		o.metric(fmt.Sprintf("%s_%s", c.Driver, c.Mode), "%v", c.Path)
		if c.Path == attacks.WindowNone {
			allHave = false
		}
	}
	o.printf("conclusion: the attacker can always modify the callback pointer (§5.2)\n")
	o.OK = allHave
	return o, nil
}

// Figure8 runs the Poisoned TX compound attack end to end.
func Figure8(cfg Config) (*Outcome, error) {
	o := newOutcome("F8", "Poisoned TX compound attack (Figure 8)")
	sys, nic, err := bootSystem(cfg, iommu.Deferred, false)
	if err != nil {
		return nil, err
	}
	r := attacks.RunPoisonedTX(sys, nic)
	o.printf("%s", r.String())
	o.OK = r.Success
	o.metric("escalations", "%d", r.Escalations)
	return o, nil
}

// Figure9 runs Forward Thinking plus the surveillance variant.
func Figure9(cfg Config) (*Outcome, error) {
	o := newOutcome("F9", "Forward Thinking via GRO + surveillance (Figure 9)")
	sys, nic, err := bootSystem(cfg, iommu.Deferred, true)
	if err != nil {
		return nil, err
	}
	r := attacks.RunForwardThinking(sys, nic)
	o.printf("%s", r.String())

	sys2, nic2, err := bootSystem(cfg, iommu.Deferred, true)
	if err != nil {
		return nil, err
	}
	secretKVA, err := sys2.Mem.Slab.Kmalloc(1, 64, "vault")
	if err != nil {
		return nil, err
	}
	if err := sys2.Mem.Write(secretKVA, []byte("in-kernel secret")); err != nil {
		return nil, err
	}
	sr, got := attacks.RunSurveillance(sys2, nic2, secretKVA, 16)
	o.printf("%s", sr.String())
	o.printf("surveillance read: %q\n", got)
	o.OK = r.Success && sr.Success && string(got) == "in-kernel secret"
	o.metric("code_injection", "%v", r.Success)
	o.metric("surveillance", "%v (clean=%s)", sr.Success, sr.Detail["clean"])
	return o, nil
}
