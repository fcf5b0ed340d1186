package netstack

import (
	"fmt"

	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
	"dmafault/internal/sim"
)

// DriverModel captures the driver behaviours Fig. 7 distinguishes.
type DriverModel struct {
	Name string
	// RXBufferSize is the payload capacity of one RX buffer: 2048 for MTU
	// 1500 drivers, 65536 when HW LRO aggregates in hardware (§5.3).
	RXBufferSize uint32
	// UnmapBeforeBuild: the *correct* ordering unmaps the RX buffer before
	// initializing skb_shared_info in it. Prevalent drivers (i40e) do the
	// opposite, handing the device window (i) of Fig. 7.
	UnmapBeforeBuild bool
	// UseBuildSKB wraps the sk_buff around the raw ring buffer (build_skb,
	// type (b)); otherwise the driver netdev_alloc_skb's a fresh buffer and
	// copies — still exposed, because that buffer also embeds shared info.
	UseBuildSKB bool
	// RingSize is the number of RX descriptors per ring.
	RingSize int
	// HWLRO marks 64 KiB-buffer hardware LRO configurations (mlx5 on 4.15).
	HWLRO bool
	// XDP maps RX buffers BIDIRECTIONAL instead of WRITE (§5.1: "in some
	// cases, such as XDP"), handing the device read access to everything on
	// the RX pages — including skb_shared_info and co-located buffers.
	XDP bool
}

// Predefined driver models used across experiments.
var (
	// DriverI40E models the Intel 40GbE driver of Fig. 7(i): sk_buff first,
	// unmap after.
	DriverI40E = DriverModel{Name: "i40e", RXBufferSize: 2048, UnmapBeforeBuild: false, UseBuildSKB: true, RingSize: 256}
	// DriverCorrect unmaps before touching shared info (Fig. 7(ii)).
	DriverCorrect = DriverModel{Name: "correct", RXBufferSize: 2048, UnmapBeforeBuild: true, UseBuildSKB: true, RingSize: 256}
	// DriverMlx5LRO models mlx5_core with HW LRO on kernel 4.15: 64 KiB per
	// RX entry (§5.3).
	DriverMlx5LRO = DriverModel{Name: "mlx5_core-4.15", RXBufferSize: 65536 - SharedInfoSize - 64, UnmapBeforeBuild: true, UseBuildSKB: true, RingSize: 512, HWLRO: true}
	// DriverMlx5 models mlx5_core on kernel 5.0: HW LRO off, 2 KiB entries.
	DriverMlx5 = DriverModel{Name: "mlx5_core-5.0", RXBufferSize: 2048, UnmapBeforeBuild: true, UseBuildSKB: true, RingSize: 512}
	// DriverXDP models an XDP-enabled datapath: bidirectional RX mappings.
	DriverXDP = DriverModel{Name: "xdp", RXBufferSize: 2048, UnmapBeforeBuild: true, UseBuildSKB: true, RingSize: 256, XDP: true}
)

// rxDir is the DMA direction RX buffers are mapped with.
func (m DriverModel) rxDir() dma.Direction {
	if m.XDP {
		return dma.Bidirectional
	}
	return dma.FromDevice
}

// RXDesc is one RX ring descriptor: where the NIC may write the next packet.
type RXDesc struct {
	Data  layout.Addr // KVA of the buffer (driver side)
	IOVA  iommu.IOVA  // what the device sees
	Cap   uint32      // buffer payload capacity
	Ready bool        // posted to hardware, awaiting a packet
	paged bool        // buffer is a compound page allocation (HW LRO)
}

// TXDesc is one in-flight transmitted packet.
type TXDesc struct {
	SKB       *SKB
	LinearVA  iommu.IOVA
	LinearLen uint64
	FragVAs   []iommu.IOVA
	FragLens  []uint64
	Posted    sim.Nanos
	Completed bool
}

// TXTimeout is the driver's transmit-completion watchdog (§5.4: "usually a
// few seconds, which is sufficient to complete the attack").
const TXTimeout = 5 * sim.Second

// NIC is one port: device identity, driver model, and its rings.
type NIC struct {
	Dev   iommu.DeviceID
	Model DriverModel
	CPU   int // the core servicing this ring (one RX ring per core, §5.2.2)
	ns    *Stack
	rx    []RXDesc
	tx    []TXDesc
	// LastRX records facts about the most recent ReceiveOn, for tests and
	// for attack-window analysis (Fig. 7).
	LastRX RXTrace
	// RXWindow, if set, runs right after the driver initializes
	// skb_shared_info and before the packet is delivered (and, in the i40e
	// ordering, before the buffer is unmapped). It models the concurrency a
	// real device has with driver RX processing: §5.2.2 shows this window
	// is essentially always available. The hook only grants *timing* — any
	// DMA the device attempts in it still goes through the IOMMU, which is
	// what decides whether the Fig. 7 paths (i)/(ii)/(iii) succeed.
	RXWindow func(n *NIC, tr RXTrace)
}

// RXTrace captures the security-relevant facts of one RX processing pass.
type RXTrace struct {
	Desc RXDesc
	SKB  *SKB
	// BuildWhileMapped is true when skb_shared_info was initialized while
	// the buffer's own IOVA still translated in the page table — the
	// Fig. 7(i) driver-ordering window.
	BuildWhileMapped bool
}

// AddNIC registers a port with the stack.
func (ns *Stack) AddNIC(dev iommu.DeviceID, model DriverModel, cpu int) (*NIC, error) {
	if model.RingSize <= 0 {
		return nil, fmt.Errorf("netstack: driver %q has no ring", model.Name)
	}
	n := &NIC{Dev: dev, Model: model, CPU: cpu, ns: ns, rx: make([]RXDesc, model.RingSize)}
	ns.nics = append(ns.nics, n)
	return n, nil
}

// FillRX allocates and maps buffers for every empty RX descriptor: the
// netdev_alloc_skb/page_frag path that makes successive descriptors map the
// same pages (§5.2.2 path iii).
func (n *NIC) FillRX() error {
	truesize := TruesizeFor(n.Model.RXBufferSize)
	paged := truesize > mem.FragRegionBytes
	// A paged buffer is page aligned; a page_frag buffer may straddle one
	// more page than its length needs.
	span := layout.PageAlignUp(truesize) / layout.PageSize
	if !paged {
		span++
	}
	empty := 0
	for i := range n.rx {
		if !n.rx[i].Ready {
			empty++
		}
	}
	n.ns.mapper.Reserve(n.Dev, empty, uint64(empty)*span)
	for i := range n.rx {
		if n.rx[i].Ready {
			continue
		}
		if n.ns.inject != nil && n.ns.inject.InjectRXRefillDrop(n.Dev, i) {
			continue // injected descriptor loss: the slot stays unposted
		}
		var data layout.Addr
		if paged {
			// HW-LRO style: the buffer is a compound page allocation.
			order := uint(0)
			for (uint64(layout.PageSize) << order) < truesize {
				order++
			}
			pfn, err := n.ns.mem.Pages.AllocPages(n.CPU, order)
			if err != nil {
				return fmt.Errorf("netstack: rx refill (order %d): %w", order, err)
			}
			data = n.ns.mem.Layout().PFNToKVA(pfn)
		} else {
			var err error
			data, err = n.ns.mem.Frag.Alloc(n.CPU, truesize, 64)
			if err != nil {
				return fmt.Errorf("netstack: rx refill: %w", err)
			}
		}
		va, err := n.ns.mapper.MapSingle(n.Dev, data, truesize, n.Model.rxDir())
		if err != nil {
			return fmt.Errorf("netstack: rx map: %w", err)
		}
		n.rx[i] = RXDesc{Data: data, IOVA: va, Cap: n.Model.RXBufferSize, Ready: true, paged: paged}
	}
	return nil
}

// RXRing exposes the descriptors: the device-side view. A NIC knows its own
// ring, so a *malicious* NIC knows every RX IOVA and their fill order.
func (n *NIC) RXRing() []RXDesc { return n.rx }

// TXRing exposes in-flight transmissions (the device sees these descriptors
// too).
func (n *NIC) TXRing() []TXDesc { return n.tx }

// ReceiveOn processes a packet the device has already DMA-written into RX
// slot i: the driver builds the sk_buff and pushes it up the stack, in the
// ordering its model prescribes (Fig. 7 paths i/ii).
func (n *NIC) ReceiveOn(slot int, pktLen uint32, proto Protocol, flow uint32) error {
	if slot < 0 || slot >= len(n.rx) || !n.rx[slot].Ready {
		return fmt.Errorf("netstack: rx slot %d not ready", slot)
	}
	d := &n.rx[slot]
	if pktLen > d.Cap {
		return fmt.Errorf("netstack: packet of %d bytes exceeds buffer cap %d", pktLen, d.Cap)
	}
	d.Ready = false
	truesize := TruesizeFor(d.Cap)

	build := func() (*SKB, error) {
		var s *SKB
		var err error
		if n.Model.UseBuildSKB {
			s, err = n.ns.BuildSKB(d.Data, uint32(truesize))
			if err != nil {
				return nil, err
			}
			if d.paged {
				s.Source = DataPages
			} else {
				s.Source = DataFrag // the ring buffer is page_frag memory; skb owns it now
			}
			s.CPU = n.CPU
		} else {
			s, err = n.ns.AllocSKB(n.CPU, d.Cap)
			if err != nil {
				return nil, err
			}
			// Copy the payload out of the ring buffer (legacy copybreak).
			buf := make([]byte, pktLen)
			if err := n.ns.mem.Read(d.Data, buf); err != nil {
				return nil, err
			}
			if err := n.ns.mem.Write(s.Data, buf); err != nil {
				return nil, err
			}
		}
		s.Len = pktLen
		s.Protocol = proto
		s.FlowID = flow
		return s, nil
	}
	unmap := func() error {
		return n.ns.mapper.UnmapSingle(n.Dev, d.IOVA, truesize, n.Model.rxDir())
	}

	mappedNow := func() bool {
		dom, err := n.ns.mapper.DomainOf(n.Dev)
		if err != nil {
			return false
		}
		_, _, present := dom.Table().Walk(d.IOVA)
		return present
	}

	var s *SKB
	var err error
	if n.Model.UnmapBeforeBuild {
		if err = unmap(); err != nil {
			return err
		}
		wasMapped := mappedNow()
		if s, err = build(); err != nil {
			return err
		}
		n.LastRX = RXTrace{Desc: *d, SKB: s, BuildWhileMapped: wasMapped}
		if n.RXWindow != nil {
			n.RXWindow(n, n.LastRX)
		}
	} else {
		// Fig. 7(i): shared info initialized while the device still holds a
		// valid mapping — the device can redo its corruption after the CPU's
		// initialization.
		wasMapped := mappedNow()
		if s, err = build(); err != nil {
			return err
		}
		n.LastRX = RXTrace{Desc: *d, SKB: s, BuildWhileMapped: wasMapped}
		if n.RXWindow != nil {
			n.RXWindow(n, n.LastRX)
		}
		if err = unmap(); err != nil {
			return err
		}
	}
	if !n.Model.UseBuildSKB {
		// The copy path is done with the ring buffer.
		if err := n.ns.mem.Frag.Free(n.CPU, d.Data); err != nil {
			return err
		}
	}
	return n.ns.netifReceive(n, s)
}

// Transmit maps the packet for the device (linear part + each frag, all
// DMA_TO_DEVICE) and posts a TX descriptor. Completion is device-paced:
// see CompleteTX/ReapCompletions.
func (n *NIC) Transmit(s *SKB) error {
	// Map the linear buffer. Note what rides along: the mapping covers the
	// buffer's whole page(s), so skb_shared_info at the tail is readable by
	// the device (§5.4, Fig. 8).
	linLen := uint64(s.Len)
	if linLen == 0 {
		linLen = 1 // headers at least; keep the page exposure honest
	}
	lin, err := n.ns.mapper.MapSingle(n.Dev, s.Data, linLen, dma.ToDevice)
	if err != nil {
		return err
	}
	desc := TXDesc{SKB: s, LinearVA: lin, LinearLen: linLen, Posted: n.ns.clock.Now()}
	nr, err := n.ns.NrFrags(s)
	if err != nil {
		return err
	}
	for i := 0; i < int(nr); i++ {
		f, err := n.ns.Frag(s, i)
		if err != nil {
			return err
		}
		pfn, err := n.ns.mem.Layout().StructPageToPFN(f.PagePtr)
		if err != nil {
			return fmt.Errorf("netstack: tx frag %d has bad page pointer: %w", i, err)
		}
		va, err := n.ns.mapper.MapPage(n.Dev, pfn, uint64(f.Offset), uint64(f.Len), dma.ToDevice)
		if err != nil {
			return err
		}
		desc.FragVAs = append(desc.FragVAs, va)
		desc.FragLens = append(desc.FragLens, uint64(f.Len))
	}
	n.tx = append(n.tx, desc)
	n.ns.stats.TXPackets++
	return nil
}

// CompleteTX marks a TX descriptor done — in real hardware the device raises
// this completion, so a malicious device chooses *when* (delaying it keeps
// the poisoned buffer alive, §5.4 step 2).
func (n *NIC) CompleteTX(idx int) error {
	if idx < 0 || idx >= len(n.tx) {
		return fmt.Errorf("netstack: tx index %d out of range", idx)
	}
	n.tx[idx].Completed = true
	return nil
}

// ReapCompletions runs the driver's TX cleanup: completed descriptors are
// unmapped and their SKBs released (invoking destructor callbacks). Posted
// descriptors older than TXTimeout trigger the watchdog: the driver resets,
// flushing everything.
func (n *NIC) ReapCompletions() error {
	now := n.ns.clock.Now()
	var remaining []TXDesc
	var firstErr error
	for i := range n.tx {
		d := &n.tx[i]
		timedOut := !d.Completed && now-d.Posted >= TXTimeout
		if !d.Completed && !timedOut {
			remaining = append(remaining, *d)
			continue
		}
		if timedOut {
			n.ns.stats.TXTimeouts++
		}
		if err := n.ns.mapper.UnmapSingle(n.Dev, d.LinearVA, d.LinearLen, dma.ToDevice); err != nil && firstErr == nil {
			firstErr = err
		}
		for j, va := range d.FragVAs {
			if err := n.ns.mapper.UnmapSingle(n.Dev, va, d.FragLens[j], dma.ToDevice); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := n.ns.ReleaseSKB(d.SKB); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n.tx = remaining
	return firstErr
}

// PendingTX returns the number of in-flight TX descriptors.
func (n *NIC) PendingTX() int { return len(n.tx) }
