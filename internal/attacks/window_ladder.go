package attacks

import (
	"dmafault/internal/core"
	"dmafault/internal/device"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
)

// The §5.2 conclusion — "from this point on, we assume that the attacker can
// always modify the callback pointer" — rests on the three paths of Fig. 7.
// windowLadder packages them: given an RX slot being processed, it attempts
// in order (i) the buffer's own IOVA (valid under the i40e ordering in any
// mode), (ii) the same IOVA through a stale IOTLB entry (deferred mode,
// primed), and (iii) a co-located neighbour's IOVA (type (c), any mode).

// primeSI touches the slot's shared-info page through its own mapping while
// it is still valid, so a stale IOTLB entry exists for path (ii). A real
// device writing a full-MTU packet does this incidentally; short spoofed
// packets must do it on purpose.
func primeSI(atk *device.Attacker, nic *netstack.NIC, slot int) error {
	d := nic.RXRing()[slot]
	si := device.SharedInfoIOVA(d.IOVA, d.Cap)
	return atk.Bus.Write(atk.Dev, si, make([]byte, 8))
}

// overwriteDargLadder attempts to write ubufKVA into the slot's
// shared_info.destructor_arg via the first working Fig. 7 path. Returns the
// path used (WindowNone if all failed).
func overwriteDargLadder(atk *device.Attacker, nic *netstack.NIC, tr netstack.RXTrace, slot int, ubufKVA layout.Addr) WindowPath {
	si := device.SharedInfoIOVA(tr.Desc.IOVA, tr.Desc.Cap)
	// Paths (i)/(ii): the buffer's own IOVA — valid mapping or stale entry.
	// A buffer still mapped when its shared info was built is written
	// through that live mapping, never through a stale IOTLB entry.
	if err := atk.OverwriteDestructorArg(si, ubufKVA); err == nil {
		if tr.BuildWhileMapped {
			return WindowDriverOrder
		}
		return WindowStaleIOTLB
	}
	// Path (iii): a neighbouring descriptor's mapping covers the page.
	if via, ok := device.RingNeighborFor(nic.RXRing(), slot); ok {
		if err := atk.Bus.WriteU64(atk.Dev, via+iommu.IOVA(netstack.SharedInfoDestructorArgOff), uint64(ubufKVA)); err == nil {
			return WindowNeighborIOVA
		}
	}
	return WindowNone
}

// pickTriggerSlot chooses an RX slot whose shared info is reachable by SOME
// path under the current driver/mode — preferring slots with a usable
// neighbour so the ladder's last rung exists.
func pickTriggerSlot(nic *netstack.NIC) int {
	ring := nic.RXRing()
	for i := range ring {
		if !ring[i].Ready {
			continue
		}
		if _, ok := device.RingNeighborFor(ring, i); ok {
			return i
		}
	}
	for i := range ring {
		if ring[i].Ready {
			return i
		}
	}
	return 0
}

// triggerInjection spoofs a packet into a chosen slot and corrupts its
// shared info with the forged ubuf_info KVA during the processing window.
// It records in r the escalations the trigger caused, the verdict that
// follows from them, and the window path. It returns the path used and the
// error from the delivery (nil on a clean hijack — successful exploitation
// raises no kernel error).
func triggerInjection(r *Result, sys *core.System, atk *device.Attacker, nic *netstack.NIC, ubufKVA layout.Addr, flow uint32) (used WindowPath, err error) {
	before := sys.Kernel.Escalations
	defer func() {
		r.Escalations = sys.Kernel.Escalations - before
		r.Success = r.Escalations > 0
		r.Detail["window_path"] = used.String()
	}()
	slot := pickTriggerSlot(nic)
	d := nic.RXRing()[slot]
	if err := sys.Bus.Write(atk.Dev, d.IOVA, []byte("trig")); err != nil {
		return WindowNone, err
	}
	if err := primeSI(atk, nic, slot); err != nil {
		return WindowNone, err
	}
	nic.RXWindow = func(n *netstack.NIC, tr netstack.RXTrace) {
		used = overwriteDargLadder(atk, n, tr, slot, ubufKVA)
	}
	defer func() { nic.RXWindow = nil }()
	err = nic.ReceiveOn(slot, 4, netstack.ProtoUDP, flow)
	return used, err
}
