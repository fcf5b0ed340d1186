package attacks

import (
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/device"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

// Fig. 7: the three paths by which a device obtains a write window on
// skb_shared_info after the CPU initializes it.
type WindowPath int

const (
	// WindowNone: no path worked (the matrix has no such cell in practice —
	// the paper's point).
	WindowNone WindowPath = iota
	// WindowDriverOrder: path (i) — the driver creates the sk_buff before
	// unmapping, so the buffer's own mapping is still valid.
	WindowDriverOrder
	// WindowStaleIOTLB: path (ii) — deferred invalidation leaves a stale
	// IOTLB entry after the (correctly ordered) unmap.
	WindowStaleIOTLB
	// WindowNeighborIOVA: path (iii) — even under strict invalidation, a
	// co-located buffer's still-valid IOVA reaches the same page.
	WindowNeighborIOVA
)

// String names the path as Fig. 7 does.
func (w WindowPath) String() string {
	switch w {
	case WindowDriverOrder:
		return "(i) driver unmap ordering"
	case WindowStaleIOTLB:
		return "(ii) deferred IOTLB invalidation"
	case WindowNeighborIOVA:
		return "(iii) co-located buffer IOVA (type c)"
	default:
		return "none"
	}
}

// ProbeTimeWindow determines which Fig. 7 path lets the device corrupt the
// shared info of an RX buffer being processed, on the given system. It
// delivers one packet and, inside the processing window, attempts the three
// paths in the paper's order, verifying the write landed via a CPU-side
// ground-truth read of destructor_arg.
func ProbeTimeWindow(sys *core.System, nic *netstack.NIC, slot int) (WindowPath, error) {
	atk, err := NewAttacker(sys, attackerDev)
	if err != nil {
		return WindowNone, err
	}
	const marker = 0x5afe5afe5afe5afe
	if err := sys.Bus.Write(atk.Dev, nic.RXRing()[slot].IOVA, []byte("probe")); err != nil {
		return WindowNone, err
	}
	if err := primeSI(atk, nic, slot); err != nil {
		return WindowNone, err
	}
	var path WindowPath
	nic.RXWindow = func(n *netstack.NIC, tr netstack.RXTrace) {
		path = overwriteDargLadder(atk, n, tr, slot, marker)
	}
	defer func() { nic.RXWindow = nil }()
	skbReleased := false
	sys.Net.OnDeliver(func(s *netstack.SKB) error {
		// Ground truth: did the device's write survive into the delivered
		// packet's shared info?
		v, err := sys.Net.DestructorArg(s)
		if err != nil {
			return err
		}
		if uint64(v) != marker {
			path = WindowNone
		}
		// Neutralize before release so the probe does not hijack anything.
		if err := sys.Mem.WriteU64(s.SharedInfo()+netstack.SharedInfoDestructorArgOff, 0); err != nil {
			return err
		}
		skbReleased = true
		return nil
	})
	if err := nic.ReceiveOn(slot, 5, netstack.ProtoUDP, 1); err != nil {
		return WindowNone, err
	}
	if !skbReleased {
		return WindowNone, fmt.Errorf("attacks: probe packet not delivered")
	}
	return path, nil
}

// WindowCell is one cell of the Fig. 7 matrix.
type WindowCell struct {
	Driver string
	Mode   iommu.Mode
	Path   WindowPath
}

// WindowMatrix evaluates driver-ordering × IOMMU-mode combinations: the
// paper's conclusion is that every cell has *some* working path, i.e. "the
// attacker can always modify the callback pointer" (§5.2).
func WindowMatrix(seed int64) ([]WindowCell, error) {
	var out []WindowCell
	for _, model := range []netstack.DriverModel{netstack.DriverI40E, netstack.DriverCorrect} {
		for _, mode := range []iommu.Mode{iommu.Deferred, iommu.Strict} {
			sys, err := core.New(core.WithSeed(seed), core.WithIOMMUMode(mode))
			if err != nil {
				return nil, err
			}
			nic, err := sys.AddNIC(attackerDev, model, 0)
			if err != nil {
				return nil, err
			}
			// Pick a slot whose neighbour shares its page so path (iii) has
			// its preconditions (§5.2.2: pairs of successive descriptors).
			slot := PickNeighborSlot(nic)
			path, err := ProbeTimeWindow(sys, nic, slot)
			if err != nil {
				return nil, err
			}
			out = append(out, WindowCell{Driver: model.Name, Mode: mode, Path: path})
		}
	}
	return out, nil
}

// PickNeighborSlot returns a slot for which a neighbouring descriptor can
// reach its shared info page, or 0 if none.
func PickNeighborSlot(nic *netstack.NIC) int {
	ring := nic.RXRing()
	for i := range ring {
		if _, ok := device.RingNeighborFor(ring, i); ok {
			return i
		}
	}
	return 0
}
