package attacks

import (
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/device"
	"dmafault/internal/faultinject"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
	"dmafault/internal/par"
)

// NewAttacker wires up the malicious device dev with build knowledge
// extracted offline from an identical kernel image (ROPgadget on the vendor
// image, §6). Every attack builds its attacker here, once.
func NewAttacker(sys *core.System, dev iommu.DeviceID) (*device.Attacker, error) {
	build, err := kexec.ExtractBuildOffsets(sys.Kernel.Text(), sys.Layout.Symbols())
	if err != nil {
		return nil, err
	}
	return device.NewAttacker(dev, sys.Bus, sys.Layout.Symbols(), build), nil
}

// openAttack is the prologue of every compound attack. It builds the
// attacker, then lets the victim run the ordinary server activity the
// attack free-rides on: the driver keeps an admin/stats buffer mapped, and
// userspace opens sockets — which is what puts init_net and direct-map
// pointers on a device-readable page (type (d) co-location through the
// kmalloc-512 class). It scans that buffer and returns how many pointers
// the scan consumed. cb is non-nil once the buffer is mapped and the
// sockets are open, even on error.
func openAttack(sys *core.System, nic *netstack.NIC) (atk *device.Attacker, cb *netstack.ControlBuffer, used int, err error) {
	if atk, err = NewAttacker(sys, attackerDev); err != nil {
		return nil, nil, 0, err
	}
	if cb, err = nic.MapControlBuffer(); err != nil {
		return nil, nil, 0, err
	}
	for i := 0; i < 6; i++ {
		if _, err := sys.Net.AllocSocket(nic.CPU, "sock_alloc_inode+0x4f"); err != nil {
			return nil, nil, 0, err
		}
	}
	return atk, cb, atk.ScanReadable([]iommu.IOVA{cb.IOVA}), nil
}

// breakKASLR is openAttack that requires the scan to break KASLR: it fails
// unless the scan recovered the text base (for gadget addresses) and, when
// directMap is set, page_offset_base (to turn frames into KVAs).
func breakKASLR(sys *core.System, nic *netstack.NIC, directMap bool) (*device.Attacker, *netstack.ControlBuffer, error) {
	atk, cb, used, err := openAttack(sys, nic)
	if err != nil {
		return nil, cb, err
	}
	if used == 0 {
		return nil, cb, fmt.Errorf("leak scan found no kernel pointers")
	}
	if _, err := atk.Infer.TextBase(); err != nil {
		return nil, cb, err
	}
	if directMap {
		if _, err := atk.Infer.PageOffsetBase(); err != nil {
			return nil, cb, err
		}
	}
	return atk, cb, nil
}

// RingFlood (§5.3). The device floods every RX buffer with a poisoned
// ROP stack; the missing attribute is the KVA of any of them. Boot
// determinism supplies it: an attacker who profiled an identical setup
// offline knows the most common RX-ring PFN, and the direct-map base
// (recovered from leaks at run time) turns that PFN into a KVA.

// RunRingFlood executes the attack against a freshly booted system, given
// the offline boot-study profile.
func RunRingFlood(sys *core.System, nic *netstack.NIC, study *BootStudy) *Result {
	r := newResult(fmt.Sprintf("RingFlood (kernel %s)", study.Version))
	// Step 1: leak scan → KASLR break (text base for gadgets, direct-map
	// base to turn the profiled PFN into a KVA).
	atk, cb, err := breakKASLR(sys, nic, true)
	if cb != nil {
		r.logf("victim: admin buffer mapped at IOVA %#x, sockets opened", uint64(cb.IOVA))
	}
	if err != nil {
		return r.fail(err)
	}
	r.logf("KASLR broken: text + page_offset_base recovered from one mapped slab page")

	// Step 2: flood — plant ubuf_info + ROP chain in every RX buffer.
	ring := nic.RXRing()
	planted := 0
	for _, d := range ring {
		if err := atk.PlantUbufAndChain(d.IOVA); err == nil {
			planted++
		}
	}
	r.logf("poisoned ROP stack planted in %d/%d RX buffers", planted, len(ring))

	// Step 3: the profiled guess. The offline study says frame ModalPFN
	// holds an RX buffer starting at ModalOffset in most boots.
	guessKVA, err := atk.Infer.KVAFromPFN(study.ModalPFN)
	if err != nil {
		return r.fail(err)
	}
	ubufGuess := guessKVA + layout.Addr(study.ModalOffset) + device.UbufPlantOffset
	r.logf("profiled guess: modal PFN %d (repeat rate %.0f%%) → ubuf KVA %#x",
		study.ModalPFN, study.ModalRate*100, uint64(ubufGuess))

	// Step 4: trigger. Deliver a spoofed packet; in the RX processing
	// window (Fig. 7, any open path) overwrite the new skb's destructor_arg
	// with the guessed KVA; the release path dispatches the callback.
	path, err := triggerInjection(r, sys, atk, nic, ubufGuess, 77)
	if r.Success {
		r.logf("window path %v → sk_buff released → hijacked callback → privilege escalation", path)
	} else {
		r.logf("guess missed this boot (path %v, release error: %v) — retry next reboot", path, err)
	}
	r.Detail["modal_rate"] = fmt.Sprintf("%.2f", study.ModalRate)
	r.Detail["planted"] = fmt.Sprintf("%d", planted)
	r.CaptureMetrics(sys)
	return r
}

// RingFloodCampaignOpts measures the attack's success probability: profile
// once, then attack `attempts` fresh boots with unseen seeds and count
// successes. The hit rate should track the study's PFN repeat rate — the
// paper's §5.3 claim. A non-nil plan boots each attacked machine with
// injection armed, so the success rate can be measured under DMA
// corruption, IOMMU stalls, descriptor loss, and allocator pressure.
//
// Attempts run on the campaign engine's worker pool (internal/par): each
// attempt boots its own isolated machine from seedBase+i, and results land
// in attempt order, so the outcome is seed-identical at any worker count.
func RingFloodCampaignOpts(version KernelVersion, study *BootStudy, attempts int, seedBase int64, plan *faultinject.Plan) (hits int, results []*Result, err error) {
	results, err = par.Map(attempts, 0, func(i int) (*Result, error) {
		sys, nic, _, err := BootOnceOpts(version, seedBase+int64(i),
			BootOptions{JitterPages: BootJitterPages, FaultPlan: plan})
		if err != nil {
			return nil, err
		}
		return RunRingFlood(sys, nic, study), nil
	})
	if err != nil {
		return 0, nil, err
	}
	for _, res := range results {
		if res.Success {
			hits++
		}
	}
	return hits, results, nil
}
