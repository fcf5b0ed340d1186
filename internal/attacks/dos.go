package attacks

import (
	"fmt"

	"dmafault/internal/core"
	"dmafault/internal/device"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
)

// RunFreelistDoS demonstrates the denial-of-service outcome §3.1 mentions
// ("a malicious device can corrupt random memory regions, resulting in a
// denial of service"): SLUB keeps the freelist pointer inside free objects,
// so a device with a same-page mapping (Fig. 1(b)) overwrites it and the
// next kmalloc on that slab dies — a crash on un-hardened kernels, a
// detected panic-equivalent here.
func RunFreelistDoS(sys *core.System, atk *device.Attacker) *Result {
	r := newResult("freelist-corruption DoS (§3.1, Fig. 1(b))")

	// The driver maps a kmalloc'd I/O buffer; free neighbours of the same
	// size class share its page, their freelist words exposed.
	ioBuf, err := sys.Mem.Slab.Kmalloc(0, 512, "nic_io_buf")
	if err != nil {
		return r.fail(err)
	}
	neighbor, err := sys.Mem.Slab.Kmalloc(0, 512, "scratch")
	if err != nil {
		return r.fail(err)
	}
	if err := sys.Mem.Slab.Kfree(neighbor); err != nil {
		return r.fail(err)
	}
	va, err := sys.Mapper.MapSingle(atk.Dev, ioBuf, 512, dma.Bidirectional)
	if err != nil {
		return r.fail(err)
	}
	r.logf("I/O buffer mapped BIDIRECTIONAL; a free 512-class object shares its page")

	// The device reads the page, spots a freelist word (a direct-map
	// pointer inside a free object), and stomps it.
	freelistIOVA := va + iommu.IOVA(neighbor-ioBuf) // same low bits (§5.2.2)
	word, err := atk.Bus.ReadU64(atk.Dev, freelistIOVA)
	if err != nil {
		return r.fail(err)
	}
	if word != 0 && layout.Classify(layout.Addr(word)) != layout.RegionDirectMap {
		return r.fail(fmt.Errorf("expected a freelist pointer, found %#x", word))
	}
	r.logf("freelist word read through the mapping: %#x", word)
	if err := atk.Bus.WriteU64(atk.Dev, freelistIOVA, 0xdead000000000000); err != nil {
		return r.fail(err)
	}
	r.logf("freelist pointer overwritten with a wild address")

	// The next kmalloc of that class walks the poisoned freelist.
	_, err = sys.Mem.Slab.Kmalloc(0, 512, "victim_alloc")
	if err != nil {
		r.logf("kernel allocation failed: %v", err)
		r.Success = true
		r.Detail["outcome"] = "allocator halted (un-hardened kernel: panic)"
	} else {
		// The first allocation may reuse a clean head; push until the
		// poisoned link is consumed.
		for i := 0; i < 16; i++ {
			if _, err = sys.Mem.Slab.Kmalloc(0, 512, "victim_alloc"); err != nil {
				break
			}
		}
		r.Success = err != nil
		if err != nil {
			r.logf("kernel allocation failed after draining: %v", err)
		} else {
			r.logf("corruption not consumed (freelist order drained differently)")
		}
	}
	return r
}
