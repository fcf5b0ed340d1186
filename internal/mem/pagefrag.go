package mem

import (
	"fmt"

	"dmafault/internal/layout"
)

// FragRegionOrder is the buddy order of a page_frag region: 2^3 pages =
// 32 KiB, "usually 32 KB" per §5.2.2.
const FragRegionOrder = 3

// FragRegionBytes is the size of one page_frag region.
const FragRegionBytes = layout.PageSize << FragRegionOrder

// FragAllocator is the page_frag allocator of §5.2.2 and Fig. 5: per-CPU
// contiguous regions carved from the back (offset decrements), handing out
// consecutive small buffers that routinely share physical pages. Network
// drivers allocate RX data buffers from it (netdev_alloc_skb,
// napi_alloc_skb), which is why pairs of successive RX descriptors map the
// same page — sub-page vulnerability type (c).
type FragAllocator struct {
	m     *Memory
	cpus  []fragCache
	stats FragStats
}

type fragCache struct {
	head   layout.PFN // compound head of the current region; 0 = none
	va     layout.Addr
	offset uint64 // next allocation ends here; counts down
	live   bool
}

// FragStats counts allocator activity.
type FragStats struct {
	Allocs, Regions uint64
}

func newFragAllocator(m *Memory, cpus int) *FragAllocator {
	return &FragAllocator{m: m, cpus: make([]fragCache, cpus)}
}

// Stats returns a copy of the allocator statistics.
func (f *FragAllocator) Stats() FragStats { return f.stats }

// Alloc carves size bytes (aligned down to align, which must be a power of
// two; 0 means cache-line 64) from the CPU's current region, refilling the
// region when exhausted. Each live fragment holds one page reference on the
// region's head page, so the region's frames stay allocated as long as any
// fragment (equivalently: any RX buffer on it) is alive.
func (f *FragAllocator) Alloc(cpu int, size uint64, align uint64) (layout.Addr, error) {
	if cpu < 0 || cpu >= len(f.cpus) {
		return 0, fmt.Errorf("mem: page_frag alloc on invalid cpu %d", cpu)
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: page_frag align %d not a power of two", align)
	}
	if size == 0 || size > FragRegionBytes {
		return 0, fmt.Errorf("mem: page_frag alloc of %d bytes (max %d)", size, FragRegionBytes)
	}
	c := &f.cpus[cpu]
	if !c.live || c.offset < size {
		if err := f.refill(cpu, c); err != nil {
			return 0, err
		}
	}
	// offset -= size, then align down; the returned address is va+offset.
	off := (c.offset - size) &^ (align - 1)
	c.offset = off
	addr := c.va + layout.Addr(off)
	// One page reference per fragment (page_frag refcounting).
	if err := f.m.Pages.GetPage(c.head); err != nil {
		return 0, err
	}
	f.stats.Allocs++
	return addr, nil
}

// refill replaces the CPU's region with a fresh 32 KiB compound allocation.
// The old region keeps living until its outstanding fragments drop their
// references (handled by Free/put_page).
func (f *FragAllocator) refill(cpu int, c *fragCache) error {
	if c.live {
		// Drop the allocator's own reference on the old region.
		if err := f.m.Pages.PutPage(cpu, c.head); err != nil {
			return err
		}
	}
	head, err := f.m.Pages.AllocPages(cpu, FragRegionOrder)
	if err != nil {
		c.live = false
		return err
	}
	for i := layout.PFN(0); i < 1<<FragRegionOrder; i++ {
		f.m.mustPage(head + i).Flags |= FlagFrag
	}
	c.head = head
	c.va = f.m.layout.PFNToKVA(head)
	c.offset = FragRegionBytes
	c.live = true
	f.stats.Regions++
	return nil
}

// Free releases one fragment: it drops the fragment's page reference. The
// frames return to the buddy allocator only when the last fragment (and the
// allocator itself, once it moved on) let go.
func (f *FragAllocator) Free(cpu int, a layout.Addr) error {
	pfn, err := f.m.layout.KVAToPFN(a)
	if err != nil {
		return err
	}
	pi := f.m.mustPage(pfn)
	if !pi.Has(FlagFrag) && !(pi.Has(FlagCompoundTail) && f.m.mustPage(pi.Head()).Has(FlagFrag)) {
		return fmt.Errorf("mem: page_frag free of non-frag address %#x", uint64(a))
	}
	return f.m.Pages.PutPage(cpu, pfn)
}

// DropCaches releases the allocator's own reference on the CPU's current
// region, as if the allocator were torn down. Outstanding fragments keep the
// region alive until freed. Used by tests and the boot simulator.
func (f *FragAllocator) DropCaches(cpu int) error {
	if cpu < 0 || cpu >= len(f.cpus) {
		return fmt.Errorf("mem: page_frag drop on invalid cpu %d", cpu)
	}
	c := &f.cpus[cpu]
	if !c.live {
		return nil
	}
	c.live = false
	return f.m.Pages.PutPage(cpu, c.head)
}

// RegionOf returns the compound head PFN of the region containing the
// address, for tests asserting co-location.
func (f *FragAllocator) RegionOf(a layout.Addr) (layout.PFN, error) {
	pfn, err := f.m.layout.KVAToPFN(a)
	if err != nil {
		return 0, err
	}
	pi := f.m.mustPage(pfn)
	if pi.Has(FlagCompoundTail) {
		return pi.Head(), nil
	}
	return pfn, nil
}
