package mem

import (
	"fmt"

	"dmafault/internal/faultinject"
	"dmafault/internal/layout"
)

// MaxOrder is the largest supported buddy order (2^3 pages = 32 KiB, the
// page_frag region size; the mlx5 HW-LRO path uses order-4 64 KiB buffers).
const MaxOrder = 4

// hotCacheSize bounds the per-CPU cache of recently freed order-0 pages.
// Linux prefers hot pages because they likely still sit in CPU caches
// (§5.2.1: "fast reuse is a common scenario"), which is what lets a device
// holding a stale IOTLB entry corrupt a page after its reuse.
const hotCacheSize = 16

// bootReserved is the number of frames the boot reserves for the "kernel
// image": the first 4 MiB, as a real boot does.
const bootReserved = layout.PFN((4 << 20) / layout.PageSize)

// PageAllocator is a buddy allocator over the simulated frames with per-CPU
// LIFO hot caches for order-0 pages.
type PageAllocator struct {
	m *Memory
	// free holds a LIFO stack per order. Below the bottom of the
	// order-MaxOrder stack lie the blocks the boot seeded and nobody has
	// taken yet, [wild, end), lowest on top.
	free      [MaxOrder + 1][]layout.PFN
	wild, end layout.PFN
	hot       [][]layout.PFN // per-CPU order-0 hot cache
	nfree     uint64
	stats     PageStats
}

// PageStats counts page allocator activity.
type PageStats struct {
	Allocs, Frees uint64
	// HotHits counts order-0 allocations served from a per-CPU hot cache —
	// the fast-reuse path that makes stale IOTLB windows exploitable.
	HotHits uint64
}

// Stats returns a copy of the counters.
func (pa *PageAllocator) Stats() PageStats { return pa.stats }

// seedRange returns the frames [lo, hi) the boot hands to the buddy
// allocator as naturally aligned order-MaxOrder blocks. Frames between the
// reservation and the first aligned block, and the tail remainder, are left
// out for simplicity.
func seedRange(npages int) (lo, hi layout.PFN) {
	blk := layout.PFN(1) << MaxOrder
	lo = (bootReserved + blk - 1) &^ (blk - 1)
	hi = layout.PFN(npages) &^ (blk - 1)
	return lo, max(lo, hi)
}

// bootPage is the struct page of frame p as the boot leaves it: reserved
// and referenced below 4 MiB, a free order-MaxOrder head at the start of
// every seeded block, zero elsewhere. An untouched chunk reads as this.
func bootPage(p layout.PFN, npages int) PageInfo {
	lo, hi := seedRange(npages)
	switch {
	case p < bootReserved:
		return PageInfo{Flags: FlagReserved, RefCount: 1}
	case p >= lo && p < hi && p%(1<<MaxOrder) == 0:
		return PageInfo{Flags: FlagFree, Order: MaxOrder}
	}
	return PageInfo{}
}

func newPageAllocator(m *Memory, cpus int) (*PageAllocator, error) {
	pa := &PageAllocator{m: m, hot: make([][]layout.PFN, cpus)}
	if int(bootReserved) >= m.NumPages() {
		return nil, fmt.Errorf("mem: %d pages too small for boot reservation", m.NumPages())
	}
	// The seeded blocks stay off the stack: popFree takes them from the
	// watermark, low PFN first, so early boot allocations are low and
	// deterministic, and their struct pages stay in bootPage's state until
	// touched.
	pa.wild, pa.end = seedRange(m.NumPages())
	pa.nfree = uint64(pa.end - pa.wild)
	return pa, nil
}

func (pa *PageAllocator) pushFree(p layout.PFN, order uint) {
	pi := pa.m.mustPage(p)
	pi.Flags = FlagFree
	pi.Order = uint8(order)
	pi.RefCount = 0
	pa.free[order] = append(pa.free[order], p)
	pa.nfree += 1 << order
}

// popFree takes the top block of an order's stack. An empty order-MaxOrder
// stack continues with the lowest seeded block nobody has taken yet: pushes
// and pops happen only at the top, and removeFree never runs at MaxOrder,
// so this is exactly the stack a boot pushing every seeded block would hold.
func (pa *PageAllocator) popFree(order uint) (layout.PFN, bool) {
	s := pa.free[order]
	if len(s) == 0 {
		if order != MaxOrder || pa.wild == pa.end {
			return 0, false
		}
		p := pa.wild
		pa.wild += 1 << MaxOrder
		pa.nfree -= 1 << MaxOrder
		return p, true
	}
	p := s[len(s)-1]
	pa.free[order] = s[:len(s)-1]
	pa.nfree -= 1 << order
	return p, true
}

// FreePages returns the number of frames currently free (buddy + hot caches).
func (pa *PageAllocator) FreePages() uint64 {
	n := pa.nfree
	for _, h := range pa.hot {
		n += uint64(len(h))
	}
	return n
}

// AllocPages allocates a 2^order contiguous, naturally aligned block and
// returns its head PFN. cpu selects the hot cache for order-0 requests.
func (pa *PageAllocator) AllocPages(cpu int, order uint) (layout.PFN, error) {
	if order > MaxOrder {
		return 0, fmt.Errorf("mem: order %d exceeds MaxOrder %d", order, MaxOrder)
	}
	if pa.m.inject != nil && pa.m.inject.InjectAllocFailure() {
		return 0, fmt.Errorf("mem: order-%d allocation failed under injected pressure: %w",
			order, faultinject.ErrTransient)
	}
	if order == 0 && cpu >= 0 && cpu < len(pa.hot) {
		if h := pa.hot[cpu]; len(h) > 0 {
			p := h[len(h)-1]
			pa.hot[cpu] = h[:len(h)-1]
			pa.stats.HotHits++
			pa.finishAlloc(p, 0)
			return p, nil
		}
	}
	// Find the smallest order with a free block, splitting down.
	for o := order; o <= MaxOrder; o++ {
		p, ok := pa.popFree(o)
		if !ok {
			continue
		}
		for cur := o; cur > order; cur-- {
			// Split: keep the low half, free the high half at cur-1.
			buddy := p + (layout.PFN(1) << (cur - 1))
			pa.pushFree(buddy, cur-1)
		}
		pa.finishAlloc(p, order)
		return p, nil
	}
	return 0, fmt.Errorf("mem: out of pages (order %d request, %d frames free)", order, pa.nfree)
}

func (pa *PageAllocator) finishAlloc(p layout.PFN, order uint) {
	pa.stats.Allocs++
	head := pa.m.mustPage(p)
	head.Flags = 0
	head.Order = uint8(order)
	head.RefCount = 1
	if order > 0 {
		head.Flags |= FlagCompoundHead
		for i := layout.PFN(1); i < layout.PFN(1)<<order; i++ {
			t := pa.m.mustPage(p + i)
			t.Flags = FlagCompoundTail
			t.CompoundHead = uint32(p)
			t.Order = 0
			t.RefCount = 0
		}
	}
	pa.m.tracerOnPageAlloc(p, order)
}

// Free returns a block to the allocator. Order-0 pages go to the CPU's hot
// cache first (LIFO), so the very next allocation on that CPU reuses them —
// the behaviour that makes stale IOTLB windows exploitable.
func (pa *PageAllocator) Free(cpu int, p layout.PFN, order uint) error {
	if uint64(p) >= uint64(pa.m.NumPages()) {
		return fmt.Errorf("mem: free of PFN %d out of range", p)
	}
	pi := pa.m.mustPage(p)
	if pi.Has(FlagFree) {
		return fmt.Errorf("mem: double free of PFN %d", p)
	}
	if pi.Has(FlagCompoundTail) {
		return fmt.Errorf("mem: free of compound tail PFN %d", p)
	}
	if pi.Has(FlagReserved) {
		return fmt.Errorf("mem: free of reserved PFN %d", p)
	}
	if pi.RefCount <= 0 {
		return fmt.Errorf("mem: free of unallocated PFN %d", p)
	}
	if uint(pi.Order) != order {
		return fmt.Errorf("mem: order-%d free of PFN %d, allocated at order %d", order, p, pi.Order)
	}
	if pi.RefCount > 1 {
		pi.RefCount--
		return nil
	}
	pa.m.tracerOnPageFree(p, order)
	pa.stats.Frees++
	pi.RefCount = 0
	if order == 0 && cpu >= 0 && cpu < len(pa.hot) && len(pa.hot[cpu]) < hotCacheSize {
		pi.Flags = FlagFree
		pi.Order = 0
		pa.hot[cpu] = append(pa.hot[cpu], p)
		return nil
	}
	pa.freeToBuddy(p, order)
	return nil
}

// GetPage increments the refcount of an allocated head page (get_page).
func (pa *PageAllocator) GetPage(p layout.PFN) error {
	pi, err := pa.m.Page(p)
	if err != nil {
		return err
	}
	if pi.Has(FlagCompoundTail) {
		return pa.GetPage(pi.Head())
	}
	if pi.Has(FlagFree) || pi.RefCount == 0 {
		return fmt.Errorf("mem: get_page on free PFN %d", p)
	}
	pi.RefCount++
	return nil
}

// PutPage decrements the refcount of a head page, freeing the block when it
// drops to zero (put_page).
func (pa *PageAllocator) PutPage(cpu int, p layout.PFN) error {
	pi, err := pa.m.Page(p)
	if err != nil {
		return err
	}
	if pi.Has(FlagCompoundTail) {
		return pa.PutPage(cpu, pi.Head())
	}
	if pi.RefCount <= 0 {
		return fmt.Errorf("mem: put_page on PFN %d with refcount %d", p, pi.RefCount)
	}
	pi.RefCount--
	if pi.RefCount == 0 {
		order := uint(pi.Order)
		pi.RefCount = 1 // Free() expects a live page
		return pa.Free(cpu, p, order)
	}
	return nil
}

// freeToBuddy merges the block with its buddy as far as possible.
func (pa *PageAllocator) freeToBuddy(p layout.PFN, order uint) {
	// Clear compound tails.
	if order > 0 {
		for i := layout.PFN(1); i < layout.PFN(1)<<order; i++ {
			t := pa.m.mustPage(p + i)
			t.Flags = 0
			t.CompoundHead = 0
		}
	}
	for order < MaxOrder {
		buddy := p ^ (layout.PFN(1) << order)
		if uint64(buddy) >= uint64(pa.m.NumPages()) {
			break
		}
		bi := pa.m.mustPage(buddy)
		if !bi.Has(FlagFree) || uint(bi.Order) != order {
			break
		}
		// Remove buddy from its freelist.
		if !pa.removeFree(buddy, order) {
			break
		}
		bi.Flags = 0
		if buddy < p {
			p = buddy
		}
		order++
	}
	pa.pushFree(p, order)
}

func (pa *PageAllocator) removeFree(p layout.PFN, order uint) bool {
	s := pa.free[order]
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == p {
			pa.free[order] = append(s[:i], s[i+1:]...)
			pa.nfree -= 1 << order
			return true
		}
	}
	return false
}

// DrainHotCaches flushes all per-CPU hot caches back to the buddy lists
// (used by tests and by the boot simulator between phases).
func (pa *PageAllocator) DrainHotCaches() {
	for cpu, h := range pa.hot {
		for _, p := range h {
			pa.m.mustPage(p).Flags = 0
			pa.freeToBuddy(p, 0)
		}
		pa.hot[cpu] = pa.hot[cpu][:0]
	}
}
