package iommu

import (
	"slices"
	"testing"
	"testing/quick"

	"dmafault/internal/layout"
)

// TestIOTLBMatchesFIFOList drives small IOTLBs (so that holes, compaction
// and the ring's wraparound all happen) and a plain FIFO list with the same
// inserts, invalidations, lookups and flushes: hits, evictions and what is
// cached must agree after every operation.
func TestIOTLBMatchesFIFOList(t *testing.T) {
	type entry struct {
		page IOVA
		pfn  layout.PFN
	}
	f := func(capacity uint8, ops []uint16) bool {
		cp := int(capacity%5) + 1
		tlb := NewIOTLB(cp)
		var list []entry
		var evictions uint64
		for _, op := range ops {
			page := IOVA(op>>4%16) << layout.PageShift
			idx := slices.IndexFunc(list, func(e entry) bool { return e.page == page })
			switch op % 8 {
			case 0, 1, 2:
				pfn := layout.PFN(op)
				tlb.Insert(page+IOVA(op%7), pfn, PermRead)
				switch {
				case idx >= 0:
					list[idx].pfn = pfn
				case len(list) >= cp:
					list = append(list[1:], entry{page, pfn})
					evictions++
				default:
					list = append(list, entry{page, pfn})
				}
			case 3, 4:
				tlb.Invalidate(page)
				if idx >= 0 {
					list = slices.Delete(list, idx, idx+1)
				}
			case 5:
				if op%64 == 5 {
					tlb.FlushAll()
					list = nil
				}
			default:
				pfn, _, ok := tlb.Lookup(page + 1)
				if ok != (idx >= 0) || ok && pfn != list[idx].pfn {
					return false
				}
			}
			if tlb.Len() != len(list) || tlb.Evictions != evictions {
				return false
			}
		}
		for p := IOVA(0); p < 16; p++ {
			idx := slices.IndexFunc(list, func(e entry) bool { return e.page == p<<layout.PageShift })
			if _, _, ok := tlb.Lookup(p << layout.PageShift); ok != (idx >= 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestIOTLBBuiltOnFirstInsert: a domain that never translates pays nothing
// for its IOTLB.
func TestIOTLBBuiltOnFirstInsert(t *testing.T) {
	tlb := NewIOTLB(0)
	tlb.Lookup(0x1000)
	tlb.Invalidate(0x1000)
	tlb.FlushAll()
	if tlb.ring != nil || tlb.index != nil {
		t.Fatal("lookups, invalidations and flushes built the IOTLB")
	}
	tlb.Insert(0x1000, 1, PermRead)
	if len(tlb.ring) != 2*DefaultIOTLBCapacity || len(tlb.index) != 2*DefaultIOTLBCapacity {
		t.Fatalf("ring %d slots, index %d slots", len(tlb.ring), len(tlb.index))
	}
}
