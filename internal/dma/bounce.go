package dma

import (
	"fmt"

	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
)

// BounceMapper is the copy-based IOMMU protection of Markuze et al. [47]
// (discussed in §8): instead of mapping the caller's buffer, every dma_map
// copies the requested bytes into a dedicated shadow page (or pages) that
// contains nothing else, maps the shadow, and copies device writes back on
// unmap — only the n requested bytes, never the rest of the page.
//
// This removes both halves of the sub-page problem at the price of copies:
// no co-location (the shadow page holds one buffer), and no useful stale
// window (what the device scribbles outside the requested bytes is never
// copied back).
type BounceMapper struct {
	mem   *mem.Memory
	inner *Mapper
	// shadows tracks live bounce mappings by their page-aligned IOVA.
	shadows map[bounceKey]*bounce
	stats   BounceStats
}

// BounceStats counts bounce activity.
type BounceStats struct {
	Maps, Unmaps, BytesCopied uint64
}

type bounceKey struct {
	dev  iommu.DeviceID
	iova iommu.IOVA // page-aligned
}

type bounce struct {
	origKVA   layout.Addr
	shadowKVA layout.Addr
	n         uint64
	dir       Direction
	order     uint
	pfn       layout.PFN
}

// NewBounceMapper wraps a Mapper with bounce buffering.
func NewBounceMapper(m *mem.Memory, inner *Mapper) *BounceMapper {
	return &BounceMapper{mem: m, inner: inner, shadows: make(map[bounceKey]*bounce)}
}

// Stats returns a copy of the counters.
func (b *BounceMapper) Stats() BounceStats { return b.stats }

// MapSingle copies the buffer into a fresh shadow allocation and maps that.
func (b *BounceMapper) MapSingle(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction) (iommu.IOVA, error) {
	if n == 0 {
		return 0, fmt.Errorf("dma: zero-length bounce mapping")
	}
	order := uint(0)
	for (uint64(layout.PageSize) << order) < n {
		order++
	}
	pfn, err := b.mem.Pages.AllocPages(0, order)
	if err != nil {
		return 0, err
	}
	shadow := b.mem.Layout().PFNToKVA(pfn)
	// Copy the caller's bytes in for device-readable directions.
	if dir == ToDevice || dir == Bidirectional {
		buf := make([]byte, n)
		if err := b.mem.Read(kva, buf); err != nil {
			return 0, err
		}
		if err := b.mem.Write(shadow, buf); err != nil {
			return 0, err
		}
		b.stats.BytesCopied += n
	}
	va, err := b.inner.MapSingle(dev, shadow, n, dir)
	if err != nil {
		_ = b.mem.Pages.Free(0, pfn, order)
		return 0, err
	}
	b.shadows[bounceKey{dev, va &^ iommu.IOVA(layout.PageMask)}] = &bounce{
		origKVA: kva, shadowKVA: shadow, n: n, dir: dir, order: order, pfn: pfn,
	}
	b.stats.Maps++
	return va, nil
}

// UnmapSingle copies device writes back (the n requested bytes only) and
// releases the shadow.
func (b *BounceMapper) UnmapSingle(dev iommu.DeviceID, va iommu.IOVA, n uint64, dir Direction) error {
	k := bounceKey{dev, va &^ iommu.IOVA(layout.PageMask)}
	sh, ok := b.shadows[k]
	if !ok {
		return fmt.Errorf("dma: bounce unmap of unknown mapping %#x", uint64(va))
	}
	if sh.n != n || sh.dir != dir {
		return fmt.Errorf("dma: bounce unmap arguments mismatch")
	}
	if err := b.inner.UnmapSingle(dev, va, n, dir); err != nil {
		return err
	}
	if dir == FromDevice || dir == Bidirectional {
		buf := make([]byte, n)
		if err := b.mem.Read(sh.shadowKVA, buf); err != nil {
			return err
		}
		if err := b.mem.Write(sh.origKVA, buf); err != nil {
			return err
		}
		b.stats.BytesCopied += n
	}
	delete(b.shadows, k)
	b.stats.Unmaps++
	return b.mem.Pages.Free(0, sh.pfn, sh.order)
}

// Live returns the number of active bounce mappings.
func (b *BounceMapper) Live() int { return len(b.shadows) }
