// Package dma implements the kernel DMA API of §2.3 over the simulated IOMMU
// and memory: dma_map_single/dma_unmap_single, the page variants, and
// scatter/gather lists.
//
// The API faithfully reproduces the property §9.1 criticizes: dma_map_single
// takes a buffer pointer and a length, insinuating that only those bytes are
// exposed, while in fact every byte of every page the buffer touches becomes
// accessible to the device. Likewise dma_unmap_single insinuates that access
// is revoked, which deferred invalidation and type (c) co-located mappings
// make untrue.
package dma

import (
	"fmt"

	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
)

// Direction is the DMA data direction, which determines the IOMMU permission
// of the mapping: TX buffers are mapped READ (device reads them), RX buffers
// WRITE, and e.g. XDP buffers BIDIRECTIONAL (§5.1).
type Direction int

const (
	// ToDevice maps the buffer for device reads (TX).
	ToDevice Direction = iota
	// FromDevice maps the buffer for device writes (RX).
	FromDevice
	// Bidirectional maps the buffer for both.
	Bidirectional
)

// Perm converts the direction to the IOMMU permission.
func (d Direction) Perm() iommu.Perm {
	switch d {
	case ToDevice:
		return iommu.PermRead
	case FromDevice:
		return iommu.PermWrite
	default:
		return iommu.PermBidir
	}
}

// String names the direction like the kernel's enum dma_data_direction.
func (d Direction) String() string {
	switch d {
	case ToDevice:
		return "DMA_TO_DEVICE"
	case FromDevice:
		return "DMA_FROM_DEVICE"
	default:
		return "DMA_BIDIRECTIONAL"
	}
}

// Hook observes map/unmap events; D-KASAN registers one.
type Hook interface {
	// OnMap fires after a successful mapping of [kva, kva+n).
	OnMap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction, iova iommu.IOVA)
	// OnUnmap fires after the translation is removed from the page table
	// (the IOTLB may still hold it under deferred invalidation).
	OnUnmap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction, iova iommu.IOVA)
}

// mapping records one live DMA mapping.
type mapping struct {
	dev  iommu.DeviceID
	kva  layout.Addr
	n    uint64
	dir  Direction
	iova iommu.IOVA // page-aligned base
	// The mapping covers the npages contiguous frames from pfn.
	pfn    layout.PFN
	npages uint64
	owner  Owner // ownership per §2.3: the device owns the buffer while mapped
}

type mapKey struct {
	dev  iommu.DeviceID
	iova iommu.IOVA // page-aligned
}

// Mapper is the DMA API entry point.
type Mapper struct {
	mem    *mem.Memory
	unit   *iommu.IOMMU
	active map[mapKey]*mapping
	hooks  []Hook

	stats Stats
}

// Stats counts DMA API activity.
type Stats struct {
	MapSingles, Unmaps, SGMaps uint64
	PagesMapped                uint64
	Syncs                      uint64
}

// NewMapper builds the DMA API over a memory and an IOMMU.
func NewMapper(m *mem.Memory, u *iommu.IOMMU) *Mapper {
	return &Mapper{mem: m, unit: u, active: make(map[mapKey]*mapping)}
}

// AddHook registers a map/unmap observer.
func (mp *Mapper) AddHook(h Hook) { mp.hooks = append(mp.hooks, h) }

// Stats returns a copy of the counters.
func (mp *Mapper) Stats() Stats { return mp.stats }

// MapSingle is dma_map_single: it maps the n bytes at kva for the device and
// returns the IOVA of the first byte. Every page the range touches is mapped
// whole — the sub-page vulnerability.
func (mp *Mapper) MapSingle(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction) (iommu.IOVA, error) {
	if n == 0 {
		return 0, fmt.Errorf("dma: zero-length mapping at %#x", uint64(kva))
	}
	dom, err := mp.unit.DomainOf(dev)
	if err != nil {
		return 0, err
	}
	firstPFN, err := mp.mem.Layout().KVAToPFN(kva)
	if err != nil {
		return 0, fmt.Errorf("dma: map of non-direct-map address: %w", err)
	}
	lastPFN, err := mp.mem.Layout().KVAToPFN(kva + layout.Addr(n-1))
	if err != nil {
		return 0, fmt.Errorf("dma: map end beyond memory: %w", err)
	}
	offset := layout.PageOffsetOf(kva)
	span := (uint64(lastPFN-firstPFN) + 1) * layout.PageSize
	base, err := dom.AllocIOVA(span)
	if err != nil {
		return 0, err
	}
	m := &mapping{dev: dev, kva: kva, n: n, dir: dir, iova: base, pfn: firstPFN, npages: uint64(lastPFN-firstPFN) + 1}
	for i := layout.PFN(0); firstPFN+i <= lastPFN; i++ {
		v := base + iommu.IOVA(uint64(i)*layout.PageSize)
		if err := mp.unit.Map(dev, v, firstPFN+i, dir.Perm()); err != nil {
			// Roll back what we mapped so far.
			for j := layout.PFN(0); j < i; j++ {
				_ = mp.unit.Unmap(dev, base+iommu.IOVA(uint64(j)*layout.PageSize))
				mp.pageInfo(firstPFN + j).ClearDMAMapped()
			}
			_ = dom.FreeIOVA(base, span)
			return 0, err
		}
		mp.pageInfo(firstPFN + i).MarkDMAMapped(dir.Perm().Allows(true))
	}
	mp.active[mapKey{dev, base}] = m
	mp.stats.MapSingles++
	mp.stats.PagesMapped += m.npages
	for _, h := range mp.hooks {
		h.OnMap(dev, kva, n, dir, base+iommu.IOVA(offset))
	}
	return base + iommu.IOVA(offset), nil
}

// UnmapSingle is dma_unmap_single: it takes the IOVA MapSingle returned plus
// the original length and direction. After it returns, the *page table* no
// longer maps the range; whether the *device* has lost access depends on the
// IOMMU invalidation mode and on other mappings of the same frames.
func (mp *Mapper) UnmapSingle(dev iommu.DeviceID, va iommu.IOVA, n uint64, dir Direction) error {
	base := va &^ iommu.IOVA(layout.PageMask)
	k := mapKey{dev, base}
	m, ok := mp.active[k]
	if !ok {
		return fmt.Errorf("dma: unmap of unknown mapping (dev %d, IOVA %#x)", dev, uint64(va))
	}
	if m.n != n || m.dir != dir {
		return fmt.Errorf("dma: unmap arguments (len %d, %v) do not match mapping (len %d, %v)", n, dir, m.n, m.dir)
	}
	for i := range m.npages {
		v := base + iommu.IOVA(i*layout.PageSize)
		if err := mp.unit.Unmap(dev, v); err != nil {
			return err
		}
		mp.pageInfo(m.pfn + layout.PFN(i)).ClearDMAMapped()
	}
	delete(mp.active, k)
	if err := mp.unit.ReleaseIOVA(dev, base, m.npages*layout.PageSize); err != nil {
		return err
	}
	mp.stats.Unmaps++
	for _, h := range mp.hooks {
		h.OnUnmap(dev, m.kva, m.n, m.dir, va)
	}
	return nil
}

// MapPage is dma_map_page: maps n bytes at the given offset of a frame.
func (mp *Mapper) MapPage(dev iommu.DeviceID, pfn layout.PFN, offset, n uint64, dir Direction) (iommu.IOVA, error) {
	if offset >= layout.PageSize {
		return 0, fmt.Errorf("dma: page offset %d out of range", offset)
	}
	kva := mp.mem.Layout().PFNToKVA(pfn) + layout.Addr(offset)
	return mp.MapSingle(dev, kva, n, dir)
}

// pageInfo panics only on internal inconsistency (PFNs come from layout).
func (mp *Mapper) pageInfo(p layout.PFN) *mem.PageInfo {
	pi, err := mp.mem.Page(p)
	if err != nil {
		panic(fmt.Sprintf("dma: internal: %v", err))
	}
	return pi
}

// DomainOf exposes the IOMMU domain a device is attached to.
func (mp *Mapper) DomainOf(dev iommu.DeviceID) (*iommu.Domain, error) {
	return mp.unit.DomainOf(dev)
}

// Live returns the number of active mappings (all devices).
func (mp *Mapper) Live() int { return len(mp.active) }

// MappingAt reports the live mapping covering the IOVA, for tests.
func (mp *Mapper) MappingAt(dev iommu.DeviceID, va iommu.IOVA) (kva layout.Addr, n uint64, dir Direction, ok bool) {
	m, found := mp.active[mapKey{dev, va &^ iommu.IOVA(layout.PageMask)}]
	if !found {
		return 0, 0, 0, false
	}
	return m.kva, m.n, m.dir, true
}
