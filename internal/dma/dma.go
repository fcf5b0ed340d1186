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

// mapping records one live DMA mapping: 16 bytes, no pointers. The device
// and the page-aligned IOVA are its index (Mapper.devs), and the frames
// follow from the KVA, which the direct map translates linearly.
type mapping struct {
	kva   layout.Addr
	last  uint32 // length - 1; a mapping lies within memory (≤ mem.MaxPhysBytes)
	dir   uint8  // Direction
	owner uint8  // Owner, per §2.3: the device owns the buffer while mapped
}

// Every mapping fits mapping.last, and every frame of memory fits a PTE:
// raising mem.MaxPhysBytes past either fails to compile here.
const (
	_ uint32 = mem.MaxPhysBytes - 1
	_ uint64 = iommu.MaxPTEPFN - (mem.MaxPhysBytes/layout.PageSize - 1)
)

func (m *mapping) len() uint64 { return uint64(m.last) + 1 }

// pages is the number of frames (and IOVA pages) the mapping spans.
func (m *mapping) pages() uint64 {
	return (layout.PageOffsetOf(m.kva) + m.len() + layout.PageMask) / layout.PageSize
}

// Mapper is the DMA API entry point.
type Mapper struct {
	mem  *mem.Memory
	unit *iommu.IOMMU
	// devs indexes live mappings by requester ID, then by the IOVA page of
	// the mapping's base counted from iommu.IOVABase: a slot holds 1 + the
	// mapping's index in recs (0: none). Domains hand out IOVA densely from
	// IOVABase, so the page index stays as small as the address space used.
	devs  [][]uint32
	recs  []mapping
	free  []uint32 // recycled recs slots
	hooks []Hook

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
	return &Mapper{mem: m, unit: u}
}

// AddHook registers a map/unmap observer.
func (mp *Mapper) AddHook(h Hook) { mp.hooks = append(mp.hooks, h) }

// Stats returns a copy of the counters.
func (mp *Mapper) Stats() Stats { return mp.stats }

// slot returns the index slot of the mapping based at the page of va, or
// nil when va lies outside the device's index.
func (mp *Mapper) slot(dev iommu.DeviceID, va iommu.IOVA) *uint32 {
	base := va &^ iommu.IOVA(layout.PageMask)
	if int(dev) >= len(mp.devs) || base < iommu.IOVABase {
		return nil
	}
	pages := mp.devs[dev]
	if i := uint64(base-iommu.IOVABase) >> layout.PageShift; i < uint64(len(pages)) {
		return &pages[i]
	}
	return nil
}

// lookup returns the live mapping based at the page of va.
func (mp *Mapper) lookup(dev iommu.DeviceID, va iommu.IOVA) (*mapping, bool) {
	if s := mp.slot(dev, va); s != nil && *s != 0 {
		return &mp.recs[*s-1], true
	}
	return nil, false
}

// insert records a mapping based at base, replacing any mapping the index
// already holds there.
func (mp *Mapper) insert(dev iommu.DeviceID, base iommu.IOVA, m mapping) {
	if int(dev) >= len(mp.devs) {
		mp.devs = append(mp.devs, make([][]uint32, int(dev)+1-len(mp.devs))...)
	}
	i := uint64(base-iommu.IOVABase) >> layout.PageShift
	if pages := mp.devs[dev]; i >= uint64(len(pages)) {
		mp.devs[dev] = append(pages, make([]uint32, i+1-uint64(len(pages)))...)
	}
	s := &mp.devs[dev][i]
	if *s != 0 {
		mp.release(s)
	}
	var r uint32
	if n := len(mp.free); n > 0 {
		r = mp.free[n-1]
		mp.free = mp.free[:n-1]
		mp.recs[r] = m
	} else {
		r = uint32(len(mp.recs))
		mp.recs = append(mp.recs, m)
	}
	*s = r + 1
}

// release empties an index slot and recycles its record.
func (mp *Mapper) release(s *uint32) {
	mp.free = append(mp.free, *s-1)
	*s = 0
}

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
	npages := uint64(lastPFN-firstPFN) + 1
	span := npages * layout.PageSize
	base, err := dom.AllocIOVA(span)
	if err != nil {
		return 0, err
	}
	for i := range npages {
		v := base + iommu.IOVA(i*layout.PageSize)
		if err := dom.Map(v, firstPFN+layout.PFN(i), dir.Perm()); err != nil {
			// Roll back what we mapped so far.
			for j := range i {
				_ = dom.Unmap(base + iommu.IOVA(j*layout.PageSize))
				mp.pageInfo(firstPFN + layout.PFN(j)).ClearDMAMapped()
			}
			_ = dom.FreeIOVA(base, span)
			return 0, err
		}
		mp.pageInfo(firstPFN + layout.PFN(i)).MarkDMAMapped(dir.Perm().Allows(true))
	}
	mp.insert(dev, base, mapping{kva: kva, last: uint32(n - 1), dir: uint8(dir), owner: uint8(OwnerDevice)})
	mp.stats.MapSingles++
	mp.stats.PagesMapped += npages
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
	s := mp.slot(dev, va)
	if s == nil || *s == 0 {
		return fmt.Errorf("dma: unmap of unknown mapping (dev %d, IOVA %#x)", dev, uint64(va))
	}
	m := mp.recs[*s-1]
	if m.len() != n || Direction(m.dir) != dir {
		return fmt.Errorf("dma: unmap arguments (len %d, %v) do not match mapping (len %d, %v)", n, dir, m.len(), Direction(m.dir))
	}
	dom, err := mp.unit.DomainOf(dev)
	if err != nil {
		return err
	}
	pfn := mp.pfnOf(m.kva)
	npages := m.pages()
	for i := range npages {
		if err := dom.Unmap(base + iommu.IOVA(i*layout.PageSize)); err != nil {
			return err
		}
		mp.pageInfo(pfn + layout.PFN(i)).ClearDMAMapped()
	}
	mp.release(s)
	if err := dom.ReleaseIOVA(base, npages*layout.PageSize); err != nil {
		return err
	}
	mp.stats.Unmaps++
	for _, h := range mp.hooks {
		h.OnUnmap(dev, m.kva, n, dir, va)
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

// pfnOf translates the KVA of a live mapping, which MapSingle validated.
func (mp *Mapper) pfnOf(kva layout.Addr) layout.PFN {
	pfn, err := mp.mem.Layout().KVAToPFN(kva)
	if err != nil {
		panic(fmt.Sprintf("dma: internal: %v", err))
	}
	return pfn
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
func (mp *Mapper) Live() int { return len(mp.recs) - len(mp.free) }

// MappingAt reports the live mapping based at the IOVA's page, for tests.
func (mp *Mapper) MappingAt(dev iommu.DeviceID, va iommu.IOVA) (kva layout.Addr, n uint64, dir Direction, ok bool) {
	m, found := mp.lookup(dev, va)
	if !found {
		return 0, 0, 0, false
	}
	return m.kva, m.len(), Direction(m.dir), true
}
