// Package mem simulates the physical memory of the victim machine together
// with the three kernel allocators whose placement policies create sub-page
// DMA vulnerabilities (§3.2 of the paper):
//
//   - a buddy page allocator with per-CPU hot-page caches (Linux reuses
//     recently freed pages immediately, §5.2.1 attack option 2);
//   - a SLUB-style kmalloc whose slabs pack same-size objects onto shared
//     pages and keep the freelist pointer *inside* free objects — the "OS
//     metadata on the I/O page" of vulnerability type (b) and the random
//     co-location of type (d);
//   - the page_frag allocator (§5.2.2, Fig. 5), which slices per-CPU 32 KiB
//     compound regions into consecutive buffers and is the root cause of
//     type (c) vulnerabilities (multiple IOVAs mapping the same page).
//
// Physical memory is sparse: each page frame is backed in 512-byte sectors,
// a sector on its first write, and an unbacked sector reads as zeros, so a
// boot costs only the sectors it touches while every reader sees the bytes a
// dense array would hold. The struct pages are sparse the same way: they
// live in chunks of 512 frames, and a chunk is built on its first touch in
// the state the boot left it in (bootPage), so a machine pays for the
// metadata its allocations reach, not for its size. Kernel virtual
// addresses are interpreted through a layout.Layout. CPU-side accesses flow
// through Memory.Read/Write so that a sanitizer (D-KASAN) can observe them;
// device-side DMA accesses use the physical Read/WritePhys path via the
// IOMMU bus.
package mem

import (
	"encoding/binary"
	"fmt"

	"dmafault/internal/layout"
)

// Tracer observes allocator and CPU-access events. The D-KASAN sanitizer
// implements it; the zero value of Memory uses a nil tracer (no tracing).
type Tracer interface {
	// OnKmalloc fires after a kmalloc object is handed out.
	OnKmalloc(addr layout.Addr, size uint64, site string)
	// OnKfree fires before a kmalloc object is returned to its slab.
	OnKfree(addr layout.Addr, size uint64)
	// OnPageAlloc fires after 2^order pages starting at pfn are handed out.
	OnPageAlloc(pfn layout.PFN, order uint)
	// OnPageFree fires before 2^order pages starting at pfn are freed.
	OnPageFree(pfn layout.PFN, order uint)
	// OnCPUAccess fires on every CPU load/store through Memory.Read/Write.
	OnCPUAccess(addr layout.Addr, size uint64, write bool)
}

// Config sizes the simulated machine's memory subsystem.
type Config struct {
	Layout *layout.Layout
	// CPUs is the number of simulated cores; page_frag caches and hot-page
	// caches are per-CPU.
	CPUs int
	// Tracer, if non-nil, observes allocator and access events.
	Tracer Tracer
	// Inject, if non-nil, is the fault-injection hook consulted on every
	// page-block allocation (the buddy allocator feeds the slab and
	// page_frag paths too, so one hook site models allocator pressure
	// everywhere). internal/faultinject implements it.
	Inject AllocInjector
}

// AllocInjector is the allocator-pressure fault-injection hook: true makes
// the allocation fail with an error wrapping faultinject.ErrTransient.
type AllocInjector interface {
	InjectAllocFailure() bool
}

// MaxPhysBytes bounds the simulated physical memory New accepts. The chunk
// table stays dense at 8 bytes per 512 frames, so an absurd size (a
// scenario's mem_bytes of 1<<40) would still cost the host before the first
// page is touched; the bound admits every auto-sized boot (4.15 boot studies
// at 4 RX queues need 512 MiB) with room to spare.
const MaxPhysBytes = 4 << 30

// sectorSize is the granularity at which a frame is backed. RingFlood's
// device plants 64 bytes in every buffer of an HW-LRO ring; backing those
// plants a page at a time cost half of all the bytes a campaign allocates.
const sectorSize = 512

// sector is the backing store of sectorSize bytes of one frame.
type sector [sectorSize]byte

// frame is the backing store of one physical page frame: its sectors, each
// nil, and reading as zeros, until its first store.
type frame [layout.PageSize / sectorSize]*sector

// chunkFrames is the number of page frames one chunk covers.
const chunkFrames = 512

// chunk holds the struct pages and the backing frames of chunkFrames
// consecutive page frames; a nil frame reads as zeros.
type chunk struct {
	pages  [chunkFrames]PageInfo
	frames [chunkFrames]*frame
}

// Sectors and frames are carved from blocks whose length doubles from
// minBlock to maxBlock values, so a backed frame costs about one heap object
// while a machine that backs little pays for little. A sector per heap
// object costs 10-20 % more allocations per attack.
const (
	minBlock = 4
	maxBlock = 64
)

// carver hands out zeroed values carved from blocks. Nothing is returned to
// it: a backed sector stays backed for the life of its Memory.
type carver[T any] struct {
	free []T
	n    int // length of the last block
}

func (c *carver[T]) new() *T {
	if len(c.free) == 0 {
		c.n = min(max(2*c.n, minBlock), maxBlock)
		c.free = make([]T, c.n)
	}
	v := &c.free[0]
	c.free = c.free[1:]
	return v
}

// Memory is the simulated physical memory plus its allocators.
type Memory struct {
	layout *layout.Layout
	size   uint64
	npages int
	// chunks[pfn/chunkFrames] covers frame pfn; a nil chunk is untouched:
	// its struct pages are in their boot state and no frame is backed.
	chunks  []*chunk
	frames  carver[frame]
	sectors carver[sector]
	tracer  Tracer
	inject  AllocInjector

	Pages *PageAllocator
	Slab  *SlabAllocator
	Frag  *FragAllocator
}

// New builds a machine memory of cfg.Layout.PhysBytes bytes.
func New(cfg Config) (*Memory, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("mem: nil layout")
	}
	if cfg.Layout.PhysBytes%layout.PageSize != 0 {
		return nil, fmt.Errorf("mem: PhysBytes %d not page aligned", cfg.Layout.PhysBytes)
	}
	if cfg.Layout.PhysBytes > MaxPhysBytes {
		return nil, fmt.Errorf("mem: PhysBytes %d exceeds the %d-byte maximum", cfg.Layout.PhysBytes, uint64(MaxPhysBytes))
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	m := &Memory{
		layout: cfg.Layout,
		size:   cfg.Layout.PhysBytes,
		npages: int(cfg.Layout.PhysBytes / layout.PageSize),
		chunks: make([]*chunk, (cfg.Layout.PhysBytes/layout.PageSize+chunkFrames-1)/chunkFrames),
		tracer: cfg.Tracer,
		inject: cfg.Inject,
	}
	var err error
	m.Pages, err = newPageAllocator(m, cfg.CPUs)
	if err != nil {
		return nil, err
	}
	m.Slab = newSlabAllocator(m)
	m.Frag = newFragAllocator(m, cfg.CPUs)
	return m, nil
}

// Layout returns the virtual memory layout this memory is interpreted under.
func (m *Memory) Layout() *layout.Layout { return m.layout }

// NumPages returns the number of simulated physical page frames.
func (m *Memory) NumPages() int { return m.npages }

// ChunksBuilt returns how many chunks of 512 struct pages have been built:
// the page metadata this machine's allocations have touched so far.
func (m *Memory) ChunksBuilt() int {
	n := 0
	for _, c := range m.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// Page returns the metadata of a page frame (the simulated struct page).
func (m *Memory) Page(p layout.PFN) (*PageInfo, error) {
	if uint64(p) >= uint64(m.npages) {
		return nil, fmt.Errorf("mem: PFN %d out of range (max %d)", p, m.npages-1)
	}
	return m.mustPage(p), nil
}

// mustPage is Page for internal callers that already validated the PFN.
func (m *Memory) mustPage(p layout.PFN) *PageInfo {
	return &m.chunkOf(p).pages[p%chunkFrames]
}

// chunkOf returns the chunk covering frame p, building it on first touch
// with every struct page in its boot state.
func (m *Memory) chunkOf(p layout.PFN) *chunk {
	c := m.chunks[p/chunkFrames]
	if c == nil {
		c = new(chunk)
		base := p &^ (chunkFrames - 1)
		for i := range c.pages {
			c.pages[i] = bootPage(base+layout.PFN(i), m.npages)
		}
		m.chunks[p/chunkFrames] = c
	}
	return c
}

// frameAt returns the backing store of frame p, or nil while it reads as
// zeros. It never builds a chunk.
func (m *Memory) frameAt(p layout.PFN) *frame {
	if c := m.chunks[p/chunkFrames]; c != nil {
		return c.frames[p%chunkFrames]
	}
	return nil
}

// sectorAt returns the backing store of the sector holding pa, or nil while
// it reads as zeros.
func (m *Memory) sectorAt(pa uint64) *sector {
	if f := m.frameAt(layout.PFN(pa / layout.PageSize)); f != nil {
		return f[pa%layout.PageSize/sectorSize]
	}
	return nil
}

// backSector backs the unbacked sector holding pa, and its frame and chunk
// if they are not built yet.
func (m *Memory) backSector(pa uint64) *sector {
	p := layout.PFN(pa / layout.PageSize)
	c := m.chunkOf(p)
	f := c.frames[p%chunkFrames]
	if f == nil {
		f = m.frames.new()
		c.frames[p%chunkFrames] = f
	}
	s := m.sectors.new()
	f[pa%layout.PageSize/sectorSize] = s
	return s
}

// checkPhys validates a physical range.
func (m *Memory) checkPhys(pa, n uint64) error {
	if pa >= m.size || n > m.size-pa {
		return fmt.Errorf("mem: physical range [%#x,+%d) out of bounds", pa, n)
	}
	return nil
}

// ReadPhys copies simulated physical memory into buf. It is the device-side
// access primitive: no CPU tracer events fire.
func (m *Memory) ReadPhys(pa uint64, buf []byte) error {
	if err := m.checkPhys(pa, uint64(len(buf))); err != nil {
		return err
	}
	m.copyOut(pa, buf)
	return nil
}

// WritePhys copies buf into simulated physical memory (device-side).
func (m *Memory) WritePhys(pa uint64, buf []byte) error {
	if err := m.checkPhys(pa, uint64(len(buf))); err != nil {
		return err
	}
	m.copyIn(pa, uint64(len(buf)), buf, 0)
	return nil
}

// Read performs a CPU load from a direct-map KVA.
func (m *Memory) Read(a layout.Addr, buf []byte) error {
	pa, err := m.layout.KVAToPhys(a)
	if err != nil {
		return err
	}
	if err := m.checkPhys(pa, uint64(len(buf))); err != nil {
		return err
	}
	if m.tracer != nil {
		m.tracer.OnCPUAccess(a, uint64(len(buf)), false)
	}
	m.copyOut(pa, buf)
	return nil
}

// Write performs a CPU store to a direct-map KVA.
func (m *Memory) Write(a layout.Addr, buf []byte) error {
	pa, err := m.layout.KVAToPhys(a)
	if err != nil {
		return err
	}
	if err := m.checkPhys(pa, uint64(len(buf))); err != nil {
		return err
	}
	if m.tracer != nil {
		m.tracer.OnCPUAccess(a, uint64(len(buf)), true)
	}
	m.copyIn(pa, uint64(len(buf)), buf, 0)
	return nil
}

// ReadU64 loads a little-endian 64-bit word (CPU side).
func (m *Memory) ReadU64(a layout.Addr) (uint64, error) {
	var b [8]byte
	if err := m.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a little-endian 64-bit word (CPU side).
func (m *Memory) WriteU64(a layout.Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(a, b[:])
}

// ReadU32 loads a little-endian 32-bit word (CPU side).
func (m *Memory) ReadU32(a layout.Addr) (uint32, error) {
	var b [4]byte
	if err := m.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 stores a little-endian 32-bit word (CPU side).
func (m *Memory) WriteU32(a layout.Addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return m.Write(a, b[:])
}

// ReadU16 loads a little-endian 16-bit word (CPU side).
func (m *Memory) ReadU16(a layout.Addr) (uint16, error) {
	var b [2]byte
	if err := m.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// WriteU16 stores a little-endian 16-bit word (CPU side).
func (m *Memory) WriteU16(a layout.Addr, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return m.Write(a, b[:])
}

// Memset fills a KVA range with a byte value (CPU side).
func (m *Memory) Memset(a layout.Addr, v byte, n uint64) error {
	pa, err := m.layout.KVAToPhys(a)
	if err != nil {
		return err
	}
	if err := m.checkPhys(pa, n); err != nil {
		return err
	}
	if m.tracer != nil {
		m.tracer.OnCPUAccess(a, n, true)
	}
	m.copyIn(pa, n, nil, v)
	return nil
}

// copyOut copies physical memory starting at pa into buf, one sector at a
// time; unbacked sectors read as zeros. The caller checked the range.
func (m *Memory) copyOut(pa uint64, buf []byte) {
	for len(buf) > 0 {
		off := pa % sectorSize
		n := min(uint64(len(buf)), sectorSize-off)
		if s := m.sectorAt(pa); s != nil {
			copy(buf[:n], s[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		pa += n
	}
}

// copyIn stores n bytes at physical address pa, one sector at a time: the
// bytes of src, or n copies of v when src is nil. A sector is backed on its
// first store, except that filling an unbacked sector with zeros leaves it
// unbacked, since it already reads as zeros. A frame and its chunk are built
// only to back a sector. The caller checked the range.
func (m *Memory) copyIn(pa, n uint64, src []byte, v byte) {
	for n > 0 {
		off := pa % sectorSize
		c := min(n, sectorSize-off)
		s := m.sectorAt(pa)
		if s == nil && (src != nil || v != 0) {
			s = m.backSector(pa)
		}
		switch {
		case src != nil:
			copy(s[off:off+c], src)
			src = src[c:]
		case s != nil:
			dst := s[off : off+c]
			for i := range dst {
				dst[i] = v
			}
		}
		pa += c
		n -= c
	}
}

// tracerOnKmalloc and friends centralize nil checks.
func (m *Memory) tracerOnKmalloc(a layout.Addr, size uint64, site string) {
	if m.tracer != nil {
		m.tracer.OnKmalloc(a, size, site)
	}
}
func (m *Memory) tracerOnKfree(a layout.Addr, size uint64) {
	if m.tracer != nil {
		m.tracer.OnKfree(a, size)
	}
}
func (m *Memory) tracerOnPageAlloc(p layout.PFN, order uint) {
	if m.tracer != nil {
		m.tracer.OnPageAlloc(p, order)
	}
}
func (m *Memory) tracerOnPageFree(p layout.PFN, order uint) {
	if m.tracer != nil {
		m.tracer.OnPageFree(p, order)
	}
}
