package mem

import (
	"fmt"
	"sort"

	"dmafault/internal/layout"
)

// SizeClasses are the kmalloc size classes, mirroring Linux's kmalloc-<n>
// caches. An allocation is served from the smallest class that fits, so
// objects of *similar* size share slab pages — the random co-location of
// vulnerability type (d): "objects allocated via the kmalloc API may share a
// page with objects of similar size" (§4.2).
var SizeClasses = []uint64{8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048, 4096, 8192}

// KmallocMax is the largest size served by the slab allocator.
const KmallocMax = 8192

// slabOrder returns the buddy order of slabs for a size class.
func slabOrder(class uint64) uint {
	switch {
	case class <= 256:
		return 0
	case class <= 1024:
		return 1
	case class <= 2048:
		return 2
	default:
		return 3
	}
}

// slab is one slab: a 2^order block of pages sliced into objects of one size
// class. The freelist is threaded through the *objects themselves* in
// simulated memory (first 8 bytes of each free object hold the KVA of the
// next free object), exactly like SLUB — this is kernel metadata that a
// device can read and corrupt whenever an object on the slab page is
// DMA-mapped (Fig. 1(b), [4]).
type slab struct {
	head     layout.PFN
	class    uint64
	order    uint
	objects  int
	inuse    int
	freeHead layout.Addr // 0 = empty freelist
	state    []byte      // per-object: 0 free, 1 allocated
	sites    []string    // per-object allocation site
}

// SlabAllocator implements kmalloc/kfree over the page allocator.
type SlabAllocator struct {
	m       *Memory
	partial map[uint64][]*slab   // class -> slabs with free objects
	byPage  map[layout.PFN]*slab // any frame of slab -> slab
	stats   SlabStats
}

// SlabStats counts allocator activity.
type SlabStats struct {
	Allocs, Frees, SlabsCreated, SlabsDestroyed uint64
}

func newSlabAllocator(m *Memory) *SlabAllocator {
	return &SlabAllocator{
		m:       m,
		partial: make(map[uint64][]*slab),
		byPage:  make(map[layout.PFN]*slab),
	}
}

// ClassFor returns the size class that serves a request of n bytes.
func ClassFor(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("mem: kmalloc of 0 bytes")
	}
	i := sort.Search(len(SizeClasses), func(i int) bool { return SizeClasses[i] >= n })
	if i == len(SizeClasses) {
		return 0, fmt.Errorf("mem: kmalloc of %d bytes exceeds KmallocMax %d", n, KmallocMax)
	}
	return SizeClasses[i], nil
}

// Stats returns a copy of the allocator statistics.
func (s *SlabAllocator) Stats() SlabStats { return s.stats }

// Kmalloc allocates n bytes and returns the object's KVA. site identifies
// the allocating code location (function+offset) for sanitizer reports.
// Like the kernel's kmalloc, the memory is NOT zeroed: stale contents leak.
func (s *SlabAllocator) Kmalloc(cpu int, n uint64, site string) (layout.Addr, error) {
	class, err := ClassFor(n)
	if err != nil {
		return 0, err
	}
	sl, err := s.partialSlab(cpu, class)
	if err != nil {
		return 0, err
	}
	addr := sl.freeHead
	if !s.validObjectAddr(sl, addr) {
		// The freelist pointer lives inside free objects in (device-
		// reachable) memory; a DMA write can corrupt it. Detecting the
		// corruption here models CONFIG_SLAB_FREELIST_HARDENED — the
		// un-hardened kernel would dereference wild memory and crash, the
		// denial-of-service outcome §3.1 mentions.
		return 0, fmt.Errorf("mem: corrupted slab freelist head %#x on slab %d (kernel would panic)", uint64(addr), sl.head)
	}
	next, err := s.m.ReadU64(addr) // freelist pointer lives inside the object
	if err != nil {
		return 0, fmt.Errorf("mem: corrupt freelist on slab %d: %w", sl.head, err)
	}
	if next != 0 && !s.validObjectAddr(sl, layout.Addr(next)) {
		return 0, fmt.Errorf("mem: corrupted slab freelist link %#x -> %#x (kernel would panic)", uint64(addr), next)
	}
	sl.freeHead = layout.Addr(next)
	idx := s.objIndex(sl, addr)
	sl.state[idx] = 1
	sl.sites[idx] = site
	sl.inuse++
	if sl.inuse == sl.objects {
		s.removePartial(sl)
	}
	s.stats.Allocs++
	s.m.tracerOnKmalloc(addr, class, site)
	return addr, nil
}

// Kzalloc is Kmalloc followed by zeroing.
func (s *SlabAllocator) Kzalloc(cpu int, n uint64, site string) (layout.Addr, error) {
	a, err := s.Kmalloc(cpu, n, site)
	if err != nil {
		return 0, err
	}
	class, _ := ClassFor(n)
	if err := s.m.Memset(a, 0, class); err != nil {
		return 0, err
	}
	return a, nil
}

// Kfree returns an object to its slab. The object's first 8 bytes are
// overwritten with the freelist pointer, in simulated memory.
func (s *SlabAllocator) Kfree(a layout.Addr) error {
	sl, idx, err := s.objectOf(a)
	if err != nil {
		return err
	}
	base := s.objAddr(sl, idx)
	if base != a {
		return fmt.Errorf("mem: kfree of interior pointer %#x (object starts at %#x)", uint64(a), uint64(base))
	}
	if sl.state[idx] == 0 {
		return fmt.Errorf("mem: double kfree of %#x", uint64(a))
	}
	s.m.tracerOnKfree(a, sl.class)
	sl.state[idx] = 0
	sl.sites[idx] = ""
	if err := s.m.WriteU64(a, uint64(sl.freeHead)); err != nil {
		return err
	}
	wasFull := sl.inuse == sl.objects
	sl.freeHead = a
	sl.inuse--
	if wasFull {
		s.partial[sl.class] = append(s.partial[sl.class], sl)
	}
	if sl.inuse == 0 {
		s.destroySlab(sl)
	}
	return nil
}

// SizeOf returns the size class of a live kmalloc object (ksize).
func (s *SlabAllocator) SizeOf(a layout.Addr) (uint64, error) {
	sl, idx, err := s.objectOf(a)
	if err != nil {
		return 0, err
	}
	if sl.state[idx] == 0 {
		return 0, fmt.Errorf("mem: ksize of free object %#x", uint64(a))
	}
	return sl.class, nil
}

// SiteOf returns the allocation site of a live object (for sanitizer reports).
func (s *SlabAllocator) SiteOf(a layout.Addr) (string, error) {
	sl, idx, err := s.objectOf(a)
	if err != nil {
		return "", err
	}
	if sl.state[idx] == 0 {
		return "", fmt.Errorf("mem: site of free object %#x", uint64(a))
	}
	return sl.sites[idx], nil
}

// ObjectsOnPage returns the (address, size, site, live) tuples of all objects
// whose storage intersects the given frame. D-KASAN uses this to report what
// a freshly DMA-mapped page exposes.
type SlabObject struct {
	Addr layout.Addr
	Size uint64
	Site string
	Live bool
}

// ObjectsOnPage lists slab objects overlapping the frame, or nil if the frame
// is not a slab page.
func (s *SlabAllocator) ObjectsOnPage(p layout.PFN) []SlabObject {
	sl, ok := s.byPage[p]
	if !ok {
		return nil
	}
	pageStart := s.m.layout.PFNToKVA(p)
	pageEnd := pageStart + layout.PageSize
	var out []SlabObject
	for i := 0; i < sl.objects; i++ {
		a := s.objAddr(sl, i)
		if a+layout.Addr(sl.class) > pageStart && a < pageEnd {
			out = append(out, SlabObject{Addr: a, Size: sl.class, Site: sl.sites[i], Live: sl.state[i] == 1})
		}
	}
	return out
}

// partialSlab finds (or creates) a slab of the class with a free object.
func (s *SlabAllocator) partialSlab(cpu int, class uint64) (*slab, error) {
	if list := s.partial[class]; len(list) > 0 {
		return list[len(list)-1], nil
	}
	order := slabOrder(class)
	head, err := s.m.Pages.AllocPages(cpu, order)
	if err != nil {
		return nil, err
	}
	bytes := uint64(layout.PageSize) << order
	sl := &slab{
		head:    head,
		class:   class,
		order:   order,
		objects: int(bytes / class),
	}
	sl.state = make([]byte, sl.objects)
	sl.sites = make([]string, sl.objects)
	// Thread the freelist through the objects, last to first, so that
	// allocation order is ascending addresses (like a fresh SLUB slab).
	var next layout.Addr
	for i := sl.objects - 1; i >= 0; i-- {
		a := s.objAddr(sl, i)
		if err := s.m.WriteU64(a, uint64(next)); err != nil {
			return nil, err
		}
		next = a
	}
	sl.freeHead = next
	for i := layout.PFN(0); i < layout.PFN(1)<<order; i++ {
		pi := s.m.mustPage(head + i)
		pi.Flags |= FlagSlab
		pi.SlabClass = uint32(class)
		s.byPage[head+i] = sl
	}
	s.partial[class] = append(s.partial[class], sl)
	s.stats.SlabsCreated++
	return sl, nil
}

func (s *SlabAllocator) removePartial(sl *slab) {
	list := s.partial[sl.class]
	for i, x := range list {
		if x == sl {
			s.partial[sl.class] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

func (s *SlabAllocator) destroySlab(sl *slab) {
	s.removePartial(sl)
	for i := layout.PFN(0); i < layout.PFN(1)<<sl.order; i++ {
		pi := s.m.mustPage(sl.head + i)
		pi.Flags &^= FlagSlab
		pi.SlabClass = 0
		delete(s.byPage, sl.head+i)
	}
	s.stats.SlabsDestroyed++
	// Best effort: the page allocator cannot fail here for a valid slab.
	if err := s.m.Pages.Free(0, sl.head, sl.order); err != nil {
		panic(fmt.Sprintf("mem: freeing slab pages: %v", err))
	}
}

// validObjectAddr reports whether the address is an object boundary of the
// slab (the freelist-hardening sanity check).
func (s *SlabAllocator) validObjectAddr(sl *slab, a layout.Addr) bool {
	base := s.m.layout.PFNToKVA(sl.head)
	end := base + layout.Addr(uint64(layout.PageSize)<<sl.order)
	if a < base || a >= end {
		return false
	}
	return uint64(a-base)%sl.class == 0
}

// objAddr returns the KVA of object idx on the slab.
func (s *SlabAllocator) objAddr(sl *slab, idx int) layout.Addr {
	return s.m.layout.PFNToKVA(sl.head) + layout.Addr(uint64(idx)*sl.class)
}

// objIndex returns the object index containing the address.
func (s *SlabAllocator) objIndex(sl *slab, a layout.Addr) int {
	base := s.m.layout.PFNToKVA(sl.head)
	return int(uint64(a-base) / sl.class)
}

// objectOf resolves an address to its slab and object index.
func (s *SlabAllocator) objectOf(a layout.Addr) (*slab, int, error) {
	pfn, err := s.m.layout.KVAToPFN(a)
	if err != nil {
		return nil, 0, err
	}
	sl, ok := s.byPage[pfn]
	if !ok {
		return nil, 0, fmt.Errorf("mem: %#x is not a slab address", uint64(a))
	}
	idx := s.objIndex(sl, a)
	if idx < 0 || idx >= sl.objects {
		return nil, 0, fmt.Errorf("mem: %#x outside slab objects", uint64(a))
	}
	return sl, idx, nil
}
