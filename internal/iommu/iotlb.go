package iommu

import (
	"fmt"
	"math"
	"math/bits"

	"dmafault/internal/layout"
)

// tlbEntry caches one translation. The IOTLB only ever caches what a PTE
// held, so its frame number is as narrow as the PTE's.
type tlbEntry struct {
	page IOVA // page-aligned
	pfn  uint32
	perm Perm
	live bool // false: invalidated, a hole the ring skips
}

// IOTLB caches recent I/O translations. Like the hardware it models, it is
// NOT kept consistent with the page table automatically: the OS must
// explicitly invalidate entries (§5.2.1), and until it does a device keeps
// translating through stale entries.
//
// Entries sit in a ring in insertion order, and a full IOTLB evicts the
// oldest live one (FIFO). That order decides how long a stale entry
// survives translation traffic, so it is part of the §5.2 model, not an
// implementation detail. Invalidate leaves a hole in the ring instead of
// shifting it; the ring holds twice the capacity, so the holes are squeezed
// out at most once per capacity's worth of inserts. An open-addressed
// index finds a page's slot. Both are allocated on the first Insert: most
// domains never translate, and those pay nothing.
type IOTLB struct {
	capacity int
	ring     []tlbEntry // len 2*capacity once built
	head     int        // slot of the oldest entry (live or hole)
	used     int        // slots from head on that are in use, holes included
	live     int        // live entries
	// index maps a page to 1 + its ring slot (0: empty), by linear probing
	// from the page's hash; its length is a power of two of at least twice
	// the capacity, so it is at most half full.
	index []int32
	shift uint // 64 - log2(len(index))

	Hits, Misses, Evictions, Invalidations, Flushes uint64
}

// DefaultIOTLBCapacity approximates the per-domain IOTLB reach of a
// contemporary IOMMU.
const DefaultIOTLBCapacity = 256

// NewIOTLB builds an IOTLB with the given entry capacity (0 = default).
func NewIOTLB(capacity int) *IOTLB {
	if capacity <= 0 {
		capacity = DefaultIOTLBCapacity
	}
	return &IOTLB{capacity: capacity}
}

// key truncates an IOVA to its page.
func key(v IOVA) IOVA { return v &^ IOVA(layout.PageMask) }

// home is the index slot a page's probe sequence starts at.
func (t *IOTLB) home(page IOVA) int {
	return int(uint64(page>>layout.PageShift) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the index slot holding the page, or -1.
func (t *IOTLB) find(page IOVA) int {
	if t.index == nil {
		return -1
	}
	mask := len(t.index) - 1
	for i := t.home(page); ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return -1
		}
		if t.ring[s-1].page == page {
			return i
		}
	}
}

// put records that the page lives in ring slot s.
func (t *IOTLB) put(page IOVA, s int) {
	mask := len(t.index) - 1
	i := t.home(page)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = int32(s + 1)
}

// unindex empties index slot i, moving later entries of the probe run back
// so that every entry stays reachable from its home (backward-shift
// deletion: no tombstones).
func (t *IOTLB) unindex(i int) {
	mask := len(t.index) - 1
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.ring[t.index[j]-1].page))&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// Lookup returns the cached translation of the page containing v.
func (t *IOTLB) Lookup(v IOVA) (layout.PFN, Perm, bool) {
	i := t.find(key(v))
	if i < 0 {
		t.Misses++
		return 0, PermNone, false
	}
	t.Hits++
	e := &t.ring[t.index[i]-1]
	return layout.PFN(e.pfn), e.perm, true
}

// Insert caches a translation, evicting the oldest entry at capacity. The
// frame number must fit a PTE (32 bits).
func (t *IOTLB) Insert(v IOVA, pfn layout.PFN, perm Perm) {
	if uint64(pfn) > math.MaxUint32 {
		panic(fmt.Sprintf("iommu: IOTLB insert of PFN %#x beyond a PTE's 32 bits", uint64(pfn)))
	}
	k := key(v)
	if i := t.find(k); i >= 0 {
		e := &t.ring[t.index[i]-1]
		e.pfn, e.perm = uint32(pfn), perm
		return
	}
	if t.ring == nil {
		t.ring = make([]tlbEntry, 2*t.capacity)
		size := 1 << bits.Len(uint(2*t.capacity-1))
		t.index = make([]int32, size)
		t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	if t.live >= t.capacity {
		t.skipHoles()
		oldest := &t.ring[t.head]
		t.unindex(t.find(oldest.page))
		oldest.live = false
		t.live--
		t.skipHoles()
		t.Evictions++
	}
	if t.used == len(t.ring) {
		t.compact()
	}
	s := (t.head + t.used) % len(t.ring)
	t.ring[s] = tlbEntry{page: k, pfn: uint32(pfn), perm: perm, live: true}
	t.put(k, s)
	t.used++
	t.live++
}

// skipHoles advances the head past invalidated slots.
func (t *IOTLB) skipHoles() {
	for t.used > 0 && !t.ring[t.head].live {
		t.head = (t.head + 1) % len(t.ring)
		t.used--
	}
}

// compact squeezes the holes out of the ring, keeping the live entries in
// insertion order from the head on, and rebuilds the index.
func (t *IOTLB) compact() {
	n := len(t.ring)
	w := 0
	for r := 0; r < t.used; r++ {
		if e := t.ring[(t.head+r)%n]; e.live {
			t.ring[(t.head+w)%n] = e
			w++
		}
	}
	t.used = w
	clear(t.index)
	for r := 0; r < w; r++ {
		s := (t.head + r) % n
		t.put(t.ring[s].page, s)
	}
}

// Invalidate drops the cached translation of one page, if present.
func (t *IOTLB) Invalidate(v IOVA) {
	if i := t.find(key(v)); i >= 0 {
		t.ring[t.index[i]-1].live = false
		t.unindex(i)
		t.live--
		t.skipHoles()
	}
	t.Invalidations++
}

// FlushAll drops every cached translation (a global invalidation).
func (t *IOTLB) FlushAll() {
	if t.used > 0 {
		clear(t.index)
		t.head, t.used, t.live = 0, 0, 0
	}
	t.Flushes++
}

// Len returns the number of cached translations.
func (t *IOTLB) Len() int { return t.live }
