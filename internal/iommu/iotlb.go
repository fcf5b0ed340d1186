package iommu

import "dmafault/internal/layout"

// tlbEntry caches one translation.
type tlbEntry struct {
	pfn  layout.PFN
	perm Perm
}

// IOTLB caches recent I/O translations. Like the hardware it models, it is
// NOT kept consistent with the page table automatically: the OS must
// explicitly invalidate entries (§5.2.1), and until it does a device keeps
// translating through stale entries.
type IOTLB struct {
	entries  map[IOVA]tlbEntry
	order    []IOVA // FIFO eviction order
	capacity int

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
	return &IOTLB{entries: make(map[IOVA]tlbEntry, capacity), capacity: capacity}
}

// key truncates an IOVA to its page.
func key(v IOVA) IOVA { return v &^ IOVA(layout.PageMask) }

// Lookup returns the cached translation of the page containing v.
func (t *IOTLB) Lookup(v IOVA) (layout.PFN, Perm, bool) {
	e, ok := t.entries[key(v)]
	if !ok {
		t.Misses++
		return 0, PermNone, false
	}
	t.Hits++
	return e.pfn, e.perm, true
}

// Insert caches a translation, evicting the oldest entry at capacity.
func (t *IOTLB) Insert(v IOVA, pfn layout.PFN, perm Perm) {
	k := key(v)
	if _, ok := t.entries[k]; ok {
		t.entries[k] = tlbEntry{pfn, perm}
		return
	}
	if len(t.entries) >= t.capacity {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.entries, oldest)
		t.Evictions++
	}
	t.entries[k] = tlbEntry{pfn, perm}
	t.order = append(t.order, k)
}

// Invalidate drops the cached translation of one page, if present.
func (t *IOTLB) Invalidate(v IOVA) {
	k := key(v)
	if _, ok := t.entries[k]; ok {
		delete(t.entries, k)
		for i, o := range t.order {
			if o == k {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
	t.Invalidations++
}

// FlushAll drops every cached translation (a global invalidation).
func (t *IOTLB) FlushAll() {
	clear(t.entries)
	t.order = t.order[:0]
	t.Flushes++
}

// Len returns the number of cached translations.
func (t *IOTLB) Len() int { return len(t.entries) }
