// Package dkasan implements D-KASAN (DMA Kernel Address SANitizer, §4.2 of
// the paper): a run-time tool that augments KASAN-style allocation tracking
// with DMA-map tracking and reports the dynamic sub-page exposures static
// analysis cannot see:
//
//	alloc-after-map:  a kmalloc object is allocated from a DMA-mapped page
//	map-after-alloc:  a page holding live kmalloc objects becomes DMA-mapped
//	access-after-map: the CPU touches a DMA-mapped page
//	multiple-map:     a page is mapped by several IOVAs (possibly with
//	                  different permissions)
//
// The original instruments the kernel with compile-time callbacks; here the
// simulator's own memory and DMA operations are the instrumentation points
// (mem.Tracer + dma.Hook), which is exhaustive by construction.
package dkasan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
)

// Class is a D-KASAN report class.
type Class int

const (
	AllocAfterMap Class = iota
	MapAfterAlloc
	AccessAfterMap
	MultipleMap
)

// String names the class as §4.2 does.
func (c Class) String() string {
	switch c {
	case AllocAfterMap:
		return "alloc-after-map"
	case MapAfterAlloc:
		return "map-after-alloc"
	case AccessAfterMap:
		return "access-after-map"
	case MultipleMap:
		return "multiple-map"
	default:
		return "?"
	}
}

// Report is one deduplicated finding (one line of Fig. 3).
type Report struct {
	Class Class
	Size  uint64
	Read  bool // DMA permissions of the exposing mapping(s)
	Write bool
	Site  string
	Count int // occurrences folded into this line
}

// perms renders "[READ, WRITE]" like Fig. 3.
func (r *Report) perms() string {
	var p []string
	if r.Read {
		p = append(p, "READ")
	}
	if r.Write {
		p = append(p, "WRITE")
	}
	if len(p) == 0 {
		p = append(p, "NONE")
	}
	return "[" + strings.Join(p, ", ") + "]"
}

// String renders the Fig. 3 line format: "size 512 [READ, WRITE] site".
func (r *Report) String() string {
	return fmt.Sprintf("%s: size %d %s %s (x%d)", r.Class, r.Size, r.perms(), r.Site, r.Count)
}

// pageState is the sanitizer's per-frame shadow record.
type pageState struct {
	mapCount int
	read     bool
	write    bool
}

// Sanitizer is the D-KASAN instance. It implements mem.Tracer and dma.Hook.
type Sanitizer struct {
	m     *mem.Memory
	pages map[layout.PFN]*pageState
	// objects tracks live kmalloc objects: addr -> (size, site).
	objects map[layout.Addr]objInfo
	reports map[reportKey]*Report
	// Enabled gates reporting (the tools is compiled in but switched on for
	// test runs, like KASAN itself).
	Enabled bool
	// quiescedCPUAccess suppresses access-after-map noise from the
	// sanitizer's own bookkeeping reads.
	stats Stats
}

type objInfo struct {
	size uint64
	site string
}

// Stats counts raw (pre-deduplication) events.
type Stats struct {
	AllocAfterMap, MapAfterAlloc, AccessAfterMap, MultipleMap uint64
}

// New creates a sanitizer; attach it via core.WithTracer AND Attach().
func New() *Sanitizer {
	return &Sanitizer{
		pages:   make(map[layout.PFN]*pageState),
		objects: make(map[layout.Addr]objInfo),
		reports: make(map[reportKey]*Report),
		Enabled: true,
	}
}

// Attach wires the sanitizer to the booted system's memory and DMA API.
func (s *Sanitizer) Attach(m *mem.Memory, mapper *dma.Mapper) {
	s.m = m
	mapper.AddHook(s)
}

// Stats returns raw event counts.
func (s *Sanitizer) Stats() Stats { return s.stats }

// Reports returns the deduplicated findings, most frequent first, then by
// site, class, size and permissions: every report has its own key, so the
// order is total and a run prints the same report every time.
func (s *Sanitizer) Reports() []*Report {
	out := make([]*Report, 0, len(s.reports))
	for _, r := range s.reports {
		out = append(out, r)
	}
	slices.SortFunc(out, compareReports)
	return out
}

func compareReports(a, b *Report) int {
	bit := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return cmp.Or(
		cmp.Compare(b.Count, a.Count),
		strings.Compare(a.Site, b.Site),
		cmp.Compare(a.Class, b.Class),
		cmp.Compare(a.Size, b.Size),
		cmp.Compare(bit(a.Read), bit(b.Read)),
		cmp.Compare(bit(a.Write), bit(b.Write)),
	)
}

// ReportsOf filters by class.
func (s *Sanitizer) ReportsOf(c Class) []*Report {
	var out []*Report
	for _, r := range s.Reports() {
		if r.Class == c {
			out = append(out, r)
		}
	}
	return out
}

// Render prints the Fig. 3-style report.
func (s *Sanitizer) Render() string {
	var b strings.Builder
	b.WriteString("D-KASAN report\n")
	for i, r := range s.Reports() {
		fmt.Fprintf(&b, "[%d] %s\n", i+1, r.String())
	}
	return b.String()
}

// reportKey is what a report deduplicates on.
type reportKey struct {
	class       Class
	size        uint64
	read, write bool
	site        string
}

func (s *Sanitizer) report(c Class, size uint64, read, write bool, site string) {
	key := reportKey{c, size, read, write, site}
	if r, ok := s.reports[key]; ok {
		r.Count++
		return
	}
	s.reports[key] = &Report{Class: c, Size: size, Read: read, Write: write, Site: site, Count: 1}
}

func (s *Sanitizer) page(p layout.PFN) *pageState {
	st, ok := s.pages[p]
	if !ok {
		st = &pageState{}
		s.pages[p] = st
	}
	return st
}

// --- mem.Tracer ---

// OnKmalloc checks alloc-after-map: the fresh object landed on a page some
// device can already access.
func (s *Sanitizer) OnKmalloc(a layout.Addr, size uint64, site string) {
	s.objects[a] = objInfo{size: size, site: site}
	if !s.Enabled || s.m == nil {
		return
	}
	pfn, err := s.m.Layout().KVAToPFN(a)
	if err != nil {
		return
	}
	last, err := s.m.Layout().KVAToPFN(a + layout.Addr(size-1))
	if err != nil {
		last = pfn
	}
	for p := pfn; p <= last; p++ {
		st := s.page(p)
		if st.mapCount > 0 {
			s.stats.AllocAfterMap++
			s.report(AllocAfterMap, size, st.read, st.write, site)
			return
		}
	}
}

// OnKfree drops the object from the live set.
func (s *Sanitizer) OnKfree(a layout.Addr, size uint64) {
	delete(s.objects, a)
}

// OnPageAlloc and OnPageFree are uninteresting to D-KASAN (frames carry no
// objects yet / anymore) but required by the interface.
func (s *Sanitizer) OnPageAlloc(p layout.PFN, order uint) {}
func (s *Sanitizer) OnPageFree(p layout.PFN, order uint)  {}

// OnCPUAccess checks access-after-map: CPU touching a device-owned page.
func (s *Sanitizer) OnCPUAccess(a layout.Addr, n uint64, write bool) {
	if !s.Enabled || s.m == nil {
		return
	}
	pfn, err := s.m.Layout().KVAToPFN(a)
	if err != nil {
		return
	}
	st, ok := s.pages[pfn]
	if !ok || st.mapCount == 0 {
		return
	}
	s.stats.AccessAfterMap++
	kind := "read"
	if write {
		kind = "write"
	}
	s.report(AccessAfterMap, n, st.read, st.write, "cpu-"+kind)
}

// --- dma.Hook ---

// OnMap checks map-after-alloc and multiple-map for every covered page, then
// updates the shadow state.
func (s *Sanitizer) OnMap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir dma.Direction, va iommu.IOVA) {
	if s.m == nil {
		return
	}
	first, err := s.m.Layout().KVAToPFN(kva)
	if err != nil {
		return
	}
	last, err := s.m.Layout().KVAToPFN(kva + layout.Addr(n-1))
	if err != nil {
		last = first
	}
	read := dir.Perm().Allows(false)
	write := dir.Perm().Allows(true)
	for p := first; p <= last; p++ {
		st := s.page(p)
		if s.Enabled && st.mapCount > 0 {
			s.stats.MultipleMap++
			s.report(MultipleMap, n, st.read || read, st.write || write, "dma-map")
		}
		if s.Enabled {
			s.checkMapAfterAlloc(p, kva, n, read, write)
		}
		st.mapCount++
		st.read = st.read || read
		st.write = st.write || write
	}
}

// checkMapAfterAlloc reports live foreign kmalloc objects on a page being
// mapped (the mapped buffer itself is not foreign).
func (s *Sanitizer) checkMapAfterAlloc(p layout.PFN, mappedKVA layout.Addr, mappedLen uint64, read, write bool) {
	for _, obj := range s.m.Slab.ObjectsOnPage(p) {
		if !obj.Live {
			continue
		}
		// Skip the object(s) the mapping intentionally covers.
		if obj.Addr < mappedKVA+layout.Addr(mappedLen) && mappedKVA < obj.Addr+layout.Addr(obj.Size) {
			continue
		}
		s.stats.MapAfterAlloc++
		s.report(MapAfterAlloc, obj.Size, read, write, obj.Site)
	}
}

// OnUnmap updates the shadow state.
func (s *Sanitizer) OnUnmap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir dma.Direction, va iommu.IOVA) {
	if s.m == nil {
		return
	}
	first, err := s.m.Layout().KVAToPFN(kva)
	if err != nil {
		return
	}
	last, err := s.m.Layout().KVAToPFN(kva + layout.Addr(n-1))
	if err != nil {
		last = first
	}
	for p := first; p <= last; p++ {
		st := s.page(p)
		if st.mapCount > 0 {
			st.mapCount--
		}
		if st.mapCount == 0 {
			st.read, st.write = false, false
		}
	}
}
