package dma

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"testing"

	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
	"dmafault/internal/sim"
)

// FuzzIOMMU runs decoded operation sequences twice: on the IOMMU, the DMA
// API and the device bus, and on a reference built from plain maps and
// lists (refMachine). After every step the two must agree on the rendered
// return values and errors (faults carry their kind and address), the unit
// and mapper counters, the virtual clock, and every domain's IOTLB counters,
// flush-queue depth and page-table size; at the end every reference
// translation must Walk, and IOVAsFor must list the same pages. The
// reference also asserts the §5.2.1 mechanisms: in strict mode no
// translation succeeds through an unmapped IOVA, and in deferred mode a
// stale translation succeeds only for an IOVA that sits in the domain's
// flush queue and in its IOTLB.

// fuzzIOMMUMemBytes is the simulated memory behind the fuzzed machine.
const fuzzIOMMUMemBytes = 16 << 20

// refIOVABase is where the reference allocator starts handing out address
// space (the unit's own base is not exported, and the reference must not
// share it).
const refIOVABase iommu.IOVA = 1 << 32

// fuzzDevs are the requester IDs a sequence can name: the low IDs the NICs
// use, the FireWire device's 9, and one far above them.
var fuzzDevs = [...]iommu.DeviceID{0, 1, 2, 3, 9, 300}

// fuzzOp is one decoded operation: six input bytes.
type fuzzOp struct{ kind, a, b, c, d, e byte }

func (o fuzzOp) dev() iommu.DeviceID  { return fuzzDevs[int(o.a&0x0f)%len(fuzzDevs)] }
func (o fuzzOp) dev2() iommu.DeviceID { return fuzzDevs[int(o.b)%len(fuzzDevs)] }
func (o fuzzOp) write() bool          { return o.a&0x80 != 0 }

// iova names an IOVA page near the allocator's base, or (c's top bit) one
// far below it.
func (o fuzzOp) iova() iommu.IOVA {
	page := iommu.IOVA(o.b) | iommu.IOVA(o.c&1)<<8
	if o.c&0x80 != 0 {
		return page << 12
	}
	return refIOVABase + page<<12
}

// pfn names a frame of the fuzzed memory.
func (o fuzzOp) pfn(npages int) layout.PFN {
	return layout.PFN((int(o.d) | int(o.e)<<8) % npages)
}

// fuzzHandle is a live dma_map_single result the sequence can refer to.
type fuzzHandle struct {
	dev iommu.DeviceID
	va  iommu.IOVA
	n   uint64
	dir Direction
}

// pages lists the IOVA pages the handle's buffer spans.
func (h fuzzHandle) pages() []iommu.IOVA {
	base := h.va &^ iommu.IOVA(layout.PageMask)
	var out []iommu.IOVA
	for v := base; v < h.va+iommu.IOVA(h.n); v += iommu.IOVA(layout.PageSize) {
		out = append(out, v)
	}
	return out
}

// fuzzSide is one of the two machines FuzzIOMMU compares.
type fuzzSide interface {
	createDomain(dev iommu.DeviceID) error
	attach(dev, to iommu.DeviceID) error
	mapPage(dev iommu.DeviceID, v iommu.IOVA, pfn layout.PFN, perm iommu.Perm) error
	unmap(dev iommu.DeviceID, v iommu.IOVA) error
	releaseIOVA(dev iommu.DeviceID, v iommu.IOVA, n uint64) error
	translate(dev iommu.DeviceID, v iommu.IOVA, write bool) (layout.PFN, error)
	tick(d sim.Nanos)
	flushSync()
	setMode(m iommu.Mode)
	setFlushPolicy(timeout sim.Nanos, limit int)
	mapSingle(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction) (iommu.IOVA, error)
	unmapSingle(dev iommu.DeviceID, va iommu.IOVA, n uint64, dir Direction) error
	sync(which int, dev iommu.DeviceID, va iommu.IOVA) (Owner, error)
	busAccess(dev iommu.DeviceID, va iommu.IOVA, buf []byte, write bool) error
	state() string
	finalState(pfns []layout.PFN) string
}

// runFuzzOp applies one operation to a side and renders what it returned.
// handles is the side's list of live dma_map_single results.
func runFuzzOp(s fuzzSide, o fuzzOp, handles *[]fuzzHandle, npages int, l *layout.Layout) string {
	pick := func() (fuzzHandle, int, bool) {
		if len(*handles) == 0 {
			return fuzzHandle{}, 0, false
		}
		i := int(o.b) % len(*handles)
		return (*handles)[i], i, true
	}
	switch o.kind % 16 {
	case 0:
		return render("", s.createDomain(o.dev()))
	case 1:
		return render("", s.attach(o.dev(), o.dev2()))
	case 2:
		return render("", s.mapPage(o.dev(), o.iova(), o.pfn(npages), iommu.Perm(o.a>>4&3)))
	case 3:
		return render("", s.unmap(o.dev(), o.iova()))
	case 4:
		return render("", s.releaseIOVA(o.dev(), o.iova(), uint64(1+o.d%4)*layout.PageSize-uint64(o.e%2)))
	case 5:
		v := o.iova() + iommu.IOVA(o.d)*16
		pfn, err := s.translate(o.dev(), v, o.write())
		return render(fmt.Sprint(pfn), err)
	case 6:
		s.tick(sim.Nanos(int(o.b)|int(o.c)<<8) * sim.Microsecond)
		return "tick"
	case 7:
		s.flushSync()
		return "flush"
	case 8:
		s.setMode(iommu.Mode(o.a & 1))
		return "mode"
	case 9:
		s.setFlushPolicy(sim.Nanos(o.b)*200*sim.Microsecond, int(o.c%9))
		return "policy"
	case 10:
		n := 1 + uint64(o.c)*16
		if o.a&0x80 != 0 {
			n = uint64(o.c)*layout.PageSize + uint64(o.b)
		}
		pfn := o.pfn(npages)
		if o.a&0x40 != 0 {
			pfn += layout.PFN(npages) // past the end of memory
		}
		kva := l.PFNToKVA(pfn) + layout.Addr(o.b)*16
		dir := Direction((o.a >> 4 & 3) % 3)
		va, err := s.mapSingle(o.dev(), kva, n, dir)
		if err == nil {
			*handles = append(*handles, fuzzHandle{o.dev(), va, n, dir})
		}
		return render(fmt.Sprintf("%#x", uint64(va)), err)
	case 11:
		h, i, ok := pick()
		if !ok {
			return "no handle"
		}
		n, dir := h.n, h.dir
		if o.c&1 != 0 {
			n++
		}
		if o.c&2 != 0 {
			dir = (dir + 1) % 3
		}
		err := s.unmapSingle(h.dev, h.va, n, dir)
		if err == nil {
			*handles = slices.Delete(*handles, i, i+1)
		}
		return render("", err)
	case 12:
		h, _, ok := pick()
		if !ok {
			return "no handle"
		}
		owner, err := s.sync(int(o.c%3), h.dev, h.va+iommu.IOVA(o.d)*16)
		return render(owner.String(), err)
	case 13:
		dev, va := o.dev(), o.iova()+iommu.IOVA(o.d)*17
		if h, _, ok := pick(); ok && o.a&0x40 == 0 {
			dev, va = h.dev, h.va+iommu.IOVA(o.d)*17
		}
		buf := make([]byte, 1+int(o.e)*32)
		if o.write() {
			for i := range buf {
				buf[i] = o.c + byte(i)
			}
		}
		err := s.busAccess(dev, va, buf, o.write())
		sum := fnv.New64a()
		sum.Write(buf)
		return render(fmt.Sprintf("%x", sum.Sum64()), err)
	case 14:
		h, _, ok := pick()
		if !ok {
			return "no handle"
		}
		var b strings.Builder
		for _, v := range h.pages() {
			pfn, err := s.translate(h.dev, v, o.write())
			b.WriteString(render(fmt.Sprint(pfn), err))
			b.WriteByte(';')
		}
		return b.String()
	default:
		var b strings.Builder
		v := o.iova()
		for i := 0; i < int(o.e%64); i++ {
			pfn, err := s.translate(o.dev(), v+iommu.IOVA(i)<<12, o.write())
			b.WriteString(render(fmt.Sprint(pfn), err))
			b.WriteByte(';')
		}
		return b.String()
	}
}

func render(val string, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	return "ok " + val
}

// realSide is the code under test.
type realSide struct {
	mem  *mem.Memory
	clk  *sim.Clock
	unit *iommu.IOMMU
	mp   *Mapper
	bus  *Bus
	devs map[iommu.DeviceID]bool
}

func (r *realSide) createDomain(dev iommu.DeviceID) error {
	_, err := r.unit.CreateDomain(fmt.Sprintf("dom%d", dev), dev)
	if err == nil {
		r.devs[dev] = true
	}
	return err
}

func (r *realSide) attach(dev, to iommu.DeviceID) error {
	d, err := r.unit.DomainOf(to)
	if err != nil {
		return err
	}
	if err := r.unit.AttachDevice(dev, d); err != nil {
		return err
	}
	r.devs[dev] = true
	return nil
}

func (r *realSide) mapPage(dev iommu.DeviceID, v iommu.IOVA, pfn layout.PFN, perm iommu.Perm) error {
	return r.unit.Map(dev, v, pfn, perm)
}
func (r *realSide) unmap(dev iommu.DeviceID, v iommu.IOVA) error { return r.unit.Unmap(dev, v) }
func (r *realSide) releaseIOVA(dev iommu.DeviceID, v iommu.IOVA, n uint64) error {
	return r.unit.ReleaseIOVA(dev, v, n)
}
func (r *realSide) translate(dev iommu.DeviceID, v iommu.IOVA, write bool) (layout.PFN, error) {
	return r.unit.Translate(dev, v, write)
}
func (r *realSide) tick(d sim.Nanos) { r.clk.Advance(d); r.unit.Tick() }
func (r *realSide) flushSync()       { r.unit.FlushSync() }
func (r *realSide) setMode(m iommu.Mode) {
	r.unit.SetMode(m)
}
func (r *realSide) setFlushPolicy(timeout sim.Nanos, limit int) {
	r.unit.SetFlushPolicy(timeout, limit)
}
func (r *realSide) mapSingle(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction) (iommu.IOVA, error) {
	return r.mp.MapSingle(dev, kva, n, dir)
}
func (r *realSide) unmapSingle(dev iommu.DeviceID, va iommu.IOVA, n uint64, dir Direction) error {
	return r.mp.UnmapSingle(dev, va, n, dir)
}
func (r *realSide) sync(which int, dev iommu.DeviceID, va iommu.IOVA) (Owner, error) {
	switch which {
	case 0:
		return OwnerCPU, r.mp.SyncForCPU(dev, va)
	case 1:
		return OwnerDevice, r.mp.SyncForDevice(dev, va)
	default:
		return r.mp.OwnerOf(dev, va)
	}
}
func (r *realSide) busAccess(dev iommu.DeviceID, va iommu.IOVA, buf []byte, write bool) error {
	if write {
		return r.bus.Write(dev, va, buf)
	}
	return r.bus.Read(dev, va, buf)
}

// sortedDevs lists attached devices in ascending order.
func sortedDevs(devs map[iommu.DeviceID]bool) []iommu.DeviceID {
	out := make([]iommu.DeviceID, 0, len(devs))
	for d := range devs {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

func (r *realSide) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d unit=%+v mapper=%+v live=%d", r.clk.Now(), r.unit.Stats(), r.mp.Stats(), r.mp.Live())
	for _, dev := range sortedDevs(r.devs) {
		d, _ := r.unit.DomainOf(dev)
		t := d.TLB()
		fmt.Fprintf(&b, "\n%d:%s tlb=%d/%d/%d/%d/%d/%d queue=%d entries=%d", dev, d.Name(),
			t.Len(), t.Hits, t.Misses, t.Evictions, t.Invalidations, t.Flushes, d.PendingInvalidations(), d.Table().Entries())
	}
	return b.String()
}

// finalState renders every present translation of every domain plus the
// IOVAsFor lists of the given frames.
func (r *realSide) finalState(pfns []layout.PFN) string {
	var b strings.Builder
	for _, dev := range sortedDevs(r.devs) {
		d, _ := r.unit.DomainOf(dev)
		fmt.Fprintf(&b, "%d: entries=%d\n", dev, d.Table().Entries())
		for _, p := range pfns {
			fmt.Fprintf(&b, "  pfn %d -> %#x\n", p, d.IOVAsFor(p))
		}
	}
	return b.String()
}

// refPTE and refTLBEntry are the reference's translations.
type refPTE struct {
	pfn  layout.PFN
	perm iommu.Perm
}

type refTLBEntry struct {
	page iommu.IOVA
	refPTE
}

// refDomain is a protection domain kept in plain maps and lists.
type refDomain struct {
	name  string
	table map[iommu.IOVA]refPTE
	// tlb is the IOTLB in insertion order, oldest first.
	tlb                                             []refTLBEntry
	hits, misses, evictions, invalidations, flushes uint64
	queue                                           []iommu.IOVA
	deadline                                        sim.Nanos
	pending                                         [][2]uint64 // released ranges (base, pages) awaiting a flush
	next                                            iommu.IOVA
	freed                                           map[uint64][]iommu.IOVA
	live                                            map[iommu.IOVA]uint64 // handed-out ranges: base -> pages
}

func (d *refDomain) tlbIndex(page iommu.IOVA) int {
	return slices.IndexFunc(d.tlb, func(e refTLBEntry) bool { return e.page == page })
}

func (d *refDomain) alloc(n uint64) (iommu.IOVA, error) {
	if n == 0 {
		return 0, fmt.Errorf("iommu: zero-length IOVA allocation")
	}
	pages := layout.PageAlignUp(n) / layout.PageSize
	var v iommu.IOVA
	if list := d.freed[pages]; len(list) > 0 {
		v = list[len(list)-1]
		d.freed[pages] = list[:len(list)-1]
	} else {
		v = d.next
		next := d.next + iommu.IOVA(pages*layout.PageSize)
		if pages == 0 || next < d.next || next>>48 != 0 {
			return 0, fmt.Errorf("iommu: IOVA space exhausted")
		}
		d.next = next
	}
	d.live[v] = pages
	return v, nil
}

// release forgets [v, v+n) if it is exactly one live range and returns its
// length in pages; anything else — a double or partial release — is
// refused.
func (d *refDomain) release(v iommu.IOVA, n uint64) (uint64, error) {
	if v < refIOVABase || uint64(v)&layout.PageMask != 0 {
		return 0, fmt.Errorf("iommu: bad IOVA free %#x", uint64(v))
	}
	pages := layout.PageAlignUp(n) / layout.PageSize
	if got, ok := d.live[v]; !ok || got != pages {
		return 0, fmt.Errorf("iommu: IOVA free %#x+%d matches no live allocation", uint64(v), n)
	}
	delete(d.live, v)
	return pages, nil
}

func (d *refDomain) free(v iommu.IOVA, n uint64) error {
	pages, err := d.release(v, n)
	if err != nil {
		return err
	}
	d.freed[pages] = append(d.freed[pages], v)
	return nil
}

type refKey struct {
	dev  iommu.DeviceID
	base iommu.IOVA
}

type refMapping struct {
	kva   layout.Addr
	n     uint64
	dir   Direction
	pages uint64
	owner Owner
}

// refMachine is the reference: the IOMMU, the DMA API's mapping table and
// physical memory, each as a plain map or list.
type refMachine struct {
	t       *testing.T
	l       *layout.Layout
	mode    iommu.Mode
	now     sim.Nanos
	timeout sim.Nanos
	limit   int
	doms    map[iommu.DeviceID]*refDomain
	all     []*refDomain
	st      iommu.Stats
	maps    map[refKey]*refMapping
	mst     Stats
	phys    map[layout.PFN]*[layout.PageSize]byte
}

func page(v iommu.IOVA) iommu.IOVA { return v &^ iommu.IOVA(layout.PageMask) }

func (m *refMachine) domain(dev iommu.DeviceID) (*refDomain, error) {
	d, ok := m.doms[dev]
	if !ok {
		return nil, fmt.Errorf("iommu: device %d not attached to any domain", dev)
	}
	return d, nil
}

func (m *refMachine) createDomain(dev iommu.DeviceID) error {
	if _, ok := m.doms[dev]; ok {
		return fmt.Errorf("iommu: device %d already attached", dev)
	}
	d := &refDomain{name: fmt.Sprintf("dom%d", dev), table: map[iommu.IOVA]refPTE{},
		next: refIOVABase, freed: map[uint64][]iommu.IOVA{}, live: map[iommu.IOVA]uint64{}}
	m.doms[dev] = d
	m.all = append(m.all, d)
	return nil
}

func (m *refMachine) attach(dev, to iommu.DeviceID) error {
	d, err := m.domain(to)
	if err != nil {
		return err
	}
	if _, ok := m.doms[dev]; ok {
		return fmt.Errorf("iommu: device %d already attached", dev)
	}
	m.doms[dev] = d
	return nil
}

func (m *refMachine) mapPage(dev iommu.DeviceID, v iommu.IOVA, pfn layout.PFN, perm iommu.Perm) error {
	d, err := m.domain(dev)
	if err != nil {
		return err
	}
	switch _, present := d.table[page(v)]; {
	case perm == iommu.PermNone:
		return fmt.Errorf("iommu: mapping %#x with no permissions", uint64(v))
	case v>>48 != 0:
		return fmt.Errorf("iommu: IOVA %#x beyond 48-bit space", uint64(v))
	case present:
		return fmt.Errorf("iommu: IOVA page %#x already mapped", uint64(page(v)))
	}
	d.table[page(v)] = refPTE{pfn, perm}
	m.st.Maps++
	return nil
}

func (m *refMachine) unmap(dev iommu.DeviceID, v iommu.IOVA) error {
	d, err := m.domain(dev)
	if err != nil {
		return err
	}
	if _, ok := d.table[page(v)]; !ok {
		return fmt.Errorf("iommu: unmap of unmapped IOVA %#x", uint64(v))
	}
	delete(d.table, page(v))
	m.st.Unmaps++
	if m.mode == iommu.Strict {
		if i := d.tlbIndex(page(v)); i >= 0 {
			d.tlb = slices.Delete(d.tlb, i, i+1)
		}
		d.invalidations++
		m.now += iommu.InvalidationCost
		m.st.StrictInvalidations++
		m.st.InvalidationTime += iommu.InvalidationCost
		return nil
	}
	if len(d.queue) == 0 {
		d.deadline = m.now + m.timeout
	}
	d.queue = append(d.queue, page(v))
	if len(d.queue) >= m.limit {
		m.flush(d)
	}
	return nil
}

func (m *refMachine) flush(d *refDomain) {
	if len(d.queue) == 0 && len(d.pending) == 0 {
		return
	}
	d.tlb, d.queue = nil, nil
	d.flushes++
	for _, p := range d.pending {
		d.freed[p[1]] = append(d.freed[p[1]], iommu.IOVA(p[0]))
	}
	d.pending = nil
	m.now += iommu.InvalidationCost
	m.st.InvalidationTime += iommu.InvalidationCost
	m.st.GlobalFlushes++
}

func (m *refMachine) releaseIOVA(dev iommu.DeviceID, v iommu.IOVA, n uint64) error {
	d, err := m.domain(dev)
	if err != nil {
		return err
	}
	pages, err := d.release(v, n)
	if err != nil {
		return err
	}
	if m.mode == iommu.Deferred {
		d.pending = append(d.pending, [2]uint64{uint64(v), pages})
		return nil
	}
	d.freed[pages] = append(d.freed[pages], v)
	return nil
}

func (m *refMachine) tickNow() {
	if m.mode != iommu.Deferred {
		return
	}
	for _, d := range m.all {
		if len(d.queue) > 0 && m.now >= d.deadline {
			m.flush(d)
		}
	}
}

func (m *refMachine) translate(dev iommu.DeviceID, v iommu.IOVA, write bool) (layout.PFN, error) {
	m.tickNow()
	d, err := m.domain(dev)
	if err != nil {
		return 0, err
	}
	m.st.Translations++
	fault := func(perm iommu.Perm) error {
		m.st.Faults++
		return &iommu.Fault{Dev: dev, Addr: v, Write: write, Perm: perm}
	}
	pte, mapped := d.table[page(v)]
	if i := d.tlbIndex(page(v)); i >= 0 {
		e := d.tlb[i]
		d.hits++
		if !e.perm.Allows(write) {
			return 0, fault(e.perm)
		}
		if !mapped {
			// §5.2.1: a translation through an unmapped IOVA is the
			// deferred-invalidation window and nothing else.
			if m.mode == iommu.Strict {
				m.t.Fatalf("strict mode: translation of unmapped IOVA %#x succeeded", uint64(v))
			}
			if !slices.Contains(d.queue, page(v)) {
				m.t.Fatalf("stale translation of IOVA %#x outside the flush queue", uint64(v))
			}
			m.st.StaleHits++
		}
		return e.pfn, nil
	}
	d.misses++
	if !mapped {
		return 0, fault(iommu.PermNone)
	}
	if len(d.tlb) >= iommu.DefaultIOTLBCapacity {
		d.tlb = d.tlb[1:]
		d.evictions++
	}
	d.tlb = append(d.tlb, refTLBEntry{page(v), pte})
	if !pte.perm.Allows(write) {
		return 0, fault(pte.perm)
	}
	return pte.pfn, nil
}

func (m *refMachine) tick(d sim.Nanos) { m.now += d; m.tickNow() }

func (m *refMachine) flushSync() {
	for _, d := range m.all {
		m.flush(d)
	}
}

func (m *refMachine) setMode(mode iommu.Mode) { m.flushSync(); m.mode = mode }

func (m *refMachine) setFlushPolicy(timeout sim.Nanos, limit int) {
	m.flushSync()
	if timeout > 0 {
		m.timeout = timeout
	}
	if limit > 0 {
		m.limit = limit
	}
}

func (m *refMachine) mapSingle(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction) (iommu.IOVA, error) {
	if n == 0 {
		return 0, fmt.Errorf("dma: zero-length mapping at %#x", uint64(kva))
	}
	d, err := m.domain(dev)
	if err != nil {
		return 0, err
	}
	first, err := m.l.KVAToPFN(kva)
	if err != nil {
		return 0, fmt.Errorf("dma: map of non-direct-map address: %w", err)
	}
	last, err := m.l.KVAToPFN(kva + layout.Addr(n-1))
	if err != nil {
		return 0, fmt.Errorf("dma: map end beyond memory: %w", err)
	}
	pages := uint64(last-first) + 1
	base, err := d.alloc(pages * layout.PageSize)
	if err != nil {
		return 0, err
	}
	for i := range pages {
		if err := m.mapPage(dev, base+iommu.IOVA(i*layout.PageSize), first+layout.PFN(i), dir.Perm()); err != nil {
			for j := range i {
				_ = m.unmap(dev, base+iommu.IOVA(j*layout.PageSize))
			}
			_ = d.free(base, pages*layout.PageSize)
			return 0, err
		}
	}
	m.maps[refKey{dev, base}] = &refMapping{kva: kva, n: n, dir: dir, pages: pages}
	m.mst.MapSingles++
	m.mst.PagesMapped += pages
	return base + iommu.IOVA(layout.PageOffsetOf(kva)), nil
}

func (m *refMachine) unmapSingle(dev iommu.DeviceID, va iommu.IOVA, n uint64, dir Direction) error {
	k := refKey{dev, page(va)}
	mp, ok := m.maps[k]
	if !ok {
		return fmt.Errorf("dma: unmap of unknown mapping (dev %d, IOVA %#x)", dev, uint64(va))
	}
	if mp.n != n || mp.dir != dir {
		return fmt.Errorf("dma: unmap arguments (len %d, %v) do not match mapping (len %d, %v)", n, dir, mp.n, mp.dir)
	}
	for i := range mp.pages {
		if err := m.unmap(dev, k.base+iommu.IOVA(i*layout.PageSize)); err != nil {
			return err
		}
	}
	delete(m.maps, k)
	if err := m.releaseIOVA(dev, k.base, mp.pages*layout.PageSize); err != nil {
		return err
	}
	m.mst.Unmaps++
	return nil
}

func (m *refMachine) sync(which int, dev iommu.DeviceID, va iommu.IOVA) (Owner, error) {
	mp, ok := m.maps[refKey{dev, page(va)}]
	names := [...]string{"sync_for_cpu", "sync_for_device", "OwnerOf"}
	if !ok {
		if which == 2 {
			return OwnerDevice, fmt.Errorf("dma: OwnerOf on unmapped IOVA %#x", uint64(va))
		}
		return [...]Owner{OwnerCPU, OwnerDevice}[which], fmt.Errorf("dma: %s on unmapped IOVA %#x", names[which], uint64(va))
	}
	switch which {
	case 2:
		return mp.owner, nil
	case 0:
		if mp.owner == OwnerCPU {
			return OwnerCPU, fmt.Errorf("dma: double sync_for_cpu on IOVA %#x", uint64(va))
		}
		mp.owner = OwnerCPU
	default:
		if mp.owner == OwnerDevice {
			return OwnerDevice, fmt.Errorf("dma: double sync_for_device on IOVA %#x", uint64(va))
		}
		mp.owner = OwnerDevice
	}
	m.mst.Syncs++
	return mp.owner, nil
}

func (m *refMachine) busAccess(dev iommu.DeviceID, va iommu.IOVA, buf []byte, write bool) error {
	for done := 0; done < len(buf); {
		cur := va + iommu.IOVA(done)
		pfn, err := m.translate(dev, cur, write)
		if err != nil {
			return fmt.Errorf("dma: device access at +%d: %w", done, err)
		}
		off := int(uint64(cur) & layout.PageMask)
		frame := m.phys[pfn]
		if frame == nil {
			frame = new([layout.PageSize]byte)
			m.phys[pfn] = frame
		}
		var n int
		if write {
			n = copy(frame[off:], buf[done:])
		} else {
			n = copy(buf[done:], frame[off:])
		}
		done += n
	}
	return nil
}

func (m *refMachine) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d unit=%+v mapper=%+v live=%d", m.now, m.st, m.mst, len(m.maps))
	devs := make(map[iommu.DeviceID]bool, len(m.doms))
	for dev := range m.doms {
		devs[dev] = true
	}
	for _, dev := range sortedDevs(devs) {
		d := m.doms[dev]
		fmt.Fprintf(&b, "\n%d:%s tlb=%d/%d/%d/%d/%d/%d queue=%d entries=%d", dev, d.name,
			len(d.tlb), d.hits, d.misses, d.evictions, d.invalidations, d.flushes, len(d.queue), len(d.table))
	}
	return b.String()
}

func (m *refMachine) finalState(pfns []layout.PFN) string {
	var b strings.Builder
	devs := make(map[iommu.DeviceID]bool, len(m.doms))
	for dev := range m.doms {
		devs[dev] = true
	}
	for _, dev := range sortedDevs(devs) {
		d := m.doms[dev]
		fmt.Fprintf(&b, "%d: entries=%d\n", dev, len(d.table))
		for _, p := range pfns {
			var list []iommu.IOVA
			for v, e := range d.table {
				if e.pfn == p {
					list = append(list, v)
				}
			}
			slices.Sort(list)
			fmt.Fprintf(&b, "  pfn %d -> %#x\n", p, list)
		}
	}
	return b.String()
}

// fuzzSeq concatenates operations into a fuzz input.
func fuzzSeq(ops ...fuzzOp) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, o.kind, o.a, o.b, o.c, o.d, o.e)
	}
	return out
}

func FuzzIOMMU(f *testing.F) {
	create := fuzzOp{kind: 0, a: 1}
	f.Add([]byte{})
	// Map, device write and read, unmap, a stale read, then the timeout.
	f.Add(fuzzSeq(create, fuzzOp{10, 0x21, 3, 90, 40, 2}, fuzzOp{13, 0x81, 0, 7, 1, 20},
		fuzzOp{13, 0x01, 0, 0, 1, 20}, fuzzOp{11, 1, 0, 0, 0, 0}, fuzzOp{5, 1, 0, 0, 0, 0},
		fuzzOp{14, 0x81, 0, 0, 0, 0}, fuzzOp{6, 0, 0x20, 0x4e, 0, 0}, fuzzOp{5, 0x81, 0, 0, 0, 0}))
	// Two 200-page buffers swept twice overflow the IOTLB, and unmapping
	// both passes the flush queue limit.
	f.Add(fuzzSeq(create, fuzzOp{10, 0xa1, 0, 200, 0, 2}, fuzzOp{10, 0xa1, 0, 200, 0, 4},
		fuzzOp{14, 0x81, 0, 0, 0, 0}, fuzzOp{14, 0x81, 1, 0, 0, 0}, fuzzOp{14, 0x81, 0, 0, 0, 0},
		fuzzOp{11, 1, 0, 0, 0, 0}, fuzzOp{11, 1, 0, 0, 0, 0}, fuzzOp{15, 0x81, 0, 0, 0, 63}))
	// Strict mode: an unmap takes the translation with it.
	f.Add(fuzzSeq(fuzzOp{8, 1, 0, 0, 0, 0}, create, fuzzOp{10, 0x11, 0, 3, 9, 0},
		fuzzOp{5, 1, 0, 0, 0, 0}, fuzzOp{11, 1, 0, 0, 0, 0}, fuzzOp{5, 1, 0, 0, 0, 0},
		fuzzOp{8, 0, 0, 0, 0, 0}, fuzzOp{10, 0x91, 0, 3, 9, 0}))
	// The FireWire device shares the NIC's domain.
	f.Add(fuzzSeq(create, fuzzOp{1, 4, 1, 0, 0, 0}, fuzzOp{10, 0x24, 0, 8, 77, 0},
		fuzzOp{5, 0x81, 0, 0, 0, 0}, fuzzOp{13, 0xc1, 0, 0, 0, 3}, fuzzOp{0, 4, 0, 0, 0, 0}))
	// Raw page-table operations collide with the allocator.
	f.Add(fuzzSeq(create, fuzzOp{2, 0x31, 1, 0, 5, 0}, fuzzOp{5, 1, 1, 0, 0, 0},
		fuzzOp{10, 0xa1, 0, 2, 0, 1}, fuzzOp{3, 1, 1, 0, 0, 0}, fuzzOp{4, 1, 0, 0, 1, 0},
		fuzzOp{7, 0, 0, 0, 0, 0}, fuzzOp{10, 0xa1, 0, 2, 0, 1}, fuzzOp{2, 0x11, 0, 0x80, 1, 0}))
	// Ownership transfers and mismatched unmap arguments.
	f.Add(fuzzSeq(create, fuzzOp{10, 0x01, 0, 5, 3, 0}, fuzzOp{12, 0, 0, 0, 0, 0},
		fuzzOp{12, 0, 0, 0, 0, 0}, fuzzOp{12, 0, 0, 2, 0, 0}, fuzzOp{12, 0, 0, 1, 0, 0},
		fuzzOp{11, 0, 0, 1, 0, 0}, fuzzOp{11, 0, 0, 2, 0, 0}, fuzzOp{11, 0, 0, 0, 0, 0}))
	// A short flush queue drains on its limit; a short timeout on Tick.
	f.Add(fuzzSeq(create, fuzzOp{9, 0, 1, 2, 0, 0}, fuzzOp{10, 1, 0, 1, 1, 0},
		fuzzOp{10, 1, 0, 1, 2, 0}, fuzzOp{10, 1, 0, 1, 3, 0}, fuzzOp{5, 0x81, 0, 0, 0, 0},
		fuzzOp{11, 1, 0, 0, 0, 0}, fuzzOp{11, 1, 0, 0, 0, 0}, fuzzOp{5, 0x81, 0, 0, 0, 0},
		fuzzOp{11, 1, 0, 0, 0, 0}, fuzzOp{6, 0, 250, 0, 0, 0}, fuzzOp{5, 0x81, 1, 0, 0, 0}))

	f.Fuzz(func(t *testing.T, in []byte) {
		l := layout.New(layout.Config{KASLR: true, Seed: 5, PhysBytes: fuzzIOMMUMemBytes})
		m, err := mem.New(mem.Config{Layout: l, CPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock()
		unit := iommu.New(iommu.Deferred, clk)
		real := &realSide{mem: m, clk: clk, unit: unit, mp: NewMapper(m, unit), bus: NewBus(m, unit), devs: map[iommu.DeviceID]bool{}}
		ref := &refMachine{t: t, l: l, timeout: iommu.DeferredTimeout, limit: iommu.DeferredQueueLimit,
			doms: map[iommu.DeviceID]*refDomain{}, maps: map[refKey]*refMapping{}, phys: map[layout.PFN]*[layout.PageSize]byte{}}
		npages := m.NumPages()
		var realHandles, refHandles []fuzzHandle
		pfnSet := map[layout.PFN]bool{}
		for i := 0; len(in) >= 6 && i < 256; i, in = i+1, in[6:] {
			o := fuzzOp{in[0], in[1], in[2], in[3], in[4], in[5]}
			pfnSet[o.pfn(npages)] = true
			got := runFuzzOp(real, o, &realHandles, npages, l)
			want := runFuzzOp(ref, o, &refHandles, npages, l)
			if got != want {
				t.Fatalf("step %d %+v:\n got %s\nwant %s", i, o, got, want)
			}
			if got, want := real.state(), ref.state(); got != want {
				t.Fatalf("step %d %+v: state\n%s\nreference\n%s", i, o, got, want)
			}
		}
		for _, d := range ref.doms {
			for _, e := range d.table {
				pfnSet[e.pfn] = true
			}
		}
		pfns := make([]layout.PFN, 0, len(pfnSet))
		for p := range pfnSet {
			pfns = append(pfns, p)
		}
		sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
		if got, want := real.finalState(pfns), ref.finalState(pfns); got != want {
			t.Fatalf("final state\n%s\nreference\n%s", got, want)
		}
		for dev, d := range ref.doms {
			rd, _ := unit.DomainOf(dev)
			for v, e := range d.table {
				if pfn, perm, ok := rd.Table().Walk(v); !ok || pfn != e.pfn || perm != e.perm {
					t.Fatalf("dev %d: Walk(%#x) = %d %v %v, reference %d %v", dev, uint64(v), pfn, perm, ok, e.pfn, e.perm)
				}
			}
		}
	})
}
