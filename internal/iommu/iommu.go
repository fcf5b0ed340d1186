// Package iommu simulates an input–output memory management unit in the
// style of Intel VT-d: per-device protection domains, a 4-level I/O page
// table with page-granularity READ/WRITE/BIDIRECTIONAL rights, an IOTLB, and
// the two invalidation policies Linux offers (§5.2.1 of the paper):
//
//   - strict: the IOTLB entry is invalidated synchronously on every unmap,
//     at a cost of ≈2000 cycles per invalidation;
//   - deferred (the Linux default): unmapped IOVAs are queued and the whole
//     IOTLB is flushed globally when the queue fills or a 10 ms timeout
//     expires — leaving a window during which the device still translates,
//     and therefore still accesses, pages the OS believes are revoked.
//
// The package enforces exactly what real IOMMU hardware enforces — and
// nothing more. In particular, protection is page-granular, which is the
// sub-page vulnerability the whole paper is about.
package iommu

import (
	"fmt"

	"dmafault/internal/layout"
	"dmafault/internal/sim"
)

// DeviceID identifies a DMA requester (a PCI BDF in real hardware).
type DeviceID uint16

// Mode selects the invalidation policy.
type Mode int

const (
	// Deferred batches IOTLB invalidations (Linux default, §5.2.1).
	Deferred Mode = iota
	// Strict invalidates the IOTLB on every unmap.
	Strict
)

// String names the mode as Linux's intel_iommu= option does.
func (m Mode) String() string {
	if m == Strict {
		return "strict"
	}
	return "deferred"
}

// Invalidation policy constants per §5.2.1.
const (
	// InvalidationCost is the virtual-time cost of one IOTLB invalidation
	// (≈2000 cycles).
	InvalidationCost = sim.Nanos(2000 / sim.CPUFrequencyGHz)
	// DeferredTimeout is how long an unmapped entry may linger before the
	// periodic global flush ("may be as high as 10 milliseconds").
	DeferredTimeout = 10 * sim.Millisecond
	// DeferredQueueLimit forces a global flush when this many unmaps are
	// pending (Linux's flush-queue depth).
	DeferredQueueLimit = 256
)

// Stats aggregates IOMMU activity.
type Stats struct {
	Maps, Unmaps, Translations, Faults uint64
	StrictInvalidations                uint64
	GlobalFlushes                      uint64
	InvalidationTime                   sim.Nanos
	StaleHits                          uint64 // translations served from a stale IOTLB entry
}

// Fault describes a blocked DMA access.
type Fault struct {
	Dev   DeviceID
	Addr  IOVA
	Write bool
	Perm  Perm // permissions found (PermNone if untranslated)
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	if f.Perm == PermNone {
		return fmt.Sprintf("iommu: fault: device %d %s at IOVA %#x: not present", f.Dev, kind, uint64(f.Addr))
	}
	return fmt.Sprintf("iommu: fault: device %d %s at IOVA %#x: permission %s", f.Dev, kind, uint64(f.Addr), f.Perm)
}

// Domain is one protection domain: a page table, an IOTLB, and an IOVA
// allocator. Several devices may share a domain (the paper's FireWire
// attacker shares the NIC's page table, §6).
type Domain struct {
	unit  *IOMMU
	name  string
	table *PageTable
	tlb   *IOTLB
	iova  *iovaAllocator
	// flushQueue holds IOVAs unmapped but not yet invalidated (deferred).
	flushQueue    []IOVA
	flushDeadline sim.Nanos
	// pendingIOVA holds address ranges whose reuse must wait for the next
	// flush: recycling them earlier would let a stale IOTLB entry alias a
	// fresh mapping. Linux's IOVA allocator defers frees the same way.
	pendingIOVA []pendingRange
}

type pendingRange struct {
	v IOVA
	n uint64
}

// IOMMU is the unit: domains, the invalidation policy, and a clock.
type IOMMU struct {
	mode  Mode
	clock *sim.Clock
	// domains is indexed by DeviceID (nil: not attached). Requester IDs
	// are small — the attacker NICs count up from 1, the FireWire device
	// is 9 — so a slice beats a hash on every translation.
	domains []*Domain
	all     []*Domain
	stats   Stats
	// flushTimeout and flushQueueLimit are the deferred-mode batching
	// parameters (defaults: DeferredTimeout, DeferredQueueLimit). They are
	// the D1 ablation knobs: smaller values shrink the attack window and
	// raise the per-unmap cost.
	flushTimeout    sim.Nanos
	flushQueueLimit int
	// OnFault, if set, observes every blocked translation (tracing; a real
	// IOMMU raises a fault interrupt the OS logs).
	OnFault func(*Fault)
	// Inject, if set, is the fault-injection hook consulted on every
	// translation: it may stall the device (advancing the virtual clock,
	// which can carry a deferred-flush deadline past its window) or force a
	// spurious not-present fault. internal/faultinject implements it; the
	// interface lives here so this package stays dependency-free.
	Inject Injector
}

// Injector is the translation-time fault-injection hook.
type Injector interface {
	InjectTranslate(dev DeviceID, v IOVA, write bool) (stall sim.Nanos, spurious bool)
}

// New builds an IOMMU in the given mode using the shared virtual clock.
func New(mode Mode, clock *sim.Clock) *IOMMU {
	return &IOMMU{
		mode:            mode,
		clock:           clock,
		flushTimeout:    DeferredTimeout,
		flushQueueLimit: DeferredQueueLimit,
	}
}

// SetFlushPolicy overrides the deferred-mode batching parameters (pending
// work is flushed first so the change is clean).
func (u *IOMMU) SetFlushPolicy(timeout sim.Nanos, queueLimit int) {
	u.FlushSync()
	if timeout > 0 {
		u.flushTimeout = timeout
	}
	if queueLimit > 0 {
		u.flushQueueLimit = queueLimit
	}
}

// Mode returns the invalidation policy.
func (u *IOMMU) Mode() Mode { return u.mode }

// SetMode switches the invalidation policy (boot-time option in Linux; we
// allow switching between experiments after a sync flush).
func (u *IOMMU) SetMode(m Mode) {
	u.FlushSync()
	u.mode = m
}

// Stats returns a copy of the counters.
func (u *IOMMU) Stats() Stats { return u.stats }

// CreateDomain allocates a fresh protection domain and attaches the device.
func (u *IOMMU) CreateDomain(name string, dev DeviceID) (*Domain, error) {
	d := &Domain{
		unit:  u,
		name:  name,
		table: &PageTable{},
		tlb:   NewIOTLB(0),
		iova:  newIOVAAllocator(),
	}
	if err := u.AttachDevice(dev, d); err != nil {
		return nil, err
	}
	u.all = append(u.all, d)
	return d, nil
}

// AttachDevice attaches an additional device to an existing domain, giving it
// the exact same view of memory (the FireWire-shares-the-NIC's-table setup
// of §6).
func (u *IOMMU) AttachDevice(dev DeviceID, d *Domain) error {
	if int(dev) < len(u.domains) && u.domains[dev] != nil {
		return fmt.Errorf("iommu: device %d already attached", dev)
	}
	if int(dev) >= len(u.domains) {
		u.domains = append(u.domains, make([]*Domain, int(dev)+1-len(u.domains))...)
	}
	u.domains[dev] = d
	return nil
}

// DomainOf returns the domain a device is attached to.
func (u *IOMMU) DomainOf(dev DeviceID) (*Domain, error) {
	if int(dev) < len(u.domains) && u.domains[dev] != nil {
		return u.domains[dev], nil
	}
	return nil, fmt.Errorf("iommu: device %d not attached to any domain", dev)
}

// Map installs a translation in the device's domain and returns nothing the
// hardware wouldn't: the caller (the DMA API) chose the IOVA.
func (u *IOMMU) Map(dev DeviceID, v IOVA, pfn layout.PFN, perm Perm) error {
	d, err := u.DomainOf(dev)
	if err != nil {
		return err
	}
	return d.Map(v, pfn, perm)
}

// Map is IOMMU.Map for a caller that already holds the domain: the DMA API
// looks a device's domain up once per buffer, not once per page.
func (d *Domain) Map(v IOVA, pfn layout.PFN, perm Perm) error {
	if err := d.table.Map(v, pfn, perm); err != nil {
		return err
	}
	d.unit.stats.Maps++
	return nil
}

// Unmap removes a translation. Under strict mode the IOTLB entry dies with
// it (2000-cycle cost); under deferred mode the entry is only queued, and the
// device retains access until the next global flush — the Fig. 6 window.
func (u *IOMMU) Unmap(dev DeviceID, v IOVA) error {
	d, err := u.DomainOf(dev)
	if err != nil {
		return err
	}
	return d.Unmap(v)
}

// Unmap is IOMMU.Unmap for a caller that already holds the domain.
func (d *Domain) Unmap(v IOVA) error {
	u := d.unit
	if _, _, err := d.table.Unmap(v); err != nil {
		return err
	}
	u.stats.Unmaps++
	switch u.mode {
	case Strict:
		d.tlb.Invalidate(v)
		u.clock.Advance(InvalidationCost)
		u.stats.StrictInvalidations++
		u.stats.InvalidationTime += InvalidationCost
	case Deferred:
		if len(d.flushQueue) == 0 {
			d.flushDeadline = u.clock.Now() + u.flushTimeout
		}
		d.flushQueue = append(d.flushQueue, key(v))
		if len(d.flushQueue) >= u.flushQueueLimit {
			u.flushDomain(d)
		}
	}
	return nil
}

// ReleaseIOVA returns address space to the domain's allocator — immediately
// under strict mode, or after the next global flush under deferred mode (so
// a stale IOTLB entry can never alias a recycled IOVA). In both modes a
// range that is not exactly one live allocation is refused at once.
func (u *IOMMU) ReleaseIOVA(dev DeviceID, v IOVA, n uint64) error {
	d, err := u.DomainOf(dev)
	if err != nil {
		return err
	}
	return d.ReleaseIOVA(v, n)
}

// ReleaseIOVA is IOMMU.ReleaseIOVA for a caller that already holds the
// domain.
func (d *Domain) ReleaseIOVA(v IOVA, n uint64) error {
	if d.unit.mode != Deferred {
		return d.iova.free(v, n)
	}
	err := d.iova.release(v, n)
	if err == nil {
		d.pendingIOVA = append(d.pendingIOVA, pendingRange{v, n})
	}
	return err
}

// flushDomain performs the periodic global invalidation of deferred mode.
func (u *IOMMU) flushDomain(d *Domain) {
	if len(d.flushQueue) == 0 && len(d.pendingIOVA) == 0 {
		return
	}
	d.tlb.FlushAll()
	d.flushQueue = d.flushQueue[:0]
	for _, p := range d.pendingIOVA {
		d.iova.recycle(p.v, p.n)
	}
	d.pendingIOVA = d.pendingIOVA[:0]
	u.clock.Advance(InvalidationCost) // one global invalidation command
	u.stats.InvalidationTime += InvalidationCost
	u.stats.GlobalFlushes++
}

// Tick runs the deferred-flush timer against the current virtual time. The
// simulation calls it whenever time advances.
func (u *IOMMU) Tick() {
	if u.mode != Deferred {
		return
	}
	now := u.clock.Now()
	for _, d := range u.all {
		if len(d.flushQueue) > 0 && now >= d.flushDeadline {
			u.flushDomain(d)
		}
	}
}

// FlushSync forces all pending invalidations out, in every domain.
func (u *IOMMU) FlushSync() {
	for _, d := range u.all {
		u.flushDomain(d)
	}
}

// Translate performs a device access check: IOTLB first, then the page
// table. A hit in the IOTLB is authoritative to the hardware even if the
// page table entry has since been removed — that is the stale-entry behaviour
// the deferred mode exposes. Faults return *Fault.
func (u *IOMMU) Translate(dev DeviceID, v IOVA, write bool) (layout.PFN, error) {
	u.Tick()
	d, err := u.DomainOf(dev)
	if err != nil {
		return 0, err
	}
	u.stats.Translations++
	if u.Inject != nil {
		stall, spurious := u.Inject.InjectTranslate(dev, v, write)
		if stall > 0 {
			// The device is stalled, not the OS: deferred-flush deadlines
			// keep running, so re-check them after the delay.
			u.clock.Advance(stall)
			u.Tick()
		}
		if spurious {
			return 0, u.fault(&Fault{Dev: dev, Addr: v, Write: write, Perm: PermNone})
		}
	}
	if pfn, perm, ok := d.tlb.Lookup(v); ok {
		if !perm.Allows(write) {
			return 0, u.fault(&Fault{Dev: dev, Addr: v, Write: write, Perm: perm})
		}
		if _, _, present := d.table.Walk(v); !present {
			u.stats.StaleHits++
		}
		return pfn, nil
	}
	pfn, perm, ok := d.table.Walk(v)
	if !ok {
		return 0, u.fault(&Fault{Dev: dev, Addr: v, Write: write, Perm: PermNone})
	}
	d.tlb.Insert(v, pfn, perm)
	if !perm.Allows(write) {
		return 0, u.fault(&Fault{Dev: dev, Addr: v, Write: write, Perm: perm})
	}
	return pfn, nil
}

// fault counts and reports a blocked translation.
func (u *IOMMU) fault(f *Fault) *Fault {
	u.stats.Faults++
	if u.OnFault != nil {
		u.OnFault(f)
	}
	return f
}

// Domain accessors used by the DMA layer and by tests.

// Name returns the domain's label.
func (d *Domain) Name() string { return d.name }

// AllocIOVA reserves n page-aligned bytes of I/O virtual address space.
func (d *Domain) AllocIOVA(n uint64) (IOVA, error) { return d.iova.alloc(n) }

// FreeIOVA releases address space reserved by AllocIOVA.
func (d *Domain) FreeIOVA(v IOVA, n uint64) error { return d.iova.free(v, n) }

// IOVAsFor lists the live IOVA pages that map the frame in this domain,
// sorted. More than one element means a type (c) sub-page condition: the
// device can reach the frame through a second translation even after the
// first is unmapped and flushed (§5.2.2 path iii). It walks the page table:
// the query is rare, so no reverse map is kept on the map path.
func (d *Domain) IOVAsFor(pfn layout.PFN) []IOVA {
	var list []IOVA
	d.table.each(func(v IOVA, e pte) {
		if layout.PFN(e.pfn) == pfn {
			list = append(list, v)
		}
	})
	return list
}

// PendingInvalidations returns how many unmapped IOVAs still await a flush.
func (d *Domain) PendingInvalidations() int { return len(d.flushQueue) }

// TLB exposes the domain's IOTLB for stats and white-box tests.
func (d *Domain) TLB() *IOTLB { return d.tlb }

// Table exposes the domain's page table for white-box tests.
func (d *Domain) Table() *PageTable { return d.table }

// iovaAllocator hands out page-aligned IOVA ranges. Like Linux's allocator
// it reuses freed ranges (keeping IOVA space compact and making "the IOVA of
// the next buffer" predictable, which type (c) attacks rely on).
type iovaAllocator struct {
	next  IOVA
	freed map[uint64][]IOVA // size class (pages) -> freed ranges, LIFO
	// bits covers the pages of [IOVABase, next), 64 to an element. live
	// marks a page handed out and not yet released, head the first page of
	// each handed-out range: together they pin each live range's extent.
	bits []iovaBits
}

type iovaBits struct{ live, head uint64 }

// IOVABase is where device address space starts; above 4 GiB like Linux's
// default DMA window for 64-bit devices, and never 0 so that a nil IOVA is
// distinguishable. Every domain's allocator hands out a dense range from
// here, so a page's distance from IOVABase can index per-mapping state.
const IOVABase IOVA = 1 << 32

func newIOVAAllocator() *iovaAllocator {
	return &iovaAllocator{next: IOVABase, freed: make(map[uint64][]IOVA)}
}

func (a *iovaAllocator) alloc(n uint64) (IOVA, error) {
	if n == 0 {
		return 0, fmt.Errorf("iommu: zero-length IOVA allocation")
	}
	pages := layout.PageAlignUp(n) / layout.PageSize
	v := a.next
	if list := a.freed[pages]; len(list) > 0 {
		v = list[len(list)-1]
		a.freed[pages] = list[:len(list)-1]
	} else {
		// Checked before it is committed: release reads bits up to next.
		next := a.next + IOVA(pages*layout.PageSize)
		if pages == 0 || next < a.next || next>>48 != 0 {
			return 0, fmt.Errorf("iommu: IOVA space exhausted")
		}
		a.next = next
		if a.bits == nil {
			a.bits = make([]iovaBits, 0, 32) // 2048 pages: a NIC ring
		}
		for uint64(len(a.bits))*64 < pageIndex(a.next) {
			a.bits = append(a.bits, iovaBits{})
		}
	}
	a.mark(pageIndex(v), pageIndex(v)+pages, true)
	return v, nil
}

func (a *iovaAllocator) free(v IOVA, n uint64) error {
	err := a.release(v, n)
	if err == nil {
		a.recycle(v, n)
	}
	return err
}

// release checks that [v, v+n) is exactly one live range — a head page,
// then live pages that are not heads, up to a page that is free or the
// next range's head — and clears its bits. A refused release changes
// nothing.
func (a *iovaAllocator) release(v IOVA, n uint64) error {
	if v < IOVABase || uint64(v)&layout.PageMask != 0 {
		return fmt.Errorf("iommu: bad IOVA free %#x", uint64(v))
	}
	first, end, span := pageIndex(v), pageIndex(v+IOVA(layout.PageAlignUp(n))), pageIndex(a.next)
	ok := first < end && end <= span && (end == span || a.head(end) || !a.live(end))
	for p := first; ok && p < end; p++ {
		ok = a.live(p) && a.head(p) == (p == first)
	}
	if !ok {
		return fmt.Errorf("iommu: IOVA free %#x+%d matches no live allocation", uint64(v), n)
	}
	a.mark(first, end, false)
	return nil
}

// recycle hands a released range back to alloc.
func (a *iovaAllocator) recycle(v IOVA, n uint64) {
	pages := layout.PageAlignUp(n) / layout.PageSize
	a.freed[pages] = append(a.freed[pages], v)
}

// mark sets or clears the live bits of pages [first, end) and the head bit
// of first.
func (a *iovaAllocator) mark(first, end uint64, on bool) {
	for p := first; p < end; p++ {
		a.bits[p/64].live = setBit(a.bits[p/64].live, p%64, on)
	}
	a.bits[first/64].head = setBit(a.bits[first/64].head, first%64, on)
}

func (a *iovaAllocator) live(p uint64) bool { return a.bits[p/64].live>>(p%64)&1 != 0 }
func (a *iovaAllocator) head(p uint64) bool { return a.bits[p/64].head>>(p%64)&1 != 0 }

func setBit(w, i uint64, on bool) uint64 {
	if on {
		return w | 1<<i
	}
	return w &^ (1 << i)
}

// pageIndex is v's page number counted from IOVABase.
func pageIndex(v IOVA) uint64 { return uint64(v-IOVABase) >> layout.PageShift }
