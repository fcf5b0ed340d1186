package iommu

import (
	"errors"
	"slices"
	"testing"

	"dmafault/internal/layout"
	"dmafault/internal/sim"
)

const (
	nicDev      DeviceID = 1
	firewireDev DeviceID = 2
)

func newUnit(t *testing.T, mode Mode) (*IOMMU, *Domain, *sim.Clock) {
	t.Helper()
	clk := sim.NewClock()
	u := New(mode, clk)
	d, err := u.CreateDomain("nic", nicDev)
	if err != nil {
		t.Fatal(err)
	}
	return u, d, clk
}

func TestDomainAttachment(t *testing.T) {
	u, d, _ := newUnit(t, Strict)
	if _, err := u.CreateDomain("again", nicDev); err == nil {
		t.Error("double attach via CreateDomain accepted")
	}
	if err := u.AttachDevice(firewireDev, d); err != nil {
		t.Fatal(err)
	}
	if err := u.AttachDevice(firewireDev, d); err == nil {
		t.Error("double AttachDevice accepted")
	}
	got, err := u.DomainOf(firewireDev)
	if err != nil || got != d {
		t.Error("shared domain lookup failed")
	}
	if _, err := u.DomainOf(DeviceID(99)); err == nil {
		t.Error("unattached device resolved")
	}
	if d.Name() != "nic" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestTranslatePermissions(t *testing.T) {
	u, _, _ := newUnit(t, Strict)
	v := IOVA(IOVABase)
	if err := u.Map(nicDev, v, 100, PermWrite); err != nil {
		t.Fatal(err)
	}
	if pfn, err := u.Translate(nicDev, v+16, true); err != nil || pfn != 100 {
		t.Fatalf("write translate = %d, %v", pfn, err)
	}
	// WRITE does not grant READ (§2.2).
	_, err := u.Translate(nicDev, v, false)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("read through WRITE mapping: err = %v, want Fault", err)
	}
	if f.Perm != PermWrite || f.Write {
		t.Errorf("fault details: %+v", f)
	}
	// Unmapped IOVA faults with PermNone.
	_, err = u.Translate(nicDev, v+layout.PageSize, false)
	if !errors.As(err, &f) || f.Perm != PermNone {
		t.Errorf("unmapped fault = %v", err)
	}
	if u.Stats().Faults != 2 {
		t.Errorf("Faults = %d", u.Stats().Faults)
	}
}

func TestSharedDomainSharesView(t *testing.T) {
	// §6: the FireWire attacker shares the NIC's page table and can access
	// everything the NIC can.
	u, d, _ := newUnit(t, Strict)
	if err := u.AttachDevice(firewireDev, d); err != nil {
		t.Fatal(err)
	}
	v := IOVA(IOVABase)
	if err := u.Map(nicDev, v, 55, PermBidir); err != nil {
		t.Fatal(err)
	}
	pfn, err := u.Translate(firewireDev, v, true)
	if err != nil || pfn != 55 {
		t.Fatalf("firewire access through shared domain = %d, %v", pfn, err)
	}
}

func TestStrictUnmapRevokesImmediately(t *testing.T) {
	u, _, clk := newUnit(t, Strict)
	v := IOVA(IOVABase)
	if err := u.Map(nicDev, v, 7, PermBidir); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(nicDev, v, true); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := u.Unmap(nicDev, v); err != nil {
		t.Fatal(err)
	}
	if clk.Now()-before != InvalidationCost {
		t.Errorf("strict unmap cost %d ns, want %d", clk.Now()-before, InvalidationCost)
	}
	if _, err := u.Translate(nicDev, v, true); err == nil {
		t.Error("access succeeded after strict unmap")
	}
	if u.Stats().StaleHits != 0 {
		t.Error("strict mode recorded stale hits")
	}
}

func TestDeferredWindowAllowsStaleAccess(t *testing.T) {
	// Fig. 6: in deferred mode, between unmap and the periodic flush the
	// device still translates through the stale IOTLB entry.
	u, d, clk := newUnit(t, Deferred)
	v := IOVA(IOVABase)
	if err := u.Map(nicDev, v, 7, PermBidir); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(nicDev, v, true); err != nil { // prime the IOTLB
		t.Fatal(err)
	}
	if err := u.Unmap(nicDev, v); err != nil {
		t.Fatal(err)
	}
	if d.PendingInvalidations() != 1 {
		t.Fatalf("PendingInvalidations = %d", d.PendingInvalidations())
	}
	// Still accessible: the stale window.
	pfn, err := u.Translate(nicDev, v, true)
	if err != nil || pfn != 7 {
		t.Fatalf("stale access = %d, %v", pfn, err)
	}
	if u.Stats().StaleHits != 1 {
		t.Errorf("StaleHits = %d", u.Stats().StaleHits)
	}
	// After the 10 ms timeout the periodic flush closes the window.
	clk.Advance(DeferredTimeout + 1)
	if _, err := u.Translate(nicDev, v, true); err == nil {
		t.Error("stale access succeeded after deferred timeout")
	}
	if u.Stats().GlobalFlushes != 1 {
		t.Errorf("GlobalFlushes = %d", u.Stats().GlobalFlushes)
	}
}

func TestDeferredUnprimedTLBFaults(t *testing.T) {
	// If the device never translated the IOVA before the unmap, there is no
	// stale entry and deferred mode still faults.
	u, _, _ := newUnit(t, Deferred)
	v := IOVA(IOVABase)
	if err := u.Map(nicDev, v, 7, PermBidir); err != nil {
		t.Fatal(err)
	}
	if err := u.Unmap(nicDev, v); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(nicDev, v, true); err == nil {
		t.Error("access succeeded without stale entry")
	}
}

func TestDeferredQueueLimitFlush(t *testing.T) {
	u, d, _ := newUnit(t, Deferred)
	for i := 0; i < DeferredQueueLimit; i++ {
		v := IOVA(IOVABase) + IOVA(i*layout.PageSize)
		if err := u.Map(nicDev, v, layout.PFN(i+1), PermRead); err != nil {
			t.Fatal(err)
		}
		if err := u.Unmap(nicDev, v); err != nil {
			t.Fatal(err)
		}
	}
	if d.PendingInvalidations() != 0 {
		t.Errorf("queue not flushed at limit: %d pending", d.PendingInvalidations())
	}
	if u.Stats().GlobalFlushes != 1 {
		t.Errorf("GlobalFlushes = %d", u.Stats().GlobalFlushes)
	}
}

func TestSetModeFlushesFirst(t *testing.T) {
	u, d, _ := newUnit(t, Deferred)
	v := IOVA(IOVABase)
	if err := u.Map(nicDev, v, 7, PermBidir); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(nicDev, v, true); err != nil {
		t.Fatal(err)
	}
	if err := u.Unmap(nicDev, v); err != nil {
		t.Fatal(err)
	}
	u.SetMode(Strict)
	if d.PendingInvalidations() != 0 {
		t.Error("mode switch left pending invalidations")
	}
	if _, err := u.Translate(nicDev, v, true); err == nil {
		t.Error("stale access after mode switch")
	}
	if u.Mode() != Strict {
		t.Error("mode not switched")
	}
}

func TestReverseMapTracksMultipleIOVAs(t *testing.T) {
	// Type (c): one frame mapped by two IOVAs.
	u, d, _ := newUnit(t, Strict)
	v1, v2 := IOVA(IOVABase), IOVA(IOVABase+layout.PageSize)
	if err := u.Map(nicDev, v1, 33, PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := u.Map(nicDev, v2, 33, PermWrite); err != nil {
		t.Fatal(err)
	}
	list := d.IOVAsFor(33)
	if len(list) != 2 || list[0] != v1 || list[1] != v2 {
		t.Fatalf("IOVAsFor = %v", list)
	}
	if err := u.Unmap(nicDev, v1); err != nil {
		t.Fatal(err)
	}
	// The frame is still reachable through the second IOVA even in strict
	// mode — §5.2.2 path (iii).
	if pfn, err := u.Translate(nicDev, v2, true); err != nil || pfn != 33 {
		t.Fatalf("second-IOVA access = %d, %v", pfn, err)
	}
	if got := d.IOVAsFor(33); len(got) != 1 || got[0] != v2 {
		t.Fatalf("IOVAsFor after unmap = %v", got)
	}
	if err := u.Unmap(nicDev, v2); err != nil {
		t.Fatal(err)
	}
	if got := d.IOVAsFor(33); len(got) != 0 {
		t.Fatalf("IOVAsFor after full unmap = %v", got)
	}

	// IOVAs on both sides of a 2 MiB and a 1 GiB boundary sit in different
	// leaf and directory tables; mapped out of order, they are listed in
	// ascending order, and the walk visits every present entry once.
	const mib2, gib = 2 << 20, 1 << 30
	want := []IOVA{
		IOVABase + mib2 - layout.PageSize, IOVABase + mib2,
		IOVABase + gib - layout.PageSize, IOVABase + gib,
	}
	for _, i := range []int{3, 0, 2, 1} {
		if err := u.Map(nicDev, want[i], 33, PermRead); err != nil {
			t.Fatal(err)
		}
		if err := u.Map(nicDev, want[i]+2*layout.PageSize, 34, PermRead); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.IOVAsFor(33); !slices.Equal(got, want) {
		t.Fatalf("IOVAsFor across table boundaries = %#x, want %#x", got, want)
	}
	walked := uint64(0)
	d.table.each(func(IOVA, pte) { walked++ })
	if walked != d.table.Entries() || walked != 2*uint64(len(want)) {
		t.Fatalf("walk visited %d entries, table holds %d", walked, d.table.Entries())
	}
}

func TestIOVAAllocator(t *testing.T) {
	_, d, _ := newUnit(t, Strict)
	a, err := d.AllocIOVA(100)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(a)&layout.PageMask != 0 {
		t.Errorf("IOVA %#x not page aligned", uint64(a))
	}
	b, err := d.AllocIOVA(layout.PageSize + 1)
	if err != nil {
		t.Fatal(err)
	}
	if b != a+layout.PageSize {
		t.Errorf("second IOVA %#x, want %#x", uint64(b), uint64(a+layout.PageSize))
	}
	if err := d.FreeIOVA(a, 100); err != nil {
		t.Fatal(err)
	}
	c, err := d.AllocIOVA(50)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("freed IOVA not reused: got %#x, want %#x", uint64(c), uint64(a))
	}
	if _, err := d.AllocIOVA(0); err == nil {
		t.Error("zero-length allocation accepted")
	}
	if err := d.FreeIOVA(IOVA(123), 10); err == nil {
		t.Error("bogus free accepted")
	}
}

func TestUnmapErrors(t *testing.T) {
	u, _, _ := newUnit(t, Strict)
	if err := u.Unmap(nicDev, IOVABase); err == nil {
		t.Error("unmap of unmapped IOVA accepted")
	}
	if err := u.Unmap(DeviceID(9), IOVABase); err == nil {
		t.Error("unmap on unattached device accepted")
	}
	if err := u.Map(DeviceID(9), IOVABase, 1, PermRead); err == nil {
		t.Error("map on unattached device accepted")
	}
	if _, err := u.Translate(DeviceID(9), IOVABase, false); err == nil {
		t.Error("translate on unattached device accepted")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Dev: 3, Addr: 0x1000, Write: true, Perm: PermRead}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
	g := &Fault{Dev: 3, Addr: 0x1000, Write: false, Perm: PermNone}
	if g.Error() == "" {
		t.Error("empty fault message")
	}
}
