package dma

import (
	"strings"
	"testing"

	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
	"dmafault/internal/sim"
)

const nic iommu.DeviceID = 1

type world struct {
	mem  *mem.Memory
	unit *iommu.IOMMU
	mp   *Mapper
	bus  *Bus
	clk  *sim.Clock
	dom  *iommu.Domain
}

func newWorld(t *testing.T, mode iommu.Mode) *world {
	t.Helper()
	l := layout.New(layout.Config{KASLR: true, Seed: 5, PhysBytes: 32 << 20})
	m, err := mem.New(mem.Config{Layout: l, CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	u := iommu.New(mode, clk)
	dom, err := u.CreateDomain("nic", nic)
	if err != nil {
		t.Fatal(err)
	}
	return &world{mem: m, unit: u, mp: NewMapper(m, u), bus: NewBus(m, u), clk: clk, dom: dom}
}

func TestDirectionPerms(t *testing.T) {
	if ToDevice.Perm() != iommu.PermRead || FromDevice.Perm() != iommu.PermWrite || Bidirectional.Perm() != iommu.PermBidir {
		t.Error("direction -> permission mapping wrong")
	}
	for _, d := range []Direction{ToDevice, FromDevice, Bidirectional} {
		if !strings.HasPrefix(d.String(), "DMA_") {
			t.Errorf("String() = %q", d)
		}
	}
}

func TestMapSingleRoundTrip(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	kva, err := w.mem.Slab.Kmalloc(0, 1500, "rx_buf")
	if err != nil {
		t.Fatal(err)
	}
	va, err := w.mp.MapSingle(nic, kva, 1500, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	// The low 12 bits of the IOVA equal those of the KVA (§5.2.2 fn. 5).
	if uint64(va)&layout.PageMask != uint64(kva)&layout.PageMask {
		t.Errorf("IOVA offset %#x != KVA offset %#x", uint64(va)&layout.PageMask, uint64(kva)&layout.PageMask)
	}
	// Device writes land in kernel memory.
	payload := []byte("packet data")
	if err := w.bus.Write(nic, va, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := w.mem.Read(kva, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("device write not visible to CPU: %q", got)
	}
	// FromDevice mapping does not allow device reads.
	if err := w.bus.Read(nic, va, got); err == nil {
		t.Error("device read allowed through WRITE-only mapping")
	}
	if w.mp.Live() != 1 {
		t.Errorf("Live = %d", w.mp.Live())
	}
	if err := w.mp.UnmapSingle(nic, va, 1500, FromDevice); err != nil {
		t.Fatal(err)
	}
	if w.mp.Live() != 0 {
		t.Errorf("Live = %d after unmap", w.mp.Live())
	}
	if err := w.bus.Write(nic, va, payload); err == nil {
		t.Error("device write allowed after strict unmap")
	}
}

func TestWholePageExposure(t *testing.T) {
	// The heart of the sub-page vulnerability: mapping 64 bytes exposes the
	// surrounding page, including a neighbouring kmalloc object.
	w := newWorld(t, iommu.Strict)
	a, _ := w.mem.Slab.Kmalloc(0, 64, "io_buf")
	b, _ := w.mem.Slab.Kmalloc(0, 64, "secret")
	if err := w.mem.WriteU64(b, 0x5ec23e7); err != nil {
		t.Fatal(err)
	}
	va, err := w.mp.MapSingle(nic, a, 64, Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := w.mem.Layout().KVAToPFN(a)
	pb, _ := w.mem.Layout().KVAToPFN(b)
	if pa != pb {
		t.Skip("allocator placed objects on different pages (unexpected for fresh slab)")
	}
	// Device reads the secret through the mapping of the *other* object.
	secretIOVA := va + iommu.IOVA(b-a)
	got, err := w.bus.ReadU64(nic, secretIOVA)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x5ec23e7 {
		t.Errorf("leaked secret = %#x", got)
	}
	if err := w.mp.UnmapSingle(nic, va, 64, Bidirectional); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPageMapping(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	// A 3-page span from the page allocator.
	pfn, err := w.mem.Pages.AllocPages(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	kva := w.mem.Layout().PFNToKVA(pfn) + 100
	n := uint64(2*layout.PageSize + 500)
	va, err := w.mp.MapSingle(nic, kva, n, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := w.bus.Write(nic, va, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if err := w.mem.Read(kva, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
	// All three pages are marked mapped.
	for i := layout.PFN(0); i < 3; i++ {
		pi, _ := w.mem.Page(pfn + i)
		if !pi.DMAMapped() || !pi.DMAWritable {
			t.Errorf("page %d not marked mapped/writable", i)
		}
	}
	if err := w.mp.UnmapSingle(nic, va, n, FromDevice); err != nil {
		t.Fatal(err)
	}
	for i := layout.PFN(0); i < 3; i++ {
		pi, _ := w.mem.Page(pfn + i)
		if pi.DMAMapped() {
			t.Errorf("page %d still marked after unmap", i)
		}
	}
}

func TestMapErrors(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	kva, _ := w.mem.Slab.Kmalloc(0, 64, "t")
	if _, err := w.mp.MapSingle(nic, kva, 0, ToDevice); err == nil {
		t.Error("zero-length map accepted")
	}
	if _, err := w.mp.MapSingle(nic, layout.VmallocStart, 64, ToDevice); err == nil {
		t.Error("non-direct-map KVA accepted")
	}
	if _, err := w.mp.MapSingle(iommu.DeviceID(9), kva, 64, ToDevice); err == nil {
		t.Error("unattached device accepted")
	}
	end := w.mem.Layout().PFNToKVA(layout.PFN(w.mem.NumPages()-1)) + layout.PageSize - 8
	if _, err := w.mp.MapSingle(nic, end, 64, ToDevice); err == nil {
		t.Error("map straddling end of memory accepted")
	}
}

func TestUnmapErrors(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	kva, _ := w.mem.Slab.Kmalloc(0, 64, "t")
	va, err := w.mp.MapSingle(nic, kva, 64, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mp.UnmapSingle(nic, va, 128, ToDevice); err == nil {
		t.Error("unmap with wrong length accepted")
	}
	if err := w.mp.UnmapSingle(nic, va, 64, FromDevice); err == nil {
		t.Error("unmap with wrong direction accepted")
	}
	if err := w.mp.UnmapSingle(nic, va+iommu.IOVA(layout.PageSize), 64, ToDevice); err == nil {
		t.Error("unmap of unknown IOVA accepted")
	}
	if err := w.mp.UnmapSingle(nic, va, 64, ToDevice); err != nil {
		t.Fatal(err)
	}
	if err := w.mp.UnmapSingle(nic, va, 64, ToDevice); err == nil {
		t.Error("double unmap accepted")
	}
}

func TestMapPage(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	pfn, _ := w.mem.Pages.AllocPages(0, 0)
	va, err := w.mp.MapPage(nic, pfn, 128, 256, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	kva, n, dir, ok := w.mp.MappingAt(nic, va)
	if !ok || kva != w.mem.Layout().PFNToKVA(pfn)+128 || n != 256 || dir != ToDevice {
		t.Errorf("MappingAt = %#x, %d, %v, %v", uint64(kva), n, dir, ok)
	}
	if _, err := w.mp.MapPage(nic, pfn, layout.PageSize, 1, ToDevice); err == nil {
		t.Error("offset beyond page accepted")
	}
	if err := w.mp.UnmapSingle(nic, va, 256, ToDevice); err != nil {
		t.Fatal(err)
	}
}

func TestTypeCDoubleMappingOfPage(t *testing.T) {
	// Two buffers on one page mapped separately: the page stays device-
	// accessible until BOTH are unmapped — type (c).
	w := newWorld(t, iommu.Strict)
	a, err := w.mem.Frag.Alloc(0, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.mem.Frag.Alloc(0, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := w.mem.Layout().KVAToPFN(a)
	pb, _ := w.mem.Layout().KVAToPFN(b)
	if pa != pb {
		// Carve until a shared page shows up (deterministic: 2 KiB halves).
		a, b = b, a
		pa = pb
	}
	va, err := w.mp.MapSingle(nic, a, 2048, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := w.mp.MapSingle(nic, b, 2048, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	pi, _ := w.mem.Page(pa)
	if pi.DMAMapCount < 1 {
		t.Error("page not marked mapped")
	}
	iovas := w.dom.IOVAsFor(pa)
	if len(iovas) < 1 {
		t.Errorf("IOVAsFor = %v", iovas)
	}
	if err := w.mp.UnmapSingle(nic, va, 2048, FromDevice); err != nil {
		t.Fatal(err)
	}
	// Page remains device-writable through the second mapping if the two
	// buffers share a frame.
	if pa == pb {
		if !pi.DMAMapped() {
			t.Error("page lost mapped state while second mapping lives")
		}
	}
	if err := w.mp.UnmapSingle(nic, vb, 2048, FromDevice); err != nil {
		t.Fatal(err)
	}
}

func TestSGMapUnmap(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	var segs []Segment
	for i := 0; i < 3; i++ {
		kva, err := w.mem.Slab.Kmalloc(0, 1024, "sg")
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, Segment{KVA: kva, Len: 1024})
	}
	sg, err := w.mp.MapSG(nic, segs, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.IOVAs) != 3 {
		t.Fatalf("IOVAs = %d", len(sg.IOVAs))
	}
	if w.mp.Live() != 3 {
		t.Errorf("Live = %d", w.mp.Live())
	}
	// Fill segment 1 via CPU, read via device.
	if err := w.mem.WriteU64(segs[1].KVA, 42); err != nil {
		t.Fatal(err)
	}
	v, err := w.bus.ReadU64(nic, sg.IOVAs[1])
	if err != nil || v != 42 {
		t.Fatalf("sg read = %d, %v", v, err)
	}
	if err := w.mp.UnmapSG(sg); err != nil {
		t.Fatal(err)
	}
	if w.mp.Live() != 0 {
		t.Errorf("Live = %d after UnmapSG", w.mp.Live())
	}
	if _, err := w.mp.MapSG(nic, nil, ToDevice); err == nil {
		t.Error("empty sg list accepted")
	}
}

func TestSGMapRollsBackOnFailure(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	good, _ := w.mem.Slab.Kmalloc(0, 512, "ok")
	segs := []Segment{{KVA: good, Len: 512}, {KVA: layout.VmallocStart, Len: 64}}
	if _, err := w.mp.MapSG(nic, segs, ToDevice); err == nil {
		t.Fatal("bad sg list accepted")
	}
	if w.mp.Live() != 0 {
		t.Errorf("rollback incomplete: Live = %d", w.mp.Live())
	}
}

type countingHook struct{ maps, unmaps int }

func (c *countingHook) OnMap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction, va iommu.IOVA) {
	c.maps++
}
func (c *countingHook) OnUnmap(dev iommu.DeviceID, kva layout.Addr, n uint64, dir Direction, va iommu.IOVA) {
	c.unmaps++
}

func TestHooksFire(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	h := &countingHook{}
	w.mp.AddHook(h)
	kva, _ := w.mem.Slab.Kmalloc(0, 64, "t")
	va, err := w.mp.MapSingle(nic, kva, 64, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mp.UnmapSingle(nic, va, 64, ToDevice); err != nil {
		t.Fatal(err)
	}
	if h.maps != 1 || h.unmaps != 1 {
		t.Errorf("hook counts: %d maps, %d unmaps", h.maps, h.unmaps)
	}
	st := w.mp.Stats()
	if st.MapSingles != 1 || st.Unmaps != 1 || st.PagesMapped != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestDeferredWindowThroughBus(t *testing.T) {
	// End-to-end Fig. 6: device keeps writing after dma_unmap in deferred
	// mode, until the flush timer fires.
	w := newWorld(t, iommu.Deferred)
	kva, _ := w.mem.Slab.Kmalloc(0, 2048, "rx")
	va, err := w.mp.MapSingle(nic, kva, 2048, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.bus.Write(nic, va, []byte{1}); err != nil { // prime IOTLB
		t.Fatal(err)
	}
	if err := w.mp.UnmapSingle(nic, va, 2048, FromDevice); err != nil {
		t.Fatal(err)
	}
	if err := w.bus.Write(nic, va, []byte{2}); err != nil {
		t.Fatalf("stale write blocked during deferred window: %v", err)
	}
	w.clk.Advance(iommu.DeferredTimeout + 1)
	if err := w.bus.Write(nic, va, []byte{3}); err == nil {
		t.Error("stale write allowed after deferred flush")
	}
	var b [1]byte
	if err := w.mem.Read(kva, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 2 {
		t.Errorf("memory byte = %d, want 2 (last successful stale write)", b[0])
	}
}

func TestBusProbe(t *testing.T) {
	w := newWorld(t, iommu.Strict)
	kva, _ := w.mem.Slab.Kmalloc(0, 64, "t")
	va, err := w.mp.MapSingle(nic, kva, 64, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if !w.bus.Probe(nic, va, false) {
		t.Error("probe read failed on READ mapping")
	}
	if w.bus.Probe(nic, va, true) {
		t.Error("probe write succeeded on READ mapping")
	}
	if err := w.mp.UnmapSingle(nic, va, 64, ToDevice); err != nil {
		t.Fatal(err)
	}
}

// TestReservedRingMapsWithoutGrowth maps an HW-LRO-shaped ring (order-4
// buffers, 16 IOVA pages each) through a fresh Mapper that was told the
// ring's span first. The index and the record slice are then allocated
// once, so mapping a ring of 128 buffers allocates exactly as often as a
// ring of 8, where growing them buffer by buffer would add a doubling per
// factor of two. Each run tears the ring down through the domain, so the
// next run's fresh Mapper sees the same warm page table and recycled IOVA
// space.
func TestReservedRingMapsWithoutGrowth(t *testing.T) {
	const order = 4
	const bufBytes = layout.PageSize << order
	ringAllocs := func(ring int) float64 {
		w := newWorld(t, iommu.Strict)
		bufs := make([]layout.Addr, ring)
		for i := range bufs {
			pfn, err := w.mem.Pages.AllocPages(0, order)
			if err != nil {
				t.Fatal(err)
			}
			bufs[i] = w.mem.Layout().PFNToKVA(pfn)
		}
		vas := make([]iommu.IOVA, ring)
		return testing.AllocsPerRun(3, func() {
			mp := NewMapper(w.mem, w.unit)
			mp.Reserve(nic, ring, uint64(ring)*(bufBytes/layout.PageSize))
			for i, kva := range bufs {
				va, err := mp.MapSingle(nic, kva, bufBytes, FromDevice)
				if err != nil {
					t.Fatal(err)
				}
				vas[i] = va
			}
			if mp.Live() != ring {
				t.Fatalf("%d live mappings, want %d", mp.Live(), ring)
			}
			for _, va := range vas {
				for p := range iommu.IOVA(bufBytes / layout.PageSize) {
					if err := w.dom.Unmap(va + p*layout.PageSize); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.dom.FreeIOVA(va, bufBytes); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if small, large := ringAllocs(8), ringAllocs(128); large != small {
		t.Errorf("mapping a reserved ring allocated %v times for 128 buffers and %v for 8, want equal", large, small)
	}
}
