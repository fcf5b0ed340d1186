package dkasan

import (
	"strings"
	"testing"

	"dmafault/internal/core"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
	"dmafault/internal/workload"
)

const nicDev iommu.DeviceID = 1

func newSanitizedSystem(t *testing.T) (*core.System, *Sanitizer) {
	t.Helper()
	dk := New()
	sys, err := core.New(core.WithSeed(51), core.WithIOMMUMode(iommu.Deferred), core.WithTracer(dk))
	if err != nil {
		t.Fatal(err)
	}
	dk.Attach(sys.Mem, sys.Mapper)
	return sys, dk
}

func TestAllocAfterMap(t *testing.T) {
	sys, dk := newSanitizedSystem(t)
	if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
		t.Fatal(err)
	}
	buf, err := sys.Mem.Slab.Kmalloc(0, 512, "nic_io_buf")
	if err != nil {
		t.Fatal(err)
	}
	va, err := sys.Mapper.MapSingle(nicDev, buf, 512, dma.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh same-class allocation lands on the mapped page.
	if _, err := sys.Mem.Slab.Kmalloc(0, 512, "sock_alloc_inode+0x4f/0x120"); err != nil {
		t.Fatal(err)
	}
	reports := dk.ReportsOf(AllocAfterMap)
	if len(reports) == 0 {
		t.Fatal("no alloc-after-map report")
	}
	r := reports[0]
	if r.Size != 512 || !r.Read || !r.Write || !strings.Contains(r.Site, "sock_alloc_inode") {
		t.Errorf("report = %+v", r)
	}
	if err := sys.Mapper.UnmapSingle(nicDev, va, 512, dma.Bidirectional); err != nil {
		t.Fatal(err)
	}
}

func TestMapAfterAlloc(t *testing.T) {
	sys, dk := newSanitizedSystem(t)
	if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
		t.Fatal(err)
	}
	// Allocate the bystander first, then map a co-located buffer.
	if _, err := sys.Mem.Slab.Kmalloc(0, 512, "load_elf_phdrs+0xbf/0x130"); err != nil {
		t.Fatal(err)
	}
	buf, _ := sys.Mem.Slab.Kmalloc(0, 512, "nic_io_buf")
	if _, err := sys.Mapper.MapSingle(nicDev, buf, 512, dma.FromDevice); err != nil {
		t.Fatal(err)
	}
	reports := dk.ReportsOf(MapAfterAlloc)
	found := false
	for _, r := range reports {
		if strings.Contains(r.Site, "load_elf_phdrs") && r.Write && !r.Read {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing map-after-alloc for bystander: %v", dk.Render())
	}
	// The mapped buffer itself must NOT be reported.
	for _, r := range reports {
		if strings.Contains(r.Site, "nic_io_buf") {
			t.Error("mapping's own buffer reported as foreign")
		}
	}
}

func TestAccessAfterMap(t *testing.T) {
	sys, dk := newSanitizedSystem(t)
	if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
		t.Fatal(err)
	}
	buf, _ := sys.Mem.Slab.Kmalloc(0, 1024, "nic_io_buf")
	if _, err := sys.Mapper.MapSingle(nicDev, buf, 1024, dma.FromDevice); err != nil {
		t.Fatal(err)
	}
	before := dk.Stats().AccessAfterMap
	if err := sys.Mem.WriteU64(buf+64, 7); err != nil {
		t.Fatal(err)
	}
	if dk.Stats().AccessAfterMap != before+1 {
		t.Error("CPU write to mapped page not reported")
	}
	if len(dk.ReportsOf(AccessAfterMap)) == 0 {
		t.Error("no access-after-map report")
	}
}

func TestMultipleMap(t *testing.T) {
	sys, dk := newSanitizedSystem(t)
	if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
		t.Fatal(err)
	}
	// Two buffers on one frag page mapped separately — the double mapping
	// of Fig. 3 line 1.
	a, _ := sys.Mem.Frag.Alloc(0, 2048, 0)
	b, _ := sys.Mem.Frag.Alloc(0, 1024, 0)
	va, err := sys.Mapper.MapSingle(nicDev, a, 2048, dma.FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := sys.Mapper.MapSingle(nicDev, b, 1024, dma.ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := sys.Layout.KVAToPFN(a)
	pb, _ := sys.Layout.KVAToPFN(b + 1023)
	if pa == pb {
		reports := dk.ReportsOf(MultipleMap)
		if len(reports) == 0 {
			t.Fatal("no multiple-map report for doubly mapped page")
		}
		if !reports[0].Read || !reports[0].Write {
			t.Errorf("merged perms = %+v (want READ+WRITE across the two mappings)", reports[0])
		}
	}
	_ = va
	_ = vb
}

func TestNoFalseMultipleMap(t *testing.T) {
	sys, dk := newSanitizedSystem(t)
	if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
		t.Fatal(err)
	}
	// Buffers on distinct pages: no multiple-map.
	p1, _ := sys.Mem.Pages.AllocPages(0, 0)
	p2, _ := sys.Mem.Pages.AllocPages(0, 0)
	k1 := sys.Layout.PFNToKVA(p1)
	k2 := sys.Layout.PFNToKVA(p2)
	if _, err := sys.Mapper.MapSingle(nicDev, k1, 4096, dma.FromDevice); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Mapper.MapSingle(nicDev, k2, 4096, dma.FromDevice); err != nil {
		t.Fatal(err)
	}
	if n := dk.Stats().MultipleMap; n != 0 {
		t.Errorf("false multiple-map events: %d", n)
	}
}

func TestDisabledSanitizerIsSilent(t *testing.T) {
	sys, dk := newSanitizedSystem(t)
	dk.Enabled = false
	if _, err := sys.IOMMU.CreateDomain("nic", nicDev); err != nil {
		t.Fatal(err)
	}
	buf, _ := sys.Mem.Slab.Kmalloc(0, 512, "nic_io_buf")
	if _, err := sys.Mapper.MapSingle(nicDev, buf, 512, dma.Bidirectional); err != nil {
		t.Fatal(err)
	}
	sys.Mem.Slab.Kmalloc(0, 512, "x")
	if len(dk.Reports()) != 0 {
		t.Error("disabled sanitizer produced reports")
	}
}

func TestFigure3Workload(t *testing.T) {
	// The §4.2 experiment: build-like allocations concurrent with ping
	// traffic produce the Fig. 3 report lines.
	sys, dk := newSanitizedSystem(t)
	nic, err := sys.AddNIC(nicDev, netstack.DriverI40E, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(sys, nic, workload.Config{Iterations: 10, NICDevice: nicDev})
	if err != nil {
		t.Fatal(err)
	}
	if res.Builds != 10 || res.Pings == 0 {
		t.Fatalf("workload result = %+v", res)
	}
	out := dk.Render()
	t.Log("\n" + out)
	// Fig. 3's five allocating sites all show up.
	for _, site := range []string{"__alloc_skb", "load_elf_phdrs", "__do_execve_file", "sock_alloc_inode", "assoc_array_insert"} {
		if !strings.Contains(out, site) {
			t.Errorf("report missing Fig. 3 site %s", site)
		}
	}
	// Both READ+WRITE (admin block page) and WRITE-only (RX copybreak page)
	// exposures appear, as in Fig. 3.
	if !strings.Contains(out, "[READ, WRITE]") || !strings.Contains(out, "[WRITE]") {
		t.Error("report lacks the Fig. 3 permission mix")
	}
	if dk.Stats().AllocAfterMap == 0 {
		t.Error("workload produced no alloc-after-map events")
	}
}

func TestReportStringsAndClassNames(t *testing.T) {
	for _, c := range []Class{AllocAfterMap, MapAfterAlloc, AccessAfterMap, MultipleMap, Class(9)} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
	r := &Report{Class: AllocAfterMap, Size: 512, Read: true, Write: true, Site: "s", Count: 3}
	if !strings.Contains(r.String(), "size 512 [READ, WRITE] s") {
		t.Errorf("String = %q", r.String())
	}
	none := &Report{Class: MultipleMap, Size: 64, Site: "t", Count: 1}
	if !strings.Contains(none.String(), "[NONE]") {
		t.Errorf("String = %q", none.String())
	}
}

// TestReportOrderIsTotal: reports that tie on count and site (seeds 1–50
// hold several) come out by class, size, read and write, so every seed
// renders one report, run after run.
func TestReportOrderIsTotal(t *testing.T) {
	less := func(a, b *Report) bool {
		switch {
		case a.Count != b.Count:
			return a.Count > b.Count
		case a.Site != b.Site:
			return a.Site < b.Site
		case a.Class != b.Class:
			return a.Class < b.Class
		case a.Size != b.Size:
			return a.Size < b.Size
		case a.Read != b.Read:
			return !a.Read
		default:
			return !a.Write && b.Write
		}
	}
	for seed := int64(1); seed <= 50; seed++ {
		dk := New()
		sys, err := core.New(core.WithSeed(seed), core.WithIOMMUMode(iommu.Deferred), core.WithTracer(dk))
		if err != nil {
			t.Fatal(err)
		}
		dk.Attach(sys.Mem, sys.Mapper)
		nic, err := sys.AddNIC(nicDev, netstack.DriverI40E, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Run(sys, nic, workload.Config{Iterations: 2, NICDevice: nicDev}); err != nil {
			t.Fatal(err)
		}
		reps := dk.Reports()
		for i := 1; i < len(reps); i++ {
			if !less(reps[i-1], reps[i]) {
				t.Fatalf("seed %d: report %d (%s) precedes report %d (%s)", seed, i, reps[i-1], i+1, reps[i])
			}
		}
		if a, b := dk.Render(), dk.Render(); a != b {
			t.Fatalf("seed %d: two renders of one run differ", seed)
		}
	}
}
