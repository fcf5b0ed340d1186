package workload

import (
	"testing"

	"dmafault/internal/core"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

func TestRunDefaults(t *testing.T) {
	sys, err := core.New(core.WithSeed(3), core.WithIOMMUMode(iommu.Deferred))
	if err != nil {
		t.Fatal(err)
	}
	nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, nic, Config{NICDevice: 1}) // Iterations defaulted
	if err != nil {
		t.Fatal(err)
	}
	if res.Builds != 8 {
		t.Errorf("default Builds = %d, want 8", res.Builds)
	}
	if res.Pings == 0 || res.ObjectsAlloced == 0 {
		t.Errorf("result = %+v", res)
	}
	// The workload tears its long-lived mappings down; what remains is the
	// RX ring minus the slots the pings consumed (not refilled).
	want := len(nic.RXRing()) - res.Pings
	if live := sys.Mapper.Live(); live != want {
		t.Errorf("live mappings = %d, want %d", live, want)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		sys, err := core.New(core.WithSeed(5), core.WithIOMMUMode(iommu.Deferred))
		if err != nil {
			t.Fatal(err)
		}
		nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sys, nic, Config{Iterations: 6, NICDevice: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if *a != *b {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestFig3SitesPresent(t *testing.T) {
	want := map[string]uint64{
		"__alloc_skb+0xe0/0x3f0":               512,
		"load_elf_phdrs+0xbf/0x130":            512,
		"__do_execve_file.isra.0+0x287/0x1080": 512,
		"sock_alloc_inode+0x4f/0x120":          64,
		"assoc_array_insert+0xa9/0x7e0":        328,
	}
	if len(buildSites) != len(want) {
		t.Fatalf("buildSites = %d entries", len(buildSites))
	}
	for _, bs := range buildSites {
		size, ok := want[bs.site]
		if !ok || size != bs.size {
			t.Errorf("site %q size %d not the Fig. 3 set", bs.site, bs.size)
		}
	}
}
