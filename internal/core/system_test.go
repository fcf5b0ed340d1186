package core

import (
	"testing"

	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

func TestNewDefaults(t *testing.T) {
	s, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Mem.NumPages() != DefaultMemBytes/4096 {
		t.Errorf("NumPages = %d", s.Mem.NumPages())
	}
	if s.IOMMU.Mode() != iommu.Deferred {
		t.Errorf("default mode = %v, want deferred (Linux default)", s.IOMMU.Mode())
	}
	if s.Layout.TextBase == 0 || s.Kernel.Text().Base() != s.Layout.TextBase {
		t.Error("kernel text not at layout text base")
	}
}

func TestSystemDeterministicPerSeed(t *testing.T) {
	a, _ := New(WithSeed(7))
	b, _ := New(WithSeed(7))
	c, _ := New(WithSeed(8))
	if a.Layout.TextBase != b.Layout.TextBase {
		t.Error("same seed, different layout")
	}
	if a.Layout.TextBase == c.Layout.TextBase && a.Layout.PageOffsetBase == c.Layout.PageOffsetBase {
		t.Error("different seed, same layout")
	}
}

func TestAddNICAndSharedDomain(t *testing.T) {
	s, err := New(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.RXRing()) != netstack.DriverI40E.RingSize {
		t.Errorf("ring = %d", len(n.RXRing()))
	}
	if !n.RXRing()[0].Ready {
		t.Error("RX ring not filled")
	}
	// FireWire shares the NIC's domain (§6 setup).
	if err := s.AttachToDomainOf(9, 1); err != nil {
		t.Fatal(err)
	}
	d1, _ := s.IOMMU.DomainOf(1)
	d9, _ := s.IOMMU.DomainOf(9)
	if d1 != d9 {
		t.Error("domains not shared")
	}
	if err := s.AttachToDomainOf(10, 99); err == nil {
		t.Error("attach to unknown device accepted")
	}
	if _, err := s.AddNIC(1, netstack.DriverI40E, 0); err == nil {
		t.Error("duplicate NIC device accepted")
	}
}
