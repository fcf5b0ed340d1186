package attacks

import (
	"testing"

	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/mem"
	"dmafault/internal/netstack"
)

// §9.2: dedicated I/O allocators ([49], DAMN) segregate I/O memory from OS
// memory — "Nevertheless, this API can be easily thwarted by device drivers
// via functions, such as build_skb, that add a vulnerable skb_shared_info
// into an I/O region." Both halves, demonstrated:

func TestDedicatedIOAllocatorStopsRandomCoLocation(t *testing.T) {
	sys, _ := bootVictim(t, iommu.Strict, false, netstack.DriverI40E)
	io := mem.NewIOAllocator(sys.Mem)
	buf, err := io.Alloc(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	va, err := sys.Mapper.MapSingle(attackerDev, buf, 512, dma.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel secrets allocated now never land on the mapped page.
	secret, err := sys.Mem.Slab.Kmalloc(0, 512, "session_key")
	if err != nil {
		t.Fatal(err)
	}
	pIO, _ := sys.Layout.KVAToPFN(buf)
	pSecret, _ := sys.Layout.KVAToPFN(secret)
	if pIO == pSecret {
		t.Fatal("segregation failed: kernel object on the I/O page")
	}
	_ = va
}

func TestBuildSkbThwartsDedicatedIOAllocator(t *testing.T) {
	sys, _ := bootVictim(t, iommu.Strict, false, netstack.DriverI40E)
	atk, err := NewAttacker(sys, attackerDev)
	if err != nil {
		t.Fatal(err)
	}
	initNet, _ := sys.Layout.SymbolKVA("init_net")
	atk.Infer.ObserveWords([]uint64{uint64(initNet)})

	io := mem.NewIOAllocator(sys.Mem)
	truesize := uint32(netstack.TruesizeFor(2048))
	buf, err := io.Alloc(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	va, err := sys.Mapper.MapSingle(attackerDev, buf, uint64(truesize), dma.FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	// The driver wraps the I/O buffer with build_skb: skb_shared_info now
	// lives INSIDE the dedicated I/O region — the allocator's guarantee is
	// irrelevant.
	s, err := sys.Net.BuildSKB(buf, truesize)
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.PlantPayload(va, buf, 2048); err != nil {
		t.Fatal(err)
	}
	before := sys.Kernel.Escalations
	_ = sys.Net.ReleaseSKB(s) // external buffer: allocator owns it
	if sys.Kernel.Escalations != before+1 {
		t.Fatal("build_skb over the dedicated region did not fall — contradicts §9.2")
	}
	if err := io.Free(buf); err != nil {
		t.Fatal(err)
	}
}
