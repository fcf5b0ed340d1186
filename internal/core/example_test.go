package core_test

import (
	"fmt"
	"log"

	"dmafault/internal/core"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

// ExampleNew boots a machine and demonstrates the sub-page vulnerability:
// mapping 64 bytes exposes the whole page.
func ExampleNew() {
	sys, err := core.New(core.WithSeed(1), core.WithIOMMUMode(iommu.Strict))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.IOMMU.CreateDomain("nic", 1); err != nil {
		log.Fatal(err)
	}
	ioBuf, _ := sys.Mem.Slab.Kmalloc(0, 64, "io")
	secret, _ := sys.Mem.Slab.Kmalloc(0, 64, "secret")
	_ = sys.Mem.Write(secret, []byte("co-located"))

	va, _ := sys.Mapper.MapSingle(1, ioBuf, 64, dma.Bidirectional)
	leak := make([]byte, 10)
	_ = sys.Bus.Read(1, va+iommu.IOVA(secret-ioBuf), leak)
	fmt.Printf("device read %q\n", leak)
	// Output: device read "co-located"
}

// ExampleSystem_AddNIC shows the deferred-invalidation window of Fig. 6:
// after dma_unmap the device still reaches the buffer.
func ExampleSystem_AddNIC() {
	sys, err := core.New(core.WithSeed(2), core.WithIOMMUMode(iommu.Deferred))
	if err != nil {
		log.Fatal(err)
	}
	nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		log.Fatal(err)
	}
	d := nic.RXRing()[0]
	_ = sys.Bus.Write(1, d.IOVA, []byte("pkt")) // primes the IOTLB
	_ = nic.ReceiveOn(0, 3, netstack.ProtoUDP, 1)

	// The buffer is unmapped now — and still writable through the stale
	// IOTLB entry.
	err = sys.Bus.Write(1, d.IOVA, []byte("late"))
	fmt.Println("stale write allowed:", err == nil)
	// Output: stale write allowed: true
}
