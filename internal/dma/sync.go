package dma

import (
	"fmt"

	"dmafault/internal/iommu"
)

// The dma_sync_single_for_{cpu,device} half of the DMA API (§2.3): on
// coherent simulated hardware these are ownership-transfer points, not cache
// operations, but modeling them matters for two reasons. First, drivers that
// "peek" at RX buffers mid-DMA call sync_for_cpu, and D-KASAN's
// access-after-map class keys on exactly the accesses that happen *without*
// such a transfer. Second, the ownership state machine (device-owned between
// map/sync_for_device and sync_for_cpu/unmap) is the contract whose
// violations the paper's Fig. 7(i) driver-ordering bug consists of.

// Owner says who may touch a mapped buffer right now.
type Owner int

const (
	// OwnerDevice: between map (or sync_for_device) and sync_for_cpu/unmap.
	OwnerDevice Owner = iota
	// OwnerCPU: between sync_for_cpu and sync_for_device.
	OwnerCPU
)

// String names the owner.
func (o Owner) String() string {
	if o == OwnerCPU {
		return "cpu"
	}
	return "device"
}

// SyncForCPU transfers ownership of a live mapping to the CPU, permitting
// CPU reads of device-written data before the unmap.
func (mp *Mapper) SyncForCPU(dev iommu.DeviceID, va iommu.IOVA) error {
	m, ok := mp.lookup(dev, va)
	if !ok {
		return fmt.Errorf("dma: sync_for_cpu on unmapped IOVA %#x", uint64(va))
	}
	if Owner(m.owner) == OwnerCPU {
		return fmt.Errorf("dma: double sync_for_cpu on IOVA %#x", uint64(va))
	}
	m.owner = uint8(OwnerCPU)
	mp.stats.Syncs++
	return nil
}

// SyncForDevice transfers ownership back to the device.
func (mp *Mapper) SyncForDevice(dev iommu.DeviceID, va iommu.IOVA) error {
	m, ok := mp.lookup(dev, va)
	if !ok {
		return fmt.Errorf("dma: sync_for_device on unmapped IOVA %#x", uint64(va))
	}
	if Owner(m.owner) == OwnerDevice {
		return fmt.Errorf("dma: double sync_for_device on IOVA %#x", uint64(va))
	}
	m.owner = uint8(OwnerDevice)
	mp.stats.Syncs++
	return nil
}

// OwnerOf reports the current owner of a live mapping.
func (mp *Mapper) OwnerOf(dev iommu.DeviceID, va iommu.IOVA) (Owner, error) {
	m, ok := mp.lookup(dev, va)
	if !ok {
		return OwnerDevice, fmt.Errorf("dma: OwnerOf on unmapped IOVA %#x", uint64(va))
	}
	return Owner(m.owner), nil
}
