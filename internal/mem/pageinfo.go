package mem

import "dmafault/internal/layout"

// PageFlag marks the role a physical page currently plays, mirroring the
// struct page flags the kernel keeps in the vmemmap.
type PageFlag uint8

const (
	// FlagFree marks a page owned by the buddy allocator.
	FlagFree PageFlag = 1 << iota
	// FlagSlab marks a page backing a kmalloc slab.
	FlagSlab
	// FlagFrag marks a page that is part of a page_frag compound region.
	FlagFrag
	// FlagCompoundHead marks the head page of a high-order allocation.
	FlagCompoundHead
	// FlagCompoundTail marks a tail page of a high-order allocation.
	FlagCompoundTail
	// FlagReserved marks pages carved out at boot (kernel image, etc.).
	FlagReserved
)

// PageInfo is the simulated struct page: per-frame metadata the kernel (and
// our tools) consult. DMA mapping state is tracked here so that tests and
// the sanitizer can ask "how many IOVAs currently map this frame?" — the
// heart of type (c) sub-page vulnerabilities. Every boot holds one per
// frame, so the fields are as narrow as their ranges allow (20 bytes).
type PageInfo struct {
	// RefCount counts users of the frame: 1 for an allocated page, +1 per
	// outstanding page_frag slice, etc. A frame returns to the buddy
	// allocator only when it drops to zero.
	RefCount int32
	// DMAMapCount is the number of live IOVA mappings covering this frame.
	DMAMapCount int32
	// CompoundHead is the PFN of the head page when FlagCompoundTail is set.
	CompoundHead uint32
	// SlabClass is the kmalloc size class when FlagSlab is set.
	SlabClass uint32
	Flags     PageFlag
	// Order is the buddy order of the allocation this frame belongs to
	// (meaningful on the head page).
	Order uint8
	// DMAWritable is true while at least one live mapping grants the device
	// WRITE (or BIDIRECTIONAL) access to the frame.
	DMAWritable bool
}

// Every PFN below MaxPhysBytes fits CompoundHead: raising MaxPhysBytes past
// what 32 bits of PFN address fails to compile here.
const _ uint32 = MaxPhysBytes/layout.PageSize - 1

// Head returns the PFN of the compound head (FlagCompoundTail pages).
func (pi *PageInfo) Head() layout.PFN { return layout.PFN(pi.CompoundHead) }

// Has reports whether all given flags are set.
func (pi *PageInfo) Has(f PageFlag) bool { return pi.Flags&f == f }

// DMAMapped reports whether any IOVA currently maps the frame.
func (pi *PageInfo) DMAMapped() bool { return pi.DMAMapCount > 0 }

// MarkDMAMapped records one more live mapping of the frame. The dma package
// calls this on map.
func (pi *PageInfo) MarkDMAMapped(writable bool) {
	pi.DMAMapCount++
	if writable {
		pi.DMAWritable = true
	}
}

// ClearDMAMapped records the removal of one live mapping. When the count
// reaches zero the writable sticky bit clears too.
func (pi *PageInfo) ClearDMAMapped() {
	if pi.DMAMapCount > 0 {
		pi.DMAMapCount--
	}
	if pi.DMAMapCount == 0 {
		pi.DMAWritable = false
	}
}
