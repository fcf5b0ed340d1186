package iommu

import (
	"fmt"
	"math"

	"dmafault/internal/layout"
)

// IOVA is an I/O virtual address: the address space a device sees.
type IOVA uint64

// Perm is the access-rights field of an I/O page table entry. Per §2.2,
// WRITE does not imply READ; BIDIRECTIONAL is both.
type Perm uint8

const (
	PermNone Perm = 0
	PermRead Perm = 1 << iota
	PermWrite
	PermBidir = PermRead | PermWrite
)

// Allows reports whether the permission admits the requested access.
func (p Perm) Allows(write bool) bool {
	if write {
		return p&PermWrite != 0
	}
	return p&PermRead != 0
}

// String names the permission the way the paper's figures do.
func (p Perm) String() string {
	switch p {
	case PermRead:
		return "READ"
	case PermWrite:
		return "WRITE"
	case PermBidir:
		return "BIDIRECTIONAL"
	case PermNone:
		return "NONE"
	default:
		return fmt.Sprintf("Perm(%d)", uint8(p))
	}
}

// pte is a leaf I/O page table entry. A leaf table holds 512 of them, so
// the frame number is 32 bits (8 bytes an entry, 4 KiB a leaf table): that
// addresses 16 TiB of frames, and internal/dma fails to compile if the
// simulated memory ever outgrows it. Map refuses larger frame numbers.
type pte struct {
	pfn     uint32
	perm    Perm
	present bool
}

// MaxPTEPFN is the largest frame number a PTE holds.
const MaxPTEPFN = math.MaxUint32

// The 4-level table's nodes, one type per level: each directory holds 512
// pointers to the level below it, and only a leaf table holds PTEs.
type (
	leafTable [512]pte        // level 1: one 4 KiB page per entry
	pdTable   [512]*leafTable // level 2: 2 MiB per entry
	pdptTable [512]*pdTable   // level 3: 1 GiB per entry
)

// PageTable is a 4-level (48-bit, 4 KiB granule) I/O page table, structured
// like the VT-d second-level tables the paper's testbed uses.
type PageTable struct {
	root    [512]*pdptTable // level 4: 512 GiB per entry
	entries uint64
}

// step descends through one directory slot, building the next-level table
// when create is set; nil means the path ends here.
func step[T any](slot **T, create bool) *T {
	if *slot == nil && create {
		*slot = new(T)
	}
	return *slot
}

// lookup returns the PTE slot of the page containing v, building missing
// tables when create is set, or nil when a table on the path is missing.
func (t *PageTable) lookup(v IOVA, create bool) *pte {
	l3 := step(&t.root[v>>39&0x1ff], create)
	if l3 == nil {
		return nil
	}
	l2 := step(&l3[v>>30&0x1ff], create)
	if l2 == nil {
		return nil
	}
	leaf := step(&l2[v>>21&0x1ff], create)
	if leaf == nil {
		return nil
	}
	return &leaf[v>>12&0x1ff]
}

// Map installs a translation for the page containing v. Mapping an already
// present entry is an error (the DMA API never remaps in place).
func (t *PageTable) Map(v IOVA, pfn layout.PFN, perm Perm) error {
	if perm == PermNone {
		return fmt.Errorf("iommu: mapping %#x with no permissions", uint64(v))
	}
	if v>>48 != 0 {
		return fmt.Errorf("iommu: IOVA %#x beyond 48-bit space", uint64(v))
	}
	if pfn > MaxPTEPFN {
		return fmt.Errorf("iommu: PFN %#x beyond a PTE's 32 bits", uint64(pfn))
	}
	e := t.lookup(v, true)
	if e.present {
		return fmt.Errorf("iommu: IOVA page %#x already mapped", uint64(v)&^uint64(layout.PageMask))
	}
	*e = pte{pfn: uint32(pfn), perm: perm, present: true}
	t.entries++
	return nil
}

// Unmap removes the translation for the page containing v and returns the
// entry it held. Only the page table changes: IOTLB invalidation is a
// separate, explicit step — the gap between the two is the deferred-
// invalidation vulnerability (§5.2.1, Fig. 6).
func (t *PageTable) Unmap(v IOVA) (layout.PFN, Perm, error) {
	e := t.lookup(v, false)
	if e == nil || !e.present {
		return 0, PermNone, fmt.Errorf("iommu: unmap of unmapped IOVA %#x", uint64(v))
	}
	pfn, perm := layout.PFN(e.pfn), e.perm
	*e = pte{}
	t.entries--
	return pfn, perm, nil
}

// Walk looks up the translation for the page containing v.
func (t *PageTable) Walk(v IOVA) (layout.PFN, Perm, bool) {
	e := t.lookup(v, false)
	if e == nil || !e.present {
		return 0, PermNone, false
	}
	return layout.PFN(e.pfn), e.perm, true
}

// each calls fn on every present entry in ascending IOVA order.
func (t *PageTable) each(fn func(v IOVA, e pte)) {
	for i4, l3 := range t.root {
		if l3 == nil {
			continue
		}
		for i3, l2 := range l3 {
			if l2 == nil {
				continue
			}
			for i2, leaf := range l2 {
				if leaf == nil {
					continue
				}
				for i1, e := range leaf {
					if e.present {
						fn(IOVA(i4)<<39|IOVA(i3)<<30|IOVA(i2)<<21|IOVA(i1)<<12, e)
					}
				}
			}
		}
	}
}

// Entries returns the number of present leaf entries.
func (t *PageTable) Entries() uint64 { return t.entries }
