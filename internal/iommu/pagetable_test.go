package iommu

import (
	"testing"
	"testing/quick"

	"dmafault/internal/layout"
)

func TestPermAllows(t *testing.T) {
	if !PermRead.Allows(false) || PermRead.Allows(true) {
		t.Error("PermRead semantics wrong")
	}
	// §2.2: WRITE does not grant READ.
	if !PermWrite.Allows(true) || PermWrite.Allows(false) {
		t.Error("PermWrite semantics wrong")
	}
	if !PermBidir.Allows(true) || !PermBidir.Allows(false) {
		t.Error("PermBidir semantics wrong")
	}
	if PermNone.Allows(true) || PermNone.Allows(false) {
		t.Error("PermNone semantics wrong")
	}
	for _, c := range []struct {
		p Perm
		s string
	}{{PermRead, "READ"}, {PermWrite, "WRITE"}, {PermBidir, "BIDIRECTIONAL"}, {PermNone, "NONE"}} {
		if c.p.String() != c.s {
			t.Errorf("%v.String() = %q", c.p, c.p.String())
		}
	}
}

func TestPageTableMapWalkUnmap(t *testing.T) {
	var pt PageTable
	v := IOVA(1 << 32)
	if err := pt.Map(v, 42, PermWrite); err != nil {
		t.Fatal(err)
	}
	if pt.Entries() != 1 {
		t.Errorf("Entries = %d", pt.Entries())
	}
	pfn, perm, ok := pt.Walk(v + 123) // same page, any offset
	if !ok || pfn != 42 || perm != PermWrite {
		t.Fatalf("Walk = %d, %v, %v", pfn, perm, ok)
	}
	if _, _, ok := pt.Walk(v + layout.PageSize); ok {
		t.Error("Walk found unmapped neighbour page")
	}
	if err := pt.Map(v+8, 43, PermRead); err == nil {
		t.Error("remap of mapped page accepted")
	}
	gotPFN, gotPerm, err := pt.Unmap(v)
	if err != nil || gotPFN != 42 || gotPerm != PermWrite {
		t.Fatalf("Unmap = %d, %v, %v", gotPFN, gotPerm, err)
	}
	if _, _, ok := pt.Walk(v); ok {
		t.Error("entry survived unmap")
	}
	if _, _, err := pt.Unmap(v); err == nil {
		t.Error("double unmap accepted")
	}
	if pt.Entries() != 0 {
		t.Errorf("Entries = %d after unmap", pt.Entries())
	}
}

func TestPageTableRejects(t *testing.T) {
	var pt PageTable
	if err := pt.Map(1<<32, 1, PermNone); err == nil {
		t.Error("PermNone mapping accepted")
	}
	if err := pt.Map(1<<48, 1, PermRead); err == nil {
		t.Error("IOVA beyond 48 bits accepted")
	}
	if _, _, err := pt.Unmap(1 << 40); err == nil {
		t.Error("unmap of never-touched subtree accepted")
	}
}

// Property: the page table agrees with a map-based oracle under random
// map/unmap sequences.
func TestPropertyPageTableOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		var pt PageTable
		oracle := make(map[IOVA]pte)
		for i, op := range ops {
			v := IOVA(uint64(op)%64*layout.PageSize) + IOVABase
			if i%2 == 0 {
				perm := Perm(op%3) + 1
				err := pt.Map(v, layout.PFN(op), perm)
				_, exists := oracle[v]
				if exists != (err != nil) {
					return false
				}
				if err == nil {
					oracle[v] = pte{pfn: uint32(op), perm: perm, present: true}
				}
			} else {
				_, _, err := pt.Unmap(v)
				_, exists := oracle[v]
				if exists != (err == nil) {
					return false
				}
				delete(oracle, v)
			}
			// Full agreement sweep.
			for page := uint64(0); page < 64; page++ {
				w := IOVA(page*layout.PageSize) + IOVABase
				pfn, perm, ok := pt.Walk(w)
				want, exists := oracle[w]
				if ok != exists {
					return false
				}
				if ok && (pfn != layout.PFN(want.pfn) || perm != want.perm) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIOTLBBasics(t *testing.T) {
	tlb := NewIOTLB(2)
	v1, v2, v3 := IOVA(0x1000), IOVA(0x2000), IOVA(0x3000)
	if _, _, ok := tlb.Lookup(v1); ok {
		t.Error("hit on empty IOTLB")
	}
	tlb.Insert(v1, 1, PermRead)
	tlb.Insert(v2, 2, PermWrite)
	if pfn, perm, ok := tlb.Lookup(v1 + 5); !ok || pfn != 1 || perm != PermRead {
		t.Error("lookup within page failed")
	}
	tlb.Insert(v3, 3, PermBidir) // evicts v1 (FIFO)
	if _, _, ok := tlb.Lookup(v1); ok {
		t.Error("capacity not enforced")
	}
	if tlb.Evictions != 1 {
		t.Errorf("Evictions = %d", tlb.Evictions)
	}
	tlb.Invalidate(v2)
	if _, _, ok := tlb.Lookup(v2); ok {
		t.Error("entry survived invalidate")
	}
	tlb.FlushAll()
	if tlb.Len() != 0 {
		t.Error("entries survived flush")
	}
	if tlb.Flushes != 1 {
		t.Errorf("Flushes = %d", tlb.Flushes)
	}
	// Re-insert over existing key must not duplicate.
	tlb.Insert(v1, 1, PermRead)
	tlb.Insert(v1, 9, PermWrite)
	if pfn, perm, _ := tlb.Lookup(v1); pfn != 9 || perm != PermWrite {
		t.Error("re-insert did not update")
	}
	if tlb.Len() != 1 {
		t.Error("re-insert duplicated entry")
	}
}
