package mem

import (
	"testing"
	"testing/quick"

	"dmafault/internal/layout"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	m := newTestMemory(t, 16<<20, 2)
	before := m.Pages.FreePages()
	p, err := m.Pages.AllocPages(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pi := m.mustPage(p)
	if pi.Has(FlagFree) || pi.RefCount != 1 {
		t.Errorf("allocated page state: flags %v refcount %d", pi.Flags, pi.RefCount)
	}
	if err := m.Pages.Free(0, p, 0); err != nil {
		t.Fatal(err)
	}
	if m.Pages.FreePages() != before {
		t.Errorf("free pages %d, want %d", m.Pages.FreePages(), before)
	}
}

func TestHotPageReuse(t *testing.T) {
	// §5.2.1: freed pages are reused immediately on the same CPU, LIFO.
	m := newTestMemory(t, 16<<20, 2)
	p, err := m.Pages.AllocPages(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Pages.Free(0, p, 0); err != nil {
		t.Fatal(err)
	}
	q, err := m.Pages.AllocPages(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("hot page not reused: freed %d, got %d", p, q)
	}
	// A different CPU does not see this hot page first.
	if err := m.Pages.Free(0, q, 0); err != nil {
		t.Fatal(err)
	}
	r, err := m.Pages.AllocPages(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r == p {
		t.Errorf("cpu 1 allocation got cpu 0's hot page")
	}
}

func TestCompoundAllocation(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	p, err := m.Pages.AllocPages(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p&(1<<3-1) != 0 {
		t.Errorf("order-3 block at PFN %d not naturally aligned", p)
	}
	if !m.mustPage(p).Has(FlagCompoundHead) {
		t.Error("head not marked compound head")
	}
	for i := layout.PFN(1); i < 8; i++ {
		ti := m.mustPage(p + i)
		if !ti.Has(FlagCompoundTail) || layout.PFN(ti.CompoundHead) != p {
			t.Errorf("tail %d not marked (flags %v head %d)", i, ti.Flags, ti.CompoundHead)
		}
	}
	if err := m.Pages.Free(0, p, 3); err != nil {
		t.Fatal(err)
	}
	if m.mustPage(p + 1).Has(FlagCompoundTail) {
		t.Error("tail flag survived free")
	}
}

func TestFreeErrors(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	p, _ := m.Pages.AllocPages(0, 1)
	if err := m.Pages.Free(0, p+1, 0); err == nil {
		t.Error("freeing compound tail accepted")
	}
	if err := m.Pages.Free(0, p, 1); err != nil {
		t.Fatal(err)
	}
	// Double free: page is now in buddy lists (order 1 skips the hot cache).
	if err := m.Pages.Free(0, p, 1); err == nil {
		t.Error("double free accepted")
	}
	if err := m.Pages.Free(0, 0, 0); err == nil {
		t.Error("freeing boot-reserved page accepted")
	}
	if err := m.Pages.Free(0, layout.PFN(m.NumPages()), 0); err == nil {
		t.Error("freeing out-of-range PFN accepted")
	}
	if _, err := m.Pages.AllocPages(0, MaxOrder+1); err == nil {
		t.Error("order above MaxOrder accepted")
	}
}

func TestGetPutPage(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	p, _ := m.Pages.AllocPages(0, 0)
	if err := m.Pages.GetPage(p); err != nil {
		t.Fatal(err)
	}
	if m.mustPage(p).RefCount != 2 {
		t.Errorf("refcount %d after get_page", m.mustPage(p).RefCount)
	}
	if err := m.Pages.PutPage(0, p); err != nil {
		t.Fatal(err)
	}
	if m.mustPage(p).RefCount != 1 {
		t.Errorf("refcount %d after put_page", m.mustPage(p).RefCount)
	}
	if err := m.Pages.PutPage(0, p); err != nil {
		t.Fatal(err)
	}
	if !m.mustPage(p).Has(FlagFree) {
		t.Error("page not freed when refcount dropped to zero")
	}
	if err := m.Pages.PutPage(0, p); err == nil {
		t.Error("put_page on free page accepted")
	}
	if err := m.Pages.GetPage(p); err == nil {
		t.Error("get_page on free page accepted")
	}
	// Tail redirection.
	c, _ := m.Pages.AllocPages(0, 2)
	if err := m.Pages.GetPage(c + 3); err != nil {
		t.Fatal(err)
	}
	if m.mustPage(c).RefCount != 2 {
		t.Error("get_page on tail did not redirect to head")
	}
	if err := m.Pages.PutPage(0, c+2); err != nil {
		t.Fatal(err)
	}
	if m.mustPage(c).RefCount != 1 {
		t.Error("put_page on tail did not redirect to head")
	}
}

func TestBuddyMerging(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	// Exhaust the hot path by allocating order-1 blocks.
	a, err := m.Pages.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Pages.FreePages()
	if err := m.Pages.Free(0, a, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Pages.FreePages(); got != before+2 {
		t.Errorf("free pages %d, want %d", got, before+2)
	}
	// After freeing, a MaxOrder allocation must still be possible (merge
	// happened or other blocks exist); allocate every MaxOrder block and
	// confirm accounting stays consistent.
	var blocks []layout.PFN
	for {
		p, err := m.Pages.AllocPages(0, MaxOrder)
		if err != nil {
			break
		}
		blocks = append(blocks, p)
	}
	if len(blocks) == 0 {
		t.Fatal("no MaxOrder blocks available")
	}
	for _, p := range blocks {
		if err := m.Pages.Free(0, p, MaxOrder); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDrainHotCaches(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	p, _ := m.Pages.AllocPages(0, 0)
	if err := m.Pages.Free(0, p, 0); err != nil {
		t.Fatal(err)
	}
	m.Pages.DrainHotCaches()
	q, err := m.Pages.AllocPages(1, 0) // other CPU can now get it via buddy
	if err != nil {
		t.Fatal(err)
	}
	_ = q
}

func TestOutOfMemory(t *testing.T) {
	m := newTestMemory(t, 8<<20, 1)
	n := 0
	for {
		if _, err := m.Pages.AllocPages(0, 0); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no pages allocated before OOM")
	}
	if _, err := m.Pages.AllocPages(0, 0); err == nil {
		t.Error("allocation succeeded after OOM")
	}
}

// Property: alloc/free sequences never hand out the same frame twice while
// live, and never lose frames.
func TestPropertyAllocatorConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		m := newTestMemory(t, 8<<20, 2)
		start := m.Pages.FreePages()
		live := make(map[layout.PFN]uint)
		for _, op := range ops {
			order := uint(op % 3)
			cpu := int(op>>2) % 2
			if op%2 == 0 {
				p, err := m.Pages.AllocPages(cpu, order)
				if err != nil {
					continue
				}
				for q := range live {
					qo := live[q]
					// Overlap check: [p, p+2^order) vs [q, q+2^qo)
					if p < q+(1<<qo) && q < p+(1<<order) {
						return false
					}
				}
				live[p] = order
			} else {
				for q, qo := range live {
					if qo == order {
						if err := m.Pages.Free(cpu, q, qo); err != nil {
							return false
						}
						delete(live, q)
						break
					}
				}
			}
		}
		for q, qo := range live {
			if err := m.Pages.Free(0, q, qo); err != nil {
				return false
			}
		}
		return m.Pages.FreePages() == start
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFreeRejectsUnallocatedFrame(t *testing.T) {
	// Frames 1025 and 1030 lie inside the free order-4 block at 1024: nobody
	// holds them, so a free must not hand them to the hot cache.
	m := newTestMemory(t, 16<<20, 2)
	before := m.Pages.FreePages()
	for _, p := range []layout.PFN{1025, 1030} {
		if err := m.Pages.Free(0, p, 0); err == nil {
			t.Errorf("free of unallocated PFN %d accepted", p)
		}
	}
	if got := m.Pages.FreePages(); got != before {
		t.Fatalf("free pages %d after refused frees, want %d", got, before)
	}
	// The buddy block at 1024 is split for these: each frame once.
	seen := map[layout.PFN]bool{}
	for i := 0; i < 16; i++ {
		p, err := m.Pages.AllocPages(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("PFN %d handed out twice", p)
		}
		seen[p] = true
	}
}

func TestFreeRejectsWrongOrder(t *testing.T) {
	// An order-4 free of the order-0 page at 1024 would clear frames
	// 1025..1039 although 1025 is still held, and the next order-4
	// allocation would hand 1025 out a second time.
	m := newTestMemory(t, 16<<20, 2)
	p, err := m.Pages.AllocPages(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.Pages.AllocPages(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1024 || q != 1025 {
		t.Fatalf("order-0 allocations at %d and %d, want 1024 and 1025", p, q)
	}
	before := m.Pages.FreePages()
	if err := m.Pages.Free(-1, p, 4); err == nil {
		t.Fatal("order-4 free of an order-0 page accepted")
	}
	if got := m.Pages.FreePages(); got != before {
		t.Fatalf("free pages %d after a refused free, want %d", got, before)
	}
	b, err := m.Pages.AllocPages(-1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q >= b && q < b+16 {
		t.Fatalf("order-4 block at %d covers PFN %d, which is still held", b, q)
	}
}
