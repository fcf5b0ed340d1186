package mem

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"dmafault/internal/layout"
)

// peekPage reads the struct page of frame p without building its chunk: an
// untouched chunk reads as the boot state.
func peekPage(m *Memory, p layout.PFN) PageInfo {
	if c := m.chunks[p/chunkFrames]; c != nil {
		return c.pages[p%chunkFrames]
	}
	return bootPage(p, m.npages)
}

// denseBoot turns a fresh Memory into the dense reference: every chunk is
// built, the first 4 MiB are written reserved one struct page at a time, and
// every seeded order-MaxOrder block is pushed onto the buddy stack with the
// lowest on top, the way a boot without chunks or watermark sets itself up.
// It shares neither bootPage nor the watermark with the code under test.
func denseBoot(m *Memory) {
	for i := range m.chunks {
		m.chunks[i] = new(chunk)
	}
	reserve := layout.PFN((4 << 20) / layout.PageSize)
	for p := layout.PFN(0); p < reserve; p++ {
		m.mustPage(p).Flags = FlagReserved
		m.mustPage(p).RefCount = 1
	}
	pa := m.Pages
	pa.wild, pa.end, pa.nfree = 0, 0, 0
	blk := layout.PFN(1) << MaxOrder
	var starts []layout.PFN
	for p := (reserve + blk - 1) &^ (blk - 1); p+blk <= layout.PFN(m.NumPages()); p += blk {
		starts = append(starts, p)
	}
	for i := len(starts) - 1; i >= 0; i-- {
		pa.pushFree(starts[i], MaxOrder)
	}
}

func TestNewBuildsNoChunk(t *testing.T) {
	m := newTestMemory(t, 512<<20, 2)
	if n := m.ChunksBuilt(); n != 0 {
		t.Fatalf("fresh 512 MiB memory built %d chunks, want 0", n)
	}
	if _, err := m.Pages.AllocPages(0, 0); err != nil {
		t.Fatal(err)
	}
	if n := m.ChunksBuilt(); n != 1 {
		t.Fatalf("first order-0 allocation built %d chunks, want 1", n)
	}
}

// pageMachine is one side of FuzzPageAllocator: a Memory plus what the
// decoded sequence holds on it.
type pageMachine struct {
	m      *Memory
	blocks []heldBlock
	objs   []layout.Addr
	frags  []layout.Addr
}

// heldBlock is a buddy allocation and the references the sequence holds.
type heldBlock struct {
	pfn   layout.PFN
	order uint
	refs  int
}

// drop releases one held reference on blocks[i] after a successful put.
func (pm *pageMachine) drop(i int) {
	if pm.blocks[i].refs--; pm.blocks[i].refs == 0 {
		pm.blocks = append(pm.blocks[:i], pm.blocks[i+1:]...)
	}
}

// step runs one decoded operation and renders its outcome.
func (pm *pageMachine) step(kind, a byte, arg uint16) string {
	cpu := int(a % 2)
	pick := func(n int) int { return int(arg) % n }
	switch kind % 12 {
	case 0:
		order := uint(a/2) % (MaxOrder + 1)
		p, err := pm.m.Pages.AllocPages(cpu, order)
		if err == nil {
			pm.blocks = append(pm.blocks, heldBlock{p, order, 1})
		}
		return fmt.Sprint("alloc ", p, err)
	case 1, 2, 3:
		if len(pm.blocks) == 0 {
			return "no block"
		}
		i := pick(len(pm.blocks))
		b := pm.blocks[i]
		var err error
		switch kind % 12 {
		case 1:
			if err = pm.m.Pages.Free(cpu, b.pfn, b.order); err == nil {
				pm.drop(i)
			}
		case 2:
			if err = pm.m.Pages.GetPage(b.pfn); err == nil {
				pm.blocks[i].refs++
			}
		case 3:
			if err = pm.m.Pages.PutPage(cpu, b.pfn); err == nil {
				pm.drop(i)
			}
		}
		return fmt.Sprint("ref ", b.pfn, err)
	case 4:
		// A stray free: only frames nobody holds, so each must be refused.
		p := layout.PFN(arg) % layout.PFN(pm.m.NumPages())
		if pi := peekPage(pm.m, p); pi.RefCount > 0 && !pi.Has(FlagReserved) {
			return "held"
		}
		return fmt.Sprint("stray free ", p, pm.m.Pages.Free(cpu, p, 0))
	case 11:
		// A free at the wrong order: refused, or the block's neighbours
		// would be handed out while still held.
		if len(pm.blocks) == 0 {
			return "no block"
		}
		b := pm.blocks[pick(len(pm.blocks))]
		wrong := (b.order + 1 + uint(a/2)%MaxOrder) % (MaxOrder + 1)
		if err := pm.m.Pages.Free(cpu, b.pfn, wrong); err == nil {
			return fmt.Sprint(mustRefuse, "order-", wrong, " free of order-", b.order, " PFN ", b.pfn, " accepted")
		}
		return "wrong order refused"
	case 5:
		a, err := pm.m.Slab.Kmalloc(cpu, 1+uint64(arg)%KmallocMax, "fuzz")
		if err == nil {
			pm.objs = append(pm.objs, a)
		}
		return fmt.Sprint("kmalloc ", a, err)
	case 6:
		if len(pm.objs) == 0 {
			return "no object"
		}
		i := pick(len(pm.objs))
		err := pm.m.Slab.Kfree(pm.objs[i])
		pm.objs = append(pm.objs[:i], pm.objs[i+1:]...)
		return fmt.Sprint("kfree ", err)
	case 7:
		a, err := pm.m.Frag.Alloc(cpu, 1+uint64(arg)%FragRegionBytes, 0)
		if err == nil {
			pm.frags = append(pm.frags, a)
		}
		return fmt.Sprint("frag ", a, err)
	case 8:
		if len(pm.frags) == 0 {
			return "no frag"
		}
		i := pick(len(pm.frags))
		err := pm.m.Frag.Free(cpu, pm.frags[i])
		pm.frags = append(pm.frags[:i], pm.frags[i+1:]...)
		return fmt.Sprint("frag free ", err)
	case 9:
		return fmt.Sprint("drop ", pm.m.Frag.DropCaches(cpu))
	default:
		pm.m.Pages.DrainHotCaches()
		return "drain"
	}
}

// mustRefuse starts the outcome of an operation that had to fail but did not.
const mustRefuse = "MUST REFUSE: "

// state renders everything a step may change besides the struct pages.
func (pm *pageMachine) state() string {
	return fmt.Sprint(pm.m.Pages.FreePages(), pm.m.Pages.Stats(), pm.m.Slab.Stats(), pm.m.Frag.Stats())
}

// fuzzPageMemBytes leaves a partial last chunk and tail frames outside every
// seeded block.
const fuzzPageMemBytes = 16<<20 + 5*layout.PageSize

// FuzzPageAllocator runs a decoded sequence of page, slab and page_frag
// operations on a fresh Memory, whose struct pages are built chunk by chunk
// on first touch, and on the dense reference (denseBoot). Each operation is
// 4 input bytes: kind, a CPU/order byte and a 16-bit argument that picks a
// held block, object or fragment, a size, or a stray PFN. Every step must
// return the same values and errors and leave the same free count and
// statistics on both, and a free at the wrong order must be refused; at the
// end every struct page must match, read on the lazy side without building
// a chunk.
func FuzzPageAllocator(f *testing.F) {
	op := func(kind, a byte, arg uint16) []byte {
		b := []byte{kind, a, 0, 0}
		binary.LittleEndian.PutUint16(b[2:], arg)
		return b
	}
	seq := func(ops ...[]byte) (out []byte) {
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	f.Add([]byte{})                                                                                   // the boot state alone
	f.Add(seq(op(0, 0, 0), op(0, 8, 0), op(1, 0, 0), op(1, 0, 0), op(10, 0, 0), op(0, 6, 0)))         // orders 0 and 4, free, drain
	f.Add(seq(op(0, 0, 0), op(4, 0, 1025), op(4, 1, 1030), op(4, 0, 0), op(4, 0, 4100), op(0, 0, 0))) // stray frees
	f.Add(seq(op(5, 0, 511), op(5, 1, 4000), op(6, 0, 0), op(5, 0, 100), op(6, 0, 1), op(10, 0, 0)))  // kmalloc, kfree
	f.Add(seq(op(7, 0, 1500), op(7, 0, 1500), op(9, 0, 0), op(8, 0, 0), op(8, 0, 0), op(0, 4, 0)))    // page_frag
	f.Add(seq(op(0, 2, 0), op(2, 0, 0), op(1, 0, 0), op(3, 1, 0), op(0, 0, 0), op(1, 0, 0)))          // get/put on a compound block
	f.Add(seq(op(0, 0, 0), op(0, 0, 0), op(11, 6, 0), op(0, 8, 0), op(11, 0, 2), op(1, 0, 1)))        // wrong-order frees

	f.Fuzz(func(t *testing.T, in []byte) {
		l := layout.New(layout.Config{PhysBytes: fuzzPageMemBytes})
		newMachine := func() *pageMachine {
			m, err := New(Config{Layout: l, CPUs: 2})
			if err != nil {
				t.Fatal(err)
			}
			return &pageMachine{m: m}
		}
		lazy, dense := newMachine(), newMachine()
		denseBoot(dense.m)
		for i := 0; len(in) >= 4 && i < 512; i, in = i+1, in[4:] {
			arg := binary.LittleEndian.Uint16(in[2:])
			got, want := lazy.step(in[0], in[1], arg), dense.step(in[0], in[1], arg)
			if strings.HasPrefix(got, mustRefuse) {
				t.Fatalf("step %d: %s", i, got)
			}
			if got != want {
				t.Fatalf("step %d: %q, dense reference %q", i, got, want)
			}
			if got, want := lazy.state(), dense.state(); got != want {
				t.Fatalf("step %d: state %s, dense reference %s", i, got, want)
			}
		}
		for p := layout.PFN(0); p < layout.PFN(lazy.m.NumPages()); p++ {
			if got, want := peekPage(lazy.m, p), *dense.m.mustPage(p); got != want {
				t.Fatalf("PFN %d: %+v, dense reference %+v", p, got, want)
			}
		}
	})
}
