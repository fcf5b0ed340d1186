// Package kexec models kernel code execution on the victim CPU: the kernel
// text image, the NX-bit policy (§2.4: code never executes from data pages),
// callback dispatch, and the ROP/JOP machinery that DMA code-injection
// attacks use to subvert NX.
//
// The text image uses a small fixed-width-free byte encoding with x86-64
// flavored opcodes, rich enough to express the gadgets the paper's exploit
// needs — in particular the JOP stack pivot "%rsp = %rdi + const" located
// with the ROPgadget tool in §6 — and for a scanner to find them the way
// ROPgadget does: by scanning backward from return instructions.
//
// Execution is interpretation: the CPU fetches from the text image when RIP
// is in the text region, faults with ErrNX anywhere else, and performs stack
// pops through simulated memory, so a poisoned ROP stack on a DMA-writable
// data page behaves exactly as it would on hardware.
package kexec

import (
	"bytes"
	"encoding/binary"
	"sync"

	"dmafault/internal/layout"
)

// Opcode bytes of the simulated ISA (chosen to match their x86-64 cousins
// where one exists).
const (
	opRet       = 0xc3 // ret
	opPopRDI    = 0x5f // pop %rdi
	opPopRSI    = 0x5e // pop %rsi
	opPopRAX    = 0x58 // pop %rax
	opMovRDIRAX = 0x90 // mov %rdi, %rax (one-byte stand-in)
	opLeaPfx0   = 0x48 // lea %rsp, [%rdi + imm8]  (3-byte: 48 8d 67 imm8)
	opLeaPfx1   = 0x8d
	opLeaPfx2   = 0x67
	opNop       = 0x66 // filler
	opHalt      = 0xf4 // hlt: clean chain terminator
)

// TextSize is the size of the simulated kernel text image (16 MiB).
const TextSize = 16 << 20

// gadget placement offsets inside the image. They sit inside the region the
// symbol table calls pivot_gadget_area so that leaked-symbol arithmetic can
// address them, but the scanner finds them with no symbol knowledge at all.
const (
	offPivot     = 0x7f0040 // 48 8d 67 imm8 c3 : lea rsp,[rdi+imm8]; ret
	offPopRDI    = 0x7f0100 // 5f c3
	offPopRAX    = 0x7f0140 // 58 c3
	offPopRSI    = 0x7f0180 // 5e c3
	offMovRDIRAX = 0x7f01c0 // 90 c3
	offHalt      = 0x7f0200 // f4

	// PivotDisplacement is the imm8 of the planted pivot gadget: the kernel
	// passes the address of the corrupted struct in %rdi, and the ROP chain
	// starts PivotDisplacement bytes past it.
	PivotDisplacement = 0x10
)

// DefaultBuild is the kernel build every simulated machine boots. The image
// belongs to the build, as a vendor kernel's text does (§6): two boots of one
// build differ only in their KASLR base (§2.4).
const DefaultBuild int64 = 1

// textPage is one 4 KiB page of the image.
type textPage [layout.PageSize]byte

// numTextPages is the image size in pages.
const numTextPages = TextSize / layout.PageSize

// pivotPrefix is the lea prefix of a pivot gadget; the imm8 and ret follow.
var pivotPrefix = []byte{opLeaPfx0, opLeaPfx1, opLeaPfx2}

// plants are the gadgets every build carries at fixed offsets, applied over
// the scrubbed filler.
var plants = [...]struct {
	off  int
	code []byte
}{
	{offPivot, []byte{opLeaPfx0, opLeaPfx1, opLeaPfx2, PivotDisplacement, opRet}},
	{offPopRDI, []byte{opPopRDI, opRet}},
	{offPopRAX, []byte{opPopRAX, opRet}},
	{offPopRSI, []byte{opPopRSI, opRet}},
	{offMovRDIRAX, []byte{opMovRDIRAX, opRet}},
	{offHalt, []byte{opHalt}},
}

// Text is one boot's view of its build's executable image: the KASLR base
// plus the pages this boot has fetched from. The image is a pure function of
// the build, and any page of it can be built on its own, so a boot pays only
// for the text pages it executes. Like the machine it belongs to, a Text is
// used by one goroutine at a time.
type Text struct {
	base  layout.Addr
	build int64
	key   uint64
	pages map[uint64]*textPage
}

// NewText returns the kernel text of a build loaded at base: deterministic
// pseudo-random "instructions" with the exploit-relevant gadgets planted at
// fixed offsets (real kernels likewise contain such gadgets at
// build-determined offsets).
func NewText(base layout.Addr, build int64) *Text {
	return &Text{base: base, build: build, key: buildKey(build)}
}

// buildKey derives the filler stream of a build.
func buildKey(build int64) uint64 { return mix64(uint64(build) ^ 0x6b65726e656c5f31) }

// mix64 is splitmix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fillerWord returns filler word i (image bytes 8i..8i+7, least significant
// first) of the build keyed by key: splitmix64 indexed by word, so any word
// is computed without its predecessors.
func fillerWord(key, i uint64) uint64 { return mix64(key + (i+1)*0x9e3779b97f4a7c15) }

// fillPage writes page p of the image into dst.
func fillPage(dst *textPage, key uint64, p uint64) {
	w0 := p * (layout.PageSize / 8)
	for i := range uint64(layout.PageSize / 8) {
		binary.LittleEndian.PutUint64(dst[8*i:], fillerWord(key, w0+i))
	}
	// Keep accidental pivots out of the filler so gadget discovery is
	// deterministic: break up every 48 8d 67 run by turning its 67 into a
	// nop. Runs cannot overlap and the scrub never rewrites a 48 or an 8d,
	// so whether a byte is scrubbed depends only on it and the two filler
	// bytes before it — for a page's first two bytes, the previous page's
	// last two.
	if p > 0 {
		prev := fillerWord(key, w0-1)
		b2, b1 := byte(prev>>48), byte(prev>>56)
		if b2 == opLeaPfx0 && b1 == opLeaPfx1 && dst[0] == opLeaPfx2 {
			dst[0] = opNop
		}
		if b1 == opLeaPfx0 && dst[0] == opLeaPfx1 && dst[1] == opLeaPfx2 {
			dst[1] = opNop
		}
	}
	for i := 0; ; i += len(pivotPrefix) {
		j := bytes.Index(dst[i:], pivotPrefix)
		if j < 0 {
			break
		}
		i += j
		dst[i+2] = opNop
	}
	lo := int(p) * layout.PageSize
	for _, pl := range plants {
		if pl.off < lo+layout.PageSize && pl.off+len(pl.code) > lo {
			copy(dst[max(pl.off-lo, 0):], pl.code[max(lo-pl.off, 0):])
		}
	}
}

// Base returns the (KASLR-randomized) load address of the image.
func (t *Text) Base() layout.Addr { return t.base }

// Size returns the image size in bytes.
func (t *Text) Size() uint64 { return TextSize }

// Contains reports whether the address falls inside the image.
func (t *Text) Contains(a layout.Addr) bool {
	return a >= t.base && a < t.base+TextSize
}

// ResidentPages returns how many text pages this boot has built.
func (t *Text) ResidentPages() int { return len(t.pages) }

// fetch returns the byte at the address (caller checked Contains), building
// its page on first use.
func (t *Text) fetch(a layout.Addr) byte {
	off := uint64(a - t.base)
	p := off / layout.PageSize
	pg := t.pages[p]
	if pg == nil {
		if t.pages == nil {
			t.pages = make(map[uint64]*textPage)
		}
		pg = new(textPage)
		fillPage(pg, t.key, p)
		t.pages[p] = pg
	}
	return pg[off%layout.PageSize]
}

// Gadget is one scanner finding.
type Gadget struct {
	Offset uint64 // offset in the image; runtime address = base + offset
	Kind   GadgetKind
	Imm    byte // displacement for pivot gadgets
}

// GadgetKind classifies a found gadget.
type GadgetKind int

const (
	GadgetPivot GadgetKind = iota // lea %rsp,[%rdi+imm8]; ret
	GadgetPopRDI
	GadgetPopRAX
	GadgetPopRSI
	GadgetMovRDIRAX
	GadgetHalt
)

// String names the gadget in disassembly style.
func (k GadgetKind) String() string {
	switch k {
	case GadgetPivot:
		return "lea rsp,[rdi+imm]; ret"
	case GadgetPopRDI:
		return "pop rdi; ret"
	case GadgetPopRAX:
		return "pop rax; ret"
	case GadgetPopRSI:
		return "pop rsi; ret"
	case GadgetMovRDIRAX:
		return "mov rdi, rax; ret"
	case GadgetHalt:
		return "hlt"
	default:
		return "unknown"
	}
}

// Scan is the ROPgadget-equivalent: it walks the image looking for short
// instruction sequences that end in a return (plus hlt terminators), the way
// §6 located the JOP gadget "%rsp = %rdi + const".
func (t *Text) Scan() []Gadget {
	var out []Gadget
	walk(t.key, func(g Gadget) bool {
		out = append(out, g)
		return true
	})
	return out
}

// walk streams the image of the build keyed by key page by page through one
// buffer and passes fn each gadget in Scan order until fn returns false.
func walk(key uint64, fn func(Gadget) bool) {
	// w holds the last 4 bytes of the previous page, then the page: a
	// gadget ending on a page may begin on the one before. Before page 0
	// the lookback is zeros, which start no gadget.
	var w [4 + layout.PageSize]byte
	for p := uint64(0); p < numTextPages; p++ {
		copy(w[:4], w[layout.PageSize:])
		fillPage((*textPage)(w[4:]), key, p)
		at := func(i int) uint64 { return p*layout.PageSize + uint64(i) - 4 }
		// Every gadget ends in a ret or is a hlt: visit those in order.
		r, h := nextByte(w[:], 4, opRet), nextByte(w[:], 4, opHalt)
		for r < len(w) || h < len(w) {
			if h < r {
				if !fn(Gadget{Offset: at(h), Kind: GadgetHalt}) {
					return
				}
				h = nextByte(w[:], h+1, opHalt)
				continue
			}
			i := r
			r = nextByte(w[:], i+1, opRet)
			// Look backward for a recognized sequence ending here.
			if w[i-4] == opLeaPfx0 && w[i-3] == opLeaPfx1 && w[i-2] == opLeaPfx2 {
				if !fn(Gadget{Offset: at(i - 4), Kind: GadgetPivot, Imm: w[i-1]}) {
					return
				}
			}
			var kind GadgetKind
			switch w[i-1] {
			case opPopRDI:
				kind = GadgetPopRDI
			case opPopRAX:
				kind = GadgetPopRAX
			case opPopRSI:
				kind = GadgetPopRSI
			case opMovRDIRAX:
				kind = GadgetMovRDIRAX
			default:
				continue
			}
			if !fn(Gadget{Offset: at(i - 1), Kind: kind}) {
				return
			}
		}
	}
}

// nextByte returns the index of the first c in b at or after from, or len(b).
func nextByte(b []byte, from int, c byte) int {
	if j := bytes.IndexByte(b[from:], c); j >= 0 {
		return from + j
	}
	return len(b)
}

// numGadgetKinds is the number of gadget kinds.
const numGadgetKinds = int(GadgetHalt) + 1

// firstGadgets is the offline analysis of one build: the first gadget of
// every kind in Scan order, which is the lowest offset of that kind.
type firstGadgets struct {
	first [numGadgetKinds]Gadget
	found [numGadgetKinds]bool
}

// scanBuild runs the offline analysis with one streamed walk, stopping once
// every kind is found.
func scanBuild(build int64) firstGadgets {
	var fg firstGadgets
	n := 0
	walk(buildKey(build), func(g Gadget) bool {
		if !fg.found[g.Kind] {
			fg.first[g.Kind], fg.found[g.Kind] = g, true
			n++
		}
		return n < numGadgetKinds
	})
	return fg
}

// analyses memoises scanBuild: the attacker scans a build once, offline,
// however many machines run it. An entry is a few words per build.
var analyses = struct {
	sync.Mutex
	byBuild map[int64]*analysis
}{byBuild: make(map[int64]*analysis)}

type analysis struct {
	once sync.Once
	firstGadgets
}

// analyze returns the build's offline analysis, scanning it on first use.
// Concurrent callers share one scan.
func analyze(build int64) *firstGadgets {
	analyses.Lock()
	a := analyses.byBuild[build]
	if a == nil {
		a = new(analysis)
		analyses.byBuild[build] = a
	}
	analyses.Unlock()
	a.once.Do(func() { a.firstGadgets = scanBuild(build) })
	return &a.firstGadgets
}

// FindGadget returns the first gadget of the kind, as an image offset: the
// gadget Scan lists first for that kind, from the build's memoised offline
// analysis.
func (t *Text) FindGadget(kind GadgetKind) (Gadget, bool) {
	if kind < 0 || int(kind) >= numGadgetKinds {
		return Gadget{}, false
	}
	fg := analyze(t.build)
	return fg.first[kind], fg.found[kind]
}
