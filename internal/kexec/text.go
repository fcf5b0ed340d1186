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
	"math/rand"
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

// Text is the kernel's executable image plus its base address. The image is
// a pure function of the seed and is built the first time something fetches,
// scans or searches it; boots that never execute kernel code never pay for
// its 16 MiB.
type Text struct {
	base  layout.Addr
	seed  int64
	once  sync.Once
	bytes []byte
}

// NewText returns the kernel text image for a seed: deterministic
// pseudo-random "instructions" with the exploit-relevant gadgets planted at
// fixed offsets (real kernels likewise contain such gadgets at
// build-determined offsets).
func NewText(base layout.Addr, seed int64) *Text {
	return &Text{base: base, seed: seed}
}

// image returns the image bytes, synthesizing them on first use.
func (t *Text) image() []byte {
	t.once.Do(func() { t.bytes = synthesize(t.seed) })
	return t.bytes
}

// synthesize builds the image for a seed.
func synthesize(seed int64) []byte {
	b := make([]byte, TextSize)
	fillRandom(b, rand.NewSource(seed))
	// Keep accidental pivots out of the filler so gadget discovery is
	// deterministic: break up any 48 8d 67 run. Runs cannot overlap, so
	// resuming past each one sees every run.
	pivot := []byte{opLeaPfx0, opLeaPfx1, opLeaPfx2}
	for i := 0; ; i += len(pivot) {
		j := bytes.Index(b[i:], pivot)
		if j < 0 {
			break
		}
		i += j
		b[i+2] = opNop
	}
	plant := func(off int, bs ...byte) { copy(b[off:], bs) }
	plant(offPivot, opLeaPfx0, opLeaPfx1, opLeaPfx2, PivotDisplacement, opRet)
	plant(offPopRDI, opPopRDI, opRet)
	plant(offPopRAX, opPopRAX, opRet)
	plant(offPopRSI, opPopRSI, opRet)
	plant(offMovRDIRAX, opMovRDIRAX, opRet)
	plant(offHalt, opHalt)
	return b
}

// fillRandom writes exactly what rand.New(src).Read(b) writes: seven bytes
// per Int63, least significant first. Each group is stored as one 8-byte
// word whose top byte the next group overwrites.
func fillRandom(b []byte, src rand.Source) {
	i := 0
	for ; i+8 <= len(b); i += 7 {
		binary.LittleEndian.PutUint64(b[i:], uint64(src.Int63()))
	}
	for i < len(b) {
		v := src.Int63()
		for j := 0; j < 7 && i < len(b); j++ {
			b[i] = byte(v)
			v >>= 8
			i++
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

// fetch returns the byte at the address (caller checked Contains).
func (t *Text) fetch(a layout.Addr) byte { return t.image()[a-t.base] }

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
	b := t.image()
	var out []Gadget
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case opRet:
			// Look backward for a recognized sequence ending here.
			if i >= 4 && b[i-4] == opLeaPfx0 && b[i-3] == opLeaPfx1 && b[i-2] == opLeaPfx2 {
				out = append(out, Gadget{Offset: uint64(i - 4), Kind: GadgetPivot, Imm: b[i-1]})
			}
			if i >= 1 {
				switch b[i-1] {
				case opPopRDI:
					out = append(out, Gadget{Offset: uint64(i - 1), Kind: GadgetPopRDI})
				case opPopRAX:
					out = append(out, Gadget{Offset: uint64(i - 1), Kind: GadgetPopRAX})
				case opPopRSI:
					out = append(out, Gadget{Offset: uint64(i - 1), Kind: GadgetPopRSI})
				case opMovRDIRAX:
					out = append(out, Gadget{Offset: uint64(i - 1), Kind: GadgetMovRDIRAX})
				}
			}
		case opHalt:
			out = append(out, Gadget{Offset: uint64(i), Kind: GadgetHalt})
		}
	}
	return out
}

// gadgetPatterns are the byte sequences FindGadget searches for, by kind.
// The pivot's pattern is its lea prefix; the imm8 and ret follow it.
var gadgetPatterns = [...][]byte{
	GadgetPivot:     {opLeaPfx0, opLeaPfx1, opLeaPfx2},
	GadgetPopRDI:    {opPopRDI, opRet},
	GadgetPopRAX:    {opPopRAX, opRet},
	GadgetPopRSI:    {opPopRSI, opRet},
	GadgetMovRDIRAX: {opMovRDIRAX, opRet},
	GadgetHalt:      {opHalt},
}

// FindGadget returns the first gadget of the kind, as an image offset: the
// gadget Scan lists first for that kind, found without building the list.
func (t *Text) FindGadget(kind GadgetKind) (Gadget, bool) {
	if kind < 0 || int(kind) >= len(gadgetPatterns) {
		return Gadget{}, false
	}
	b, pat := t.image(), gadgetPatterns[kind]
	for i := 0; ; i++ {
		j := bytes.Index(b[i:], pat)
		if j < 0 {
			return Gadget{}, false
		}
		i += j
		if kind != GadgetPivot {
			return Gadget{Offset: uint64(i), Kind: kind}, true
		}
		if i+4 < len(b) && b[i+4] == opRet {
			return Gadget{Offset: uint64(i), Kind: kind, Imm: b[i+3]}, true
		}
	}
}
