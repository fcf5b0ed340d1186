package device

import (
	"bytes"
	"testing"

	"dmafault/internal/core"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
)

const nicDev iommu.DeviceID = 1

func newVictim(t *testing.T, mode iommu.Mode) (*core.System, *netstack.NIC, *Attacker) {
	t.Helper()
	sys, err := core.New(core.WithSeed(99), core.WithIOMMUMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	nic, err := sys.AddNIC(nicDev, netstack.DriverI40E, 0)
	if err != nil {
		t.Fatal(err)
	}
	build, err := kexec.ExtractBuildOffsets(sys.Kernel.Text(), sys.Layout.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	atk := NewAttacker(nicDev, sys.Bus, sys.Layout.Symbols(), build)
	return sys, nic, atk
}

func TestAttackerCannotReadWriteOnlyRXBuffers(t *testing.T) {
	_, nic, atk := newVictim(t, iommu.Strict)
	d := nic.RXRing()[0]
	if atk.CanRead(d.IOVA) {
		t.Error("RX (WRITE) buffer readable by device")
	}
	if !atk.CanWrite(d.IOVA) {
		t.Error("RX buffer not writable by device")
	}
	if _, err := atk.ReadWords(d.IOVA, 4); err == nil {
		t.Error("ReadWords succeeded on WRITE-only mapping")
	}
}

func TestScanControlBufferLeaksInitNet(t *testing.T) {
	// Type (d) in action: the NIC's kmalloc'd admin buffer shares its
	// 512-class slab page with freshly allocated socket objects, whose
	// namespace pointers identify init_net and break KASLR text.
	sys, nic, atk := newVictim(t, iommu.Strict)
	cb, err := nic.MapControlBuffer()
	if err != nil {
		t.Fatal(err)
	}
	// The victim workload opens sockets; same slab class → same page.
	var socks []*netstack.Socket
	for i := 0; i < 6; i++ {
		s, err := sys.Net.AllocSocket(0, "sock_alloc_inode+0x4f")
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, s)
	}
	cbPFN, _ := sys.Layout.KVAToPFN(cb.KVA)
	coLocated := false
	for _, s := range socks {
		p, _ := sys.Layout.KVAToPFN(s.Addr)
		if p == cbPFN {
			coLocated = true
		}
	}
	if !coLocated {
		t.Fatal("no socket co-located with control buffer; slab placement model broken")
	}
	if used := atk.ScanReadable([]iommu.IOVA{cb.IOVA}); used == 0 {
		t.Fatal("scan consumed no pointers")
	}
	got, err := atk.Infer.TextBase()
	if err != nil {
		t.Fatalf("text base not recovered: %v", err)
	}
	if got != sys.Layout.TextBase {
		t.Fatalf("recovered %#x, want %#x", uint64(got), uint64(sys.Layout.TextBase))
	}
	// The scan also picked up direct-map pointers (slab freelist words or
	// socket fields), pinning page_offset_base.
	if base, err := atk.Infer.PageOffsetBase(); err == nil && base != sys.Layout.PageOffsetBase {
		t.Fatalf("page_offset_base mis-recovered: %#x vs %#x", uint64(base), uint64(sys.Layout.PageOffsetBase))
	}
	for _, s := range socks {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := nic.UnmapControlBuffer(cb); err != nil {
		t.Fatal(err)
	}
}

func TestReadTXSharedInfoRecoversBasesAndKVAs(t *testing.T) {
	// Fig. 8: the device reads a TX packet's shared info and translates
	// frag struct pages to KVAs using only inferred bases.
	sys, nic, atk := newVictim(t, iommu.Strict)
	echo := netstack.NewEchoService(sys.Net, nic)
	payload := make([]byte, 2040) // fits one RX buffer; echoed reply still frags
	for i := range payload {
		payload[i] = byte(i)
	}
	d := nic.RXRing()[0]
	if err := sys.Bus.Write(nicDev, d.IOVA, payload); err != nil {
		t.Fatal(err)
	}
	if err := nic.ReceiveOn(0, uint32(len(payload)), netstack.ProtoUDP, 11); err != nil {
		t.Fatal(err)
	}
	if echo.Echoed != 1 || nic.PendingTX() != 1 {
		t.Fatalf("echo state: %d echoed, %d pending", echo.Echoed, nic.PendingTX())
	}
	tx := nic.TXRing()[0]
	view, err := atk.ReadTXSharedInfo(tx.LinearVA, 128)
	if err != nil {
		t.Fatal(err)
	}
	if view.NrFrags != 1 {
		t.Fatalf("NrFrags = %d, want 1 (2040B fits one chunk)", view.NrFrags)
	}
	if view.DestructorArg == 0 {
		t.Fatal("zerocopy destructor_arg not present in TX shared info")
	}
	// Bases recovered purely from the leak.
	vb, err := atk.Infer.VmemmapBase()
	if err != nil || vb != sys.Layout.VmemmapBase {
		t.Fatalf("vmemmap base = %#x, %v; want %#x", uint64(vb), err, uint64(sys.Layout.VmemmapBase))
	}
	pb, err := atk.Infer.PageOffsetBase()
	if err != nil || pb != sys.Layout.PageOffsetBase {
		t.Fatalf("page_offset_base = %#x, %v; want %#x", uint64(pb), err, uint64(sys.Layout.PageOffsetBase))
	}
	// Frag KVA translation matches ground truth.
	f := view.Frags[0]
	gotKVA, err := atk.FragKVA(f)
	if err != nil {
		t.Fatal(err)
	}
	groundPFN, err := sys.Layout.StructPageToPFN(layout.Addr(f.PagePtr))
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Layout.PFNToKVA(groundPFN) + layout.Addr(f.Off)
	if gotKVA != want {
		t.Fatalf("FragKVA = %#x, want %#x", uint64(gotKVA), uint64(want))
	}
	// The device can read its own echoed bytes through the TX frag mapping.
	buf := make([]byte, 16)
	if err := sys.Bus.Read(nicDev, tx.FragVAs[0], buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != payload[i] {
			t.Fatalf("echoed byte %d = %#x", i, buf[i])
		}
	}
}

func TestPlantPayloadRequiresKASLRBreak(t *testing.T) {
	_, nic, atk := newVictim(t, iommu.Strict)
	d := nic.RXRing()[0]
	if err := atk.PlantPayload(d.IOVA, 0xffff888000000000, d.Cap); err == nil {
		t.Error("PlantPayload succeeded without recovered text base")
	}
}

func TestPlantPayloadWritesFig4Structure(t *testing.T) {
	sys, nic, atk := newVictim(t, iommu.Strict)
	// Give the attacker the text base via the init_net route.
	initNet, _ := sys.Layout.SymbolKVA("init_net")
	atk.Infer.ObserveWords([]uint64{uint64(initNet)})
	d := nic.RXRing()[0]
	if err := atk.PlantPayload(d.IOVA, d.Data, d.Cap); err != nil {
		t.Fatal(err)
	}
	// Ground truth checks via CPU reads.
	siKVA := d.Data + layout.Addr(netstack.TruesizeFor(d.Cap)-netstack.SharedInfoSize)
	darg, err := sys.Mem.ReadU64(siKVA + netstack.SharedInfoDestructorArgOff)
	if err != nil {
		t.Fatal(err)
	}
	if layout.Addr(darg) != d.Data+256 {
		t.Fatalf("destructor_arg = %#x, want %#x", darg, uint64(d.Data+256))
	}
	cb, _ := sys.Mem.ReadU64(layout.Addr(darg) + netstack.UbufCallbackOff)
	wantPivot := sys.Layout.TextBase + layout.Addr(atk.Build.Pivot)
	if layout.Addr(cb) != wantPivot {
		t.Fatalf("planted callback = %#x, want pivot %#x", cb, uint64(wantPivot))
	}
	// The chain's first word is the pop rdi gadget.
	first, _ := sys.Mem.ReadU64(layout.Addr(darg) + kexec.PivotDisplacement)
	if layout.Addr(first) != sys.Layout.TextBase+layout.Addr(atk.Build.PopRDI) {
		t.Fatalf("chain[0] = %#x", first)
	}
}

// TestPlantRendersPayloadOncePerTextBase plants into two RX buffers and
// requires one rendering of the payload for both; a changed text base (a
// fresh inference) must render it again, with the pivot at the new base.
func TestPlantRendersPayloadOncePerTextBase(t *testing.T) {
	sys, nic, atk := newVictim(t, iommu.Strict)
	initNet, _ := sys.Layout.SymbolKVA("init_net")
	atk.Infer.ObserveWords([]uint64{uint64(initNet)})
	ring := nic.RXRing()
	callback := func(d netstack.RXDesc) layout.Addr {
		t.Helper()
		cb, err := sys.Mem.ReadU64(d.Data + UbufPlantOffset + netstack.UbufCallbackOff)
		if err != nil {
			t.Fatal(err)
		}
		return layout.Addr(cb)
	}

	if err := atk.PlantUbufAndChain(ring[0].IOVA); err != nil {
		t.Fatal(err)
	}
	first := &atk.plant[0]
	if err := atk.PlantUbufAndChain(ring[1].IOVA); err != nil {
		t.Fatal(err)
	}
	if &atk.plant[0] != first {
		t.Error("the second plant rendered the payload again")
	}
	want := sys.Layout.TextBase + layout.Addr(atk.Build.Pivot)
	for i := range 2 {
		if got := callback(ring[i]); got != want {
			t.Errorf("buffer %d: planted callback %#x, want pivot %#x", i, uint64(got), uint64(want))
		}
	}

	atk.Infer = layout.NewInferencer(sys.Layout.Symbols())
	atk.Infer.ObserveWords([]uint64{uint64(initNet + layout.TextAlign)})
	if err := atk.PlantUbufAndChain(ring[2].IOVA); err != nil {
		t.Fatal(err)
	}
	want += layout.TextAlign
	if got := callback(ring[2]); got != want {
		t.Errorf("after a new text base: planted callback %#x, want pivot %#x", uint64(got), uint64(want))
	}
	fresh, err := atk.PayloadBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(atk.plant, fresh) {
		t.Error("the cached payload differs from a fresh rendering at the new text base")
	}
}

func TestWriteTXFragAndSetNrFrags(t *testing.T) {
	sys, nic, atk := newVictim(t, iommu.Strict)
	d := nic.RXRing()[0]
	// Spoof: mark one frag pointing at an arbitrary struct page.
	target := sys.Layout.PFNToStructPage(1234)
	if err := atk.SetNrFrags(d.IOVA, d.Cap, 1); err != nil {
		t.Fatal(err)
	}
	if err := atk.WriteTXFrag(d.IOVA, d.Cap, 0, DeviceFrag{PagePtr: uint64(target), Off: 0, Len: 64}); err != nil {
		t.Fatal(err)
	}
	if err := atk.WriteTXFrag(d.IOVA, d.Cap, netstack.MaxFrags, DeviceFrag{}); err == nil {
		t.Error("out-of-range frag write accepted")
	}
	// CPU-side view agrees.
	siKVA := d.Data + layout.Addr(netstack.TruesizeFor(d.Cap)-netstack.SharedInfoSize)
	nr, _ := sys.Mem.ReadU16(siKVA + netstack.SharedInfoNrFragsOff)
	if nr != 1 {
		t.Fatalf("nr_frags = %d", nr)
	}
	ptr, _ := sys.Mem.ReadU64(siKVA + netstack.SharedInfoFragsOff)
	if layout.Addr(ptr) != target {
		t.Fatalf("frag ptr = %#x", ptr)
	}
}

func TestReadTXSharedInfoRejectsUnmapped(t *testing.T) {
	_, _, atk := newVictim(t, iommu.Strict)
	if _, err := atk.ReadTXSharedInfo(iommu.IOVA(1<<40), 128); err == nil {
		t.Error("read of unmapped shared info accepted")
	}
}
