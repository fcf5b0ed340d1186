package kexec

import (
	"errors"
	"testing"

	"dmafault/internal/layout"
	"dmafault/internal/mem"
)

func newKernel(t testing.TB, seed int64) (*Kernel, *mem.Memory) {
	t.Helper()
	l := layout.New(layout.Config{KASLR: true, Seed: seed, PhysBytes: 32 << 20})
	m, err := mem.New(mem.Config{Layout: l, CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return NewKernel(m, seed), m
}

func TestTextDeterministicPerSeed(t *testing.T) {
	a := NewText(layout.TextStart, 1)
	b := NewText(layout.TextStart, 1)
	c := NewText(layout.TextStart, 2)
	if a.fetch(layout.TextStart+12345) != b.fetch(layout.TextStart+12345) {
		t.Error("same build, different image")
	}
	same := true
	for off := layout.Addr(0); off < 4096; off++ {
		if a.fetch(layout.TextStart+off) != c.fetch(layout.TextStart+off) {
			same = false
			break
		}
	}
	if same {
		t.Error("different builds produced identical image prefix")
	}
}

func TestScannerFindsPlantedGadgets(t *testing.T) {
	tx := NewText(layout.TextStart, 7)
	wantKinds := []GadgetKind{GadgetPivot, GadgetPopRDI, GadgetPopRAX, GadgetPopRSI, GadgetMovRDIRAX, GadgetHalt}
	for _, k := range wantKinds {
		if _, ok := tx.FindGadget(k); !ok {
			t.Errorf("gadget %v not found", k)
		}
	}
	// Exactly one pivot (filler is scrubbed of accidental pivots).
	pivots := 0
	for _, g := range tx.Scan() {
		if g.Kind == GadgetPivot {
			pivots++
			if g.Offset != offPivot || g.Imm != PivotDisplacement {
				t.Errorf("pivot at %#x imm %#x", g.Offset, g.Imm)
			}
		}
	}
	if pivots != 1 {
		t.Errorf("found %d pivot gadgets, want 1", pivots)
	}
}

func TestBenignCallbackInvocation(t *testing.T) {
	k, _ := newKernel(t, 3)
	ran := false
	k.RegisterSymbol("sock_wfree", func(cpu *CPU) error {
		ran = true
		if cpu.RDI != 0xabcd {
			t.Errorf("arg = %#x", cpu.RDI)
		}
		return nil
	})
	fn, err := k.FuncAddr("sock_wfree")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.InvokeCallback(fn, 0xabcd); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("callback did not run")
	}
	if k.Invocations["sock_wfree"] != 1 {
		t.Errorf("Invocations = %v", k.Invocations)
	}
}

func TestNXBlocksDirectDataExecution(t *testing.T) {
	// §2.4: pointing a callback straight at a data page faults — code
	// injection needs ROP/JOP.
	k, m := newKernel(t, 3)
	buf, _ := m.Slab.Kmalloc(0, 512, "payload")
	err := k.InvokeCallback(buf, 0)
	if !errors.Is(err, ErrNX) {
		t.Fatalf("err = %v, want ErrNX", err)
	}
	if k.Escalations != 0 {
		t.Error("escalated through NX")
	}
}

func TestJOPPivotROPChainEscalates(t *testing.T) {
	// The full §6 mechanism: the kernel "calls" the corrupted callback with
	// %rdi = address of the containing struct; the callback points at the
	// pivot gadget; the ROP chain lies PivotDisplacement bytes into the
	// struct; the chain escalates privileges despite NX.
	k, m := newKernel(t, 9)
	structAddr, err := m.Slab.Kmalloc(0, 256, "ubuf_info")
	if err != nil {
		t.Fatal(err)
	}
	offsets, err := ExtractBuildOffsets(k.Text(), m.Layout().Symbols())
	if err != nil {
		t.Fatal(err)
	}
	addrs := ResolveChainAddresses(m.Layout().TextBase, offsets)
	chain := EscalationChainBytes(addrs)
	if err := m.Write(structAddr+PivotDisplacement, chain); err != nil {
		t.Fatal(err)
	}
	pivot := m.Layout().TextBase + layout.Addr(offsets.Pivot)
	if err := k.InvokeCallback(pivot, uint64(structAddr)); err != nil {
		t.Fatalf("exploit chain failed: %v", err)
	}
	if k.Escalations != 1 {
		t.Fatalf("Escalations = %d", k.Escalations)
	}
}

func TestChainFailsWithWrongCred(t *testing.T) {
	// A chain that calls commit_creds without prepare_kernel_cred's token
	// must not escalate.
	k, m := newKernel(t, 9)
	structAddr, _ := m.Slab.Kmalloc(0, 256, "ubuf_info")
	offsets, _ := ExtractBuildOffsets(k.Text(), m.Layout().Symbols())
	a := ResolveChainAddresses(m.Layout().TextBase, offsets)
	chain := ChainBytes([]uint64{
		uint64(a.PopRDI), 0x1234, // bogus cred
		uint64(a.CommitCreds),
		uint64(a.Halt),
	})
	if err := m.Write(structAddr+PivotDisplacement, chain); err != nil {
		t.Fatal(err)
	}
	pivot := m.Layout().TextBase + layout.Addr(offsets.Pivot)
	if err := k.InvokeCallback(pivot, uint64(structAddr)); err == nil {
		t.Error("bogus cred accepted")
	}
	if k.Escalations != 0 {
		t.Error("escalated with bogus cred")
	}
}

func TestCETBlocksROPChain(t *testing.T) {
	// §8: shadow-stack returns kill the chain (its returns were never calls).
	k, m := newKernel(t, 9)
	k.CETEnabled = true
	structAddr, _ := m.Slab.Kmalloc(0, 256, "ubuf_info")
	offsets, _ := ExtractBuildOffsets(k.Text(), m.Layout().Symbols())
	addrs := ResolveChainAddresses(m.Layout().TextBase, offsets)
	if err := m.Write(structAddr+PivotDisplacement, EscalationChainBytes(addrs)); err != nil {
		t.Fatal(err)
	}
	pivot := m.Layout().TextBase + layout.Addr(offsets.Pivot)
	err := k.InvokeCallback(pivot, uint64(structAddr))
	if !errors.Is(err, ErrCET) {
		t.Fatalf("err = %v, want ErrCET", err)
	}
	if k.Escalations != 0 {
		t.Error("escalated under CET")
	}
	// Benign native callbacks still work under CET.
	k.RegisterSymbol("benign", func(cpu *CPU) error { return nil })
	fn, _ := k.FuncAddr("benign")
	if err := k.InvokeCallback(fn, 0); err != nil {
		t.Errorf("benign callback under CET: %v", err)
	}
}

func TestRunawayAndInvalidOpcode(t *testing.T) {
	k, m := newKernel(t, 4)
	// Point the callback at raw filler: eventually an invalid opcode, a
	// fault, or the step limit — never an escalation.
	err := k.InvokeCallback(m.Layout().TextBase+0x1000, 0)
	if err == nil {
		t.Skip("filler happened to execute to completion (acceptable)")
	}
	if k.Escalations != 0 {
		t.Error("filler execution escalated")
	}
}

func TestChainPopsGoThroughSimulatedMemory(t *testing.T) {
	// Stack pops must fail cleanly when the pivot target is unmapped.
	k, m := newKernel(t, 9)
	offsets, _ := ExtractBuildOffsets(k.Text(), m.Layout().Symbols())
	pivot := m.Layout().TextBase + layout.Addr(offsets.Pivot)
	err := k.InvokeCallback(pivot, uint64(layout.VmallocStart))
	if err == nil {
		t.Error("pivot into unmapped memory succeeded")
	}
}

func TestFuncAddrErrors(t *testing.T) {
	k, _ := newKernel(t, 3)
	if _, err := k.FuncAddr("never_registered"); err == nil {
		t.Error("unknown function resolved")
	}
	if _, err := k.GadgetAddr(GadgetPivot); err != nil {
		t.Errorf("GadgetAddr(pivot): %v", err)
	}
}

func TestGadgetKindStrings(t *testing.T) {
	kinds := []GadgetKind{GadgetPivot, GadgetPopRDI, GadgetPopRAX, GadgetPopRSI, GadgetMovRDIRAX, GadgetHalt, GadgetKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
}

func TestExtractBuildOffsetsMatchesPlacement(t *testing.T) {
	tx := NewText(layout.TextStart, 1)
	l := layout.New(layout.Config{PhysBytes: 16 << 20})
	o, err := ExtractBuildOffsets(tx, l.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if o.Pivot != offPivot || o.PivotImm != PivotDisplacement {
		t.Errorf("pivot offsets: %+v", o)
	}
	wantPC, _ := l.Symbols().Offset("prepare_kernel_cred")
	if o.PrepareCred != wantPC {
		t.Errorf("PrepareCred = %#x, want %#x", o.PrepareCred, wantPC)
	}
}
