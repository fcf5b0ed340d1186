package kexec

import (
	"errors"
	"fmt"

	"dmafault/internal/layout"
	"dmafault/internal/mem"
)

// Execution faults.
var (
	// ErrNX is raised when the CPU fetches code from a non-text address:
	// the NX-bit / DEP policy of §2.4. Plain code injection into a data
	// page dies here; that is why the attacks need ROP/JOP.
	ErrNX = errors.New("kexec: NX fault: instruction fetch from data page")
	// ErrCET is raised by the shadow-stack extension (§8, Intel CET) when a
	// return address does not match the shadow stack.
	ErrCET = errors.New("kexec: CET fault: shadow stack mismatch on return")
	// ErrInvalidOpcode is raised on undecodable bytes.
	ErrInvalidOpcode = errors.New("kexec: invalid opcode")
	// ErrRunaway bounds interpretation.
	ErrRunaway = errors.New("kexec: runaway execution (step limit)")
)

// KernelFunc is a native kernel function callable through a pointer: the
// benign callback targets (sock_wfree, a ubuf_info callback, ...) and the
// privileged primitives ROP payloads chain to. Args arrive in %rdi/%rsi,
// results in %rax.
type KernelFunc func(cpu *CPU) error

// Kernel owns the text image, the registered native functions, and the
// privilege state an attack tries to corrupt.
type Kernel struct {
	mem   *mem.Memory
	text  *Text
	funcs map[layout.Addr]namedFunc

	// credToken is the opaque value prepare_kernel_cred returns; passing it
	// to commit_creds escalates.
	credToken uint64
	// Escalations counts successful privilege escalations (code injection
	// success criterion for every attack in the paper).
	Escalations int
	// CETEnabled turns on the shadow-stack mitigation (§8).
	CETEnabled bool

	// Invocations counts benign native callback invocations, letting tests
	// tell "callback ran normally" from "callback was hijacked".
	Invocations map[string]int

	// OnDispatch, if set, observes every callback invocation (tracing).
	OnDispatch func(fn layout.Addr, arg uint64)
	// OnEscalation, if set, observes successful privilege escalations.
	OnEscalation func()
}

type namedFunc struct {
	name string
	fn   KernelFunc
}

// StepLimit bounds one InvokeCallback interpretation.
const StepLimit = 4096

// NewKernel builds the kernel execution model over memory, placing the text
// image of the build at the layout's randomized text base and registering the
// privileged primitives at their symbol-table offsets.
func NewKernel(m *mem.Memory, build int64) *Kernel {
	l := m.Layout()
	k := &Kernel{
		mem:         m,
		text:        NewText(l.TextBase, build),
		funcs:       make(map[layout.Addr]namedFunc),
		credToken:   0x637265645f746f6b, // "cred_tok"
		Invocations: make(map[string]int),
	}
	k.RegisterSymbol("prepare_kernel_cred", func(cpu *CPU) error {
		cpu.RAX = k.credToken
		return nil
	})
	k.RegisterSymbol("commit_creds", func(cpu *CPU) error {
		if cpu.RDI == k.credToken {
			k.Escalations++
			if k.OnEscalation != nil {
				k.OnEscalation()
			}
			return nil
		}
		return fmt.Errorf("kexec: commit_creds with bad cred %#x", cpu.RDI)
	})
	return k
}

// Text returns the kernel text image.
func (k *Kernel) Text() *Text { return k.text }

// Mem returns the memory the CPU executes against.
func (k *Kernel) Mem() *mem.Memory { return k.mem }

// RegisterSymbol binds a native function to an existing kernel symbol.
func (k *Kernel) RegisterSymbol(name string, fn KernelFunc) {
	addr, err := k.mem.Layout().SymbolKVA(name)
	if err != nil {
		// Register the symbol at a fresh text offset past the gadget area.
		off := uint64(0x800000 + len(k.funcs)*0x40)
		k.mem.Layout().Symbols().Add(name, off)
		addr = k.text.base + layout.Addr(off)
	}
	k.funcs[addr] = namedFunc{name: name, fn: fn}
}

// FuncAddr returns the runtime address of a registered native function.
func (k *Kernel) FuncAddr(name string) (layout.Addr, error) {
	for a, nf := range k.funcs {
		if nf.name == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("kexec: function %q not registered", name)
}

// GadgetAddr returns the runtime address of the first gadget of a kind.
func (k *Kernel) GadgetAddr(kind GadgetKind) (layout.Addr, error) {
	g, ok := k.text.FindGadget(kind)
	if !ok {
		return 0, fmt.Errorf("kexec: no %v gadget in image", kind)
	}
	return k.text.base + layout.Addr(g.Offset), nil
}

// CPU is the architectural state one callback invocation runs with.
type CPU struct {
	RIP, RSP    layout.Addr
	RDI, RSI    uint64
	RAX         uint64
	shadowStack []layout.Addr
	kernel      *Kernel
	steps       int
}

// InvokeCallback simulates the kernel calling a function pointer with one
// pointer argument in %rdi — e.g. invoking skb_shared_info->destructor_arg's
// ubuf_info callback when an sk_buff is released (Fig. 4 step d).
//
// Dispatch rules, in order:
//  1. fn is a registered native kernel function → it runs natively (the
//     benign case, or a ROP chain entry reaching a privileged primitive);
//  2. fn lies in kernel text → the interpreter runs from there (gadgets);
//  3. anything else → ErrNX. The device cannot simply point the callback at
//     its payload; it must pivot through text gadgets.
func (k *Kernel) InvokeCallback(fn layout.Addr, arg uint64) error {
	if k.OnDispatch != nil {
		k.OnDispatch(fn, arg)
	}
	cpu := &CPU{RIP: fn, RDI: arg, kernel: k}
	return cpu.run()
}

func (c *CPU) run() error {
	k := c.kernel
	for {
		if c.steps++; c.steps > StepLimit {
			return ErrRunaway
		}
		if nf, ok := k.funcs[c.RIP]; ok {
			k.Invocations[nf.name]++
			if err := nf.fn(c); err != nil {
				return err
			}
			// Native functions end in ret.
			if done, err := c.ret(); done || err != nil {
				return err
			}
			continue
		}
		if !k.text.Contains(c.RIP) {
			return fmt.Errorf("%w (RIP %#x)", ErrNX, uint64(c.RIP))
		}
		op := k.text.fetch(c.RIP)
		switch op {
		case opRet:
			if done, err := c.ret(); done || err != nil {
				return err
			}
		case opHalt:
			return nil
		case opNop:
			c.RIP++
		case opPopRDI:
			v, err := c.pop()
			if err != nil {
				return err
			}
			c.RDI = uint64(v)
			c.RIP++
		case opPopRSI:
			v, err := c.pop()
			if err != nil {
				return err
			}
			c.RSI = uint64(v)
			c.RIP++
		case opPopRAX:
			v, err := c.pop()
			if err != nil {
				return err
			}
			c.RAX = uint64(v)
			c.RIP++
		case opMovRDIRAX:
			c.RDI = c.RAX
			c.RIP++
		case opLeaPfx0:
			if !k.text.Contains(c.RIP+3) ||
				k.text.fetch(c.RIP+1) != opLeaPfx1 || k.text.fetch(c.RIP+2) != opLeaPfx2 {
				return fmt.Errorf("%w at %#x", ErrInvalidOpcode, uint64(c.RIP))
			}
			imm := k.text.fetch(c.RIP + 3)
			// The JOP pivot: %rsp = %rdi + imm8. From here on, control flow
			// is whatever the (attacker-controlled) memory at %rdi says.
			c.RSP = layout.Addr(c.RDI) + layout.Addr(imm)
			c.RIP += 4
		default:
			return fmt.Errorf("%w %#x at %#x", ErrInvalidOpcode, op, uint64(c.RIP))
		}
	}
}

// pop loads the word at %rsp through simulated memory and advances the stack.
func (c *CPU) pop() (layout.Addr, error) {
	v, err := c.kernel.mem.ReadU64(c.RSP)
	if err != nil {
		return 0, fmt.Errorf("kexec: stack pop at %#x: %w", uint64(c.RSP), err)
	}
	c.RSP += 8
	return layout.Addr(v), nil
}

// ret pops a return address and transfers to it. With no stack (RSP zero)
// the invocation completes: the kernel called a leaf callback and it
// returned. With CET enabled, a return address that was never pushed by a
// matching call faults — which kills ROP chains, whose "returns" were never
// calls.
func (c *CPU) ret() (done bool, err error) {
	if c.RSP == 0 {
		return true, nil
	}
	target, err := c.pop()
	if err != nil {
		return false, err
	}
	if c.kernel.CETEnabled {
		// The shadow stack has no record of a call matching this return.
		if len(c.shadowStack) == 0 || c.shadowStack[len(c.shadowStack)-1] != target {
			return false, ErrCET
		}
		c.shadowStack = c.shadowStack[:len(c.shadowStack)-1]
	}
	c.RIP = target
	return false, nil
}
