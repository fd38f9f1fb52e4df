// Package vm executes machine code produced for the virtual targets defined
// in package vt.
//
// A Machine owns a flat byte-addressable memory, a register file, a runtime
// function table, and the unwind-information registry. Compiled code is
// loaded as a Module: the byte stream is decoded once (the analog of mapping
// executable memory) and then executed by a dispatch loop. The machine counts
// executed instructions, so code quality differences between back-ends are
// observable both as wall-clock time and as architecture-neutral instruction
// counts.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"

	"qcc/internal/obs"
	"qcc/internal/vt"
)

// Trap reports abnormal termination of generated code, the analog of a C++
// exception thrown from an Umbra runtime function or trap instruction.
type Trap struct {
	Code vt.TrapCode
	// PC is the byte offset of the trapping instruction in module code.
	PC int32
	// Frames holds the unwound call-site byte offsets, innermost first,
	// resolved against registered unwind information where available.
	Frames []string
	// Msg is an optional runtime-provided message.
	Msg string
}

func (t *Trap) Error() string {
	if t.Msg != "" {
		return fmt.Sprintf("trap %s at +%d: %s", t.Code, t.PC, t.Msg)
	}
	return fmt.Sprintf("trap %s at +%d", t.Code, t.PC)
}

// RTFunc is a runtime function callable from generated code. Arguments are
// read from the machine's integer registers according to the calling
// convention; results are written to the return registers.
type RTFunc func(m *Machine) error

// UnwindRange is registered unwind information for one compiled function,
// the analog of DWARF CFI registered with the C++ runtime.
type UnwindRange struct {
	Start, End int32
	Name       string
	// CFI is the encoded call-frame information; the machine only needs
	// it for symbolizing traps, but back-ends must produce it.
	CFI []byte
	// Func is the index of the qir function this range was compiled from,
	// or -1 for ranges without a source function (e.g. linker-generated
	// stubs). It lets the profiler map a sampled PC back to the provenance
	// table without relying on symbol-name matching.
	Func int32
}

// Module is loaded, decoded machine code.
type Module struct {
	Arch vt.Arch
	Prog *vt.Program
	// Code is the raw machine-code image the module was loaded from,
	// retained so callers can compare linked output byte for byte (the
	// parallel-vs-sequential conformance tests) and size caches.
	Code []byte
	// branchIdx[i] is the instruction index of instruction i's branch
	// target; call targets are translated the same way at load time.
	branchIdx []int32
	unwind    []UnwindRange

	// Fused-dispatch view (fuse.go), built lazily on first Call so load
	// time is unaffected; noFuse is the test hook that selects the plain loop.
	noFuse   bool
	fuseOnce sync.Once
	fp       *fprog
}

// Footprint returns the bytes of Go heap the module holds: the code image,
// the decoded program with its offset tables, the unwind table and the fused
// view. The fused view is built on first Call; until then it is estimated at
// fusedPerInstr bytes per decoded instruction.
func (mod *Module) Footprint() int64 {
	n := int64(unsafe.Sizeof(*mod)) + int64(unsafe.Sizeof(*mod.Prog)) + int64(cap(mod.Code)) +
		int64(cap(mod.Prog.Instrs))*int64(unsafe.Sizeof(vt.Instr{})) +
		int64(cap(mod.Prog.Index)+cap(mod.Prog.Offsets)+cap(mod.branchIdx))*4 +
		int64(cap(mod.unwind))*int64(unsafe.Sizeof(UnwindRange{}))
	for i := range mod.unwind {
		n += int64(len(mod.unwind[i].Name) + cap(mod.unwind[i].CFI))
	}
	switch fp := mod.fp; {
	case mod.noFuse:
	case fp != nil:
		n += int64(unsafe.Sizeof(*fp)) + int64(cap(fp.ins))*int64(unsafe.Sizeof(finstr{})) +
			int64(cap(fp.steps))*int64(unsafe.Sizeof(fstep{})) +
			int64(cap(fp.guards))*int64(unsafe.Sizeof(guardRange{})) + int64(cap(fp.o2f))*4
	default:
		n += fusedPerInstr * int64(len(mod.Prog.Instrs))
	}
	return n
}

// fusedPerInstr is what the fused view of a module takes per decoded
// instruction: micro-ops are wider than instructions but fewer, guarded blocks
// are cloned, and run steps sit in a second array. Measured 53–76 bytes over
// the TPC-H and TPC-DS modules of every engine (TestFusedFootprintEstimate).
const fusedPerInstr = 70

// Funcs returns the registered unwind ranges (one per function).
func (mod *Module) Funcs() []UnwindRange { return mod.unwind }

// Load decodes machine code into an executable module.
func Load(arch vt.Arch, code []byte) (*Module, error) {
	prog, err := vt.Decode(arch, code)
	if err != nil {
		return nil, err
	}
	mod := &Module{Arch: arch, Prog: prog, Code: code}
	mod.branchIdx = make([]int32, len(prog.Instrs))
	for k := range prog.Instrs {
		in := &prog.Instrs[k]
		switch in.Op {
		case vt.Br, vt.BrCC, vt.BrNZ:
			idx := mod.indexOf(in.Target)
			if idx < 0 {
				return nil, fmt.Errorf("vm: branch at %d to unaligned offset %d", prog.Offsets[k], in.Target)
			}
			mod.branchIdx[k] = idx
		case vt.Call:
			idx := mod.indexOf(int32(in.Imm))
			if idx < 0 {
				return nil, fmt.Errorf("vm: call at %d to unaligned offset %d", prog.Offsets[k], in.Imm)
			}
			mod.branchIdx[k] = idx
		}
	}
	return mod, nil
}

func (mod *Module) indexOf(off int32) int32 {
	if off < 0 || int(off) >= len(mod.Prog.Index) {
		return -1
	}
	return mod.Prog.Index[off]
}

// RegisterUnwind attaches unwind information for the functions of a module.
func (mod *Module) RegisterUnwind(ranges []UnwindRange) {
	mod.unwind = append(mod.unwind, ranges...)
}

// Unwind returns the registered PC-range table (shared slice; callers must
// not mutate it). The profiler uses it to map sampled byte offsets back to
// the compiled function.
func (mod *Module) Unwind() []UnwindRange { return mod.unwind }

func (mod *Module) symbolize(off int32) string {
	for i := range mod.unwind {
		r := &mod.unwind[i]
		if off >= r.Start && off < r.End {
			return fmt.Sprintf("%s+%d", r.Name, off-r.Start)
		}
	}
	return fmt.Sprintf("+%d", off)
}

// nullGuard: addresses below this value trap as null dereferences.
const nullGuard = 4096

// Machine is a virtual CPU plus memory. It is not safe for concurrent use.
// The parallel compilation driver (internal/backend/pcc) therefore keeps
// all Machine mutation — string-constant interning, runtime binding,
// loading — in the sequential BeginModule/Link steps; worker goroutines
// only read.
type Machine struct {
	// R is the integer register file (shared across frames; callee-save
	// discipline is the generated code's responsibility).
	R [32]uint64
	// F is the floating-point register file.
	F [16]float64
	// Mem is the flat memory. Address 0..nullGuard-1 is unmapped.
	Mem []byte
	// Executed counts executed instructions since creation.
	Executed int64
	// Branches counts executed branch instructions (taken or not) since
	// creation; MemOps counts executed loads and stores. Together with
	// Executed they give an architecture-neutral profile of generated code
	// quality per query.
	Branches int64
	MemOps   int64
	// RT is the runtime function table.
	RT []RTFunc
	// StrictUnchecked enables the safety-differential verification mode:
	// unchecked memory operations (vt.LoadU*/StoreU*/FLoadU/FStoreU) re-run
	// the full bounds/null check and raise TrapElimCheck when it would have
	// fired. It also disables fused dispatch so every unchecked access is
	// individually verified rather than covered by run guards.
	StrictUnchecked bool

	target   *vt.Target
	heapTop  uint64
	stackTop uint64
	mod      *Module
	depth    int
	callPCs  []int32 // return-address stack (instruction indices)
	fret     []int32 // fused-engine return stack (micro-op indices), in lockstep with callPCs
	callback func(addr uint64, args ...uint64) ([2]uint64, error)
	sampler  *Sampler
}

// Config controls Machine creation.
type Config struct {
	Arch      vt.Arch
	MemSize   int // total memory, default 64 MiB
	StackSize int // stack region at the top of memory, default 1 MiB
}

// New creates a machine for the given architecture.
func New(cfg Config) *Machine {
	if cfg.MemSize == 0 {
		cfg.MemSize = 64 << 20
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = 1 << 20
	}
	m := &Machine{
		Mem:      make([]byte, cfg.MemSize),
		target:   vt.ForArch(cfg.Arch),
		heapTop:  nullGuard,
		stackTop: uint64(cfg.MemSize),
	}
	return m
}

// Target returns the architecture descriptor the machine executes.
func (m *Machine) Target() *vt.Target { return m.target }

// Alloc reserves size bytes of machine memory (8-byte aligned) and returns
// the address. The heap grows toward the stack region at the top of memory.
// Exhausting it panics with a *Trap of code TrapOOM and leaves the heap as it
// was: a runtime function called from generated code unwinds to its call site,
// which reports the trap (CallRT); code that allocates outside any call
// defers CatchOOM and returns it as an error.
func (m *Machine) Alloc(size uint64) uint64 {
	size = (size + 7) &^ 7
	if size > m.HeapRoom() {
		panic(&Trap{Code: vt.TrapOOM, Msg: fmt.Sprintf("out of memory: %d bytes wanted, %d free", size, m.HeapRoom())})
	}
	addr := m.heapTop
	m.heapTop += size
	return addr
}

// CatchOOM, deferred, ends Alloc's heap-exhaustion panic and stores its trap
// in *err; any other panic continues.
func CatchOOM(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if t, ok := r.(*Trap); ok && t.Code == vt.TrapOOM {
		*err = t
		return
	}
	panic(r)
}

// CallRT invokes runtime function id, which the caller has checked is bound.
// Heap exhaustion inside it comes back as the TrapOOM error, for the call site
// to attribute like any other trap a runtime function returns.
func (m *Machine) CallRT(id int) (err error) {
	defer CatchOOM(&err)
	return m.RT[id](m)
}

// HeapUsed returns the number of allocated heap bytes.
func (m *Machine) HeapUsed() uint64 { return m.heapTop - nullGuard }

// ResetHeap releases all heap allocations (the per-query arena reset).
func (m *Machine) ResetHeap() { m.heapTop = nullGuard }

// HeapMark returns the current heap position for later ResetHeapTo.
func (m *Machine) HeapMark() uint64 { return m.heapTop }

// ResetHeapTo releases allocations made after mark (benchmark harness reset
// between queries, keeping loaded table data).
func (m *Machine) ResetHeapTo(mark uint64) {
	if mark >= nullGuard && mark <= m.heapTop {
		m.heapTop = mark
	}
}

// HeapRoom returns how many more bytes Alloc can hand out before it runs out
// of memory (the 1 MiB stack margin is already subtracted).
// The morsel-parallel executor uses it to size worker arenas.
func (m *Machine) HeapRoom() uint64 {
	limit := m.stackTop - uint64(1<<20)
	if m.heapTop >= limit {
		return 0
	}
	return limit - m.heapTop
}

// NewWorker creates a machine that aliases base's flat memory but owns a
// private register file, call stack, and counters, with its heap and stack
// confined to the carved arena [arenaBase, arenaEnd). The arena must come
// from base.Alloc so workers never overlap each other or the shared heap;
// table data loaded into base is readable by every worker at the same
// addresses. Workers are still single-goroutine machines — sharing Mem is
// safe only because each worker writes exclusively inside its own arena.
//
// The arena end doubles as the worker's stack top, and Alloc keeps the
// usual 1 MiB margin below it, so arenas smaller than ~2 MiB leave no
// usable heap.
func NewWorker(base *Machine, arenaBase, arenaEnd uint64) *Machine {
	if arenaBase < nullGuard || arenaEnd > uint64(len(base.Mem)) || arenaBase >= arenaEnd {
		panic(fmt.Sprintf("vm: NewWorker arena [%d,%d) outside memory", arenaBase, arenaEnd))
	}
	return &Machine{
		Mem:             base.Mem,
		RT:              base.RT,
		StrictUnchecked: base.StrictUnchecked,
		target:          base.target,
		heapTop:         (arenaBase + 7) &^ 7,
		stackTop:        arenaEnd,
	}
}

// Bytes returns memory [addr, addr+n) or an error trap.
func (m *Machine) Bytes(addr, n uint64) ([]byte, error) {
	if addr < nullGuard {
		return nil, &Trap{Code: vt.TrapNull}
	}
	if addr+n > uint64(len(m.Mem)) || addr+n < addr {
		return nil, &Trap{Code: vt.TrapOOB, Msg: fmt.Sprintf("addr %#x len %d", addr, n)}
	}
	return m.Mem[addr : addr+n : addr+n], nil
}

// Module returns the module currently executing (valid inside RT functions).
func (m *Machine) Module() *Module { return m.mod }

// Call executes the function at byte offset entry in mod. Integer arguments
// are placed in the argument registers; the two return registers are
// returned. A *Trap error reports generated-code failure.
func (m *Machine) Call(mod *Module, entry int32, args ...uint64) ([2]uint64, error) {
	idx := mod.indexOf(entry)
	if idx < 0 {
		return [2]uint64{}, fmt.Errorf("vm: call to unaligned entry %d", entry)
	}
	for i, a := range args {
		if i >= len(m.target.IntArgs) {
			return [2]uint64{}, fmt.Errorf("vm: too many arguments (%d)", len(args))
		}
		m.R[m.target.IntArgs[i]] = a
	}
	if m.depth == 0 {
		m.R[m.target.SP] = m.stackTop
	}
	prevMod := m.mod
	m.mod = mod
	m.depth++
	var err error
	if fp := mod.fused(); fp != nil && !m.StrictUnchecked && int(idx) < len(fp.o2f) && fp.o2f[idx] >= 0 {
		err = m.runGuarded(func() error { return m.runFused(mod, fp, fp.o2f[idx]) })
	} else {
		err = m.runGuarded(func() error { return m.run(mod, idx) })
	}
	m.depth--
	m.mod = prevMod
	if t, ok := err.(*Trap); ok {
		if len(t.Frames) == 0 {
			t.Frames = append(t.Frames, mod.symbolize(t.PC))
		}
		// Record top-level traps in the always-on flight recorder so a
		// crashing query leaves a post-mortem trail next to the most
		// recent samples and spans.
		if m.depth == 0 {
			frame := ""
			if len(t.Frames) > 0 {
				frame = t.Frames[0]
			}
			obs.FlightRec().Record(obs.FlightTrap, t.Code.String()+" at "+frame, int64(t.PC))
		}
	}
	return [2]uint64{m.R[m.target.IntRet[0]], m.R[m.target.IntRet[1]]}, err
}

// SetCallback installs a CallAt re-entry hook for execution engines that do
// not run machine code (the bytecode interpreter); addr is then
// engine-defined (a function index).
func (m *Machine) SetCallback(fn func(addr uint64, args ...uint64) ([2]uint64, error)) {
	m.callback = fn
}

// CallAt re-enters generated code from a runtime function (e.g. a sort
// comparator callback). addr is a code byte offset in the current module,
// or an engine-defined address when an interpreter callback is installed.
func (m *Machine) CallAt(addr uint64, args ...uint64) ([2]uint64, error) {
	if m.mod == nil {
		if m.callback != nil {
			return m.callback(addr, args...)
		}
		return [2]uint64{}, fmt.Errorf("vm: CallAt outside execution")
	}
	// Preserve the caller-visible registers that the callback may clobber:
	// the callback follows the calling convention, so callee-saved
	// registers are safe, but argument registers are not. The runtime
	// caller saves what it needs; here we only set up arguments.
	saveSP := m.R[m.target.SP]
	res, err := m.Call(m.mod, int32(addr), args...)
	m.R[m.target.SP] = saveSP
	return res, err
}

// runGuarded executes one dispatch-loop invocation, converting host runtime
// faults (out-of-range slice accesses from unchecked memory operations whose
// eliminated check would have fired) into TrapElimCheck traps so a
// static-analysis bug surfaces as a diagnosable trap instead of crashing the
// host. Other panics propagate unchanged.
func (m *Machine) runGuarded(f func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		re, ok := r.(runtime.Error)
		if !ok {
			panic(r)
		}
		err = &Trap{Code: vt.TrapElimCheck, Msg: re.Error()}
	}()
	return f()
}

func (m *Machine) run(mod *Module, pc int32) error {
	instrs := mod.Prog.Instrs
	offs := mod.Prog.Offsets
	bidx := mod.branchIdx
	R := &m.R
	F := &m.F
	callBase := len(m.callPCs)
	count := int64(0)
	branches := int64(0)
	memops := int64(0)
	defer func() {
		m.Executed += count
		m.Branches += branches
		m.MemOps += memops
	}()

	trap := func(code vt.TrapCode, msg string) error {
		t := &Trap{Code: code, PC: offs[pc], Msg: msg}
		t.Frames = append(t.Frames, mod.symbolize(offs[pc]))
		for i := len(m.callPCs) - 1; i >= callBase; i-- {
			t.Frames = append(t.Frames, mod.symbolize(offs[m.callPCs[i]]))
		}
		m.callPCs = m.callPCs[:callBase]
		return t
	}

	mem := m.Mem
	loadAddr := func(a uint64, n uint64) (uint64, bool) {
		memops++
		// a+n >= a rejects address wraparound, which would otherwise pass
		// the length test and panic on the slice index (cf. Machine.Bytes).
		return a, a >= nullGuard && a+n <= uint64(len(mem)) && a+n >= a
	}
	// uncheckedAddr is the unchecked-access path: static analysis proved the
	// access safe, so the software check is skipped (a genuinely bad address
	// faults on the slice index and runGuarded reports TrapElimCheck).
	// StrictUnchecked re-runs the full check to catch analysis bugs eagerly.
	strict := m.StrictUnchecked
	uncheckedAddr := func(a uint64, n uint64) (uint64, bool) {
		memops++
		if strict {
			return a, a >= nullGuard && a+n <= uint64(len(mem)) && a+n >= a
		}
		return a, true
	}

	// PC sampling is checked at branch checkpoints only (see Sampler); sm
	// is nil on the default path, making the check one predictable test.
	sm := m.sampler

	for {
		in := &instrs[pc]
		count++
		switch in.Op {
		case vt.Nop:
		case vt.MovRR:
			R[in.RD] = R[in.RA]
		case vt.MovRI:
			R[in.RD] = uint64(in.Imm)
		case vt.MovZ:
			R[in.RD] = uint64(uint16(in.Imm)) << (16 * uint(in.Cond))
		case vt.MovK:
			sh := 16 * uint(in.Cond)
			R[in.RD] = R[in.RD]&^(uint64(0xFFFF)<<sh) | uint64(uint16(in.Imm))<<sh
		case vt.Load8:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 1)
			if !ok {
				return trap(vt.TrapOOB, "load8")
			}
			R[in.RD] = uint64(mem[a])
		case vt.Load8S:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 1)
			if !ok {
				return trap(vt.TrapOOB, "load8s")
			}
			R[in.RD] = uint64(int64(int8(mem[a])))
		case vt.Load16:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 2)
			if !ok {
				return trap(vt.TrapOOB, "load16")
			}
			R[in.RD] = uint64(mem[a]) | uint64(mem[a+1])<<8
		case vt.Load16S:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 2)
			if !ok {
				return trap(vt.TrapOOB, "load16s")
			}
			R[in.RD] = uint64(int64(int16(uint16(mem[a]) | uint16(mem[a+1])<<8)))
		case vt.Load32:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 4)
			if !ok {
				return trap(vt.TrapOOB, "load32")
			}
			R[in.RD] = uint64(le32(mem[a:]))
		case vt.Load32S:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 4)
			if !ok {
				return trap(vt.TrapOOB, "load32s")
			}
			R[in.RD] = uint64(int64(int32(le32(mem[a:]))))
		case vt.Load64:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 8)
			if !ok {
				return trap(vt.TrapOOB, "load64")
			}
			R[in.RD] = le64(mem[a:])
		case vt.Store8:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 1)
			if !ok {
				return trap(vt.TrapOOB, "store8")
			}
			mem[a] = byte(R[in.RB])
		case vt.Store16:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 2)
			if !ok {
				return trap(vt.TrapOOB, "store16")
			}
			v := R[in.RB]
			mem[a] = byte(v)
			mem[a+1] = byte(v >> 8)
		case vt.Store32:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 4)
			if !ok {
				return trap(vt.TrapOOB, "store32")
			}
			put32(mem[a:], uint32(R[in.RB]))
		case vt.Store64:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 8)
			if !ok {
				return trap(vt.TrapOOB, "store64")
			}
			put64(mem[a:], R[in.RB])
		case vt.LoadU8:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 1)
			if !ok {
				return trap(vt.TrapElimCheck, "ldu8")
			}
			R[in.RD] = uint64(mem[a])
		case vt.LoadU8S:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 1)
			if !ok {
				return trap(vt.TrapElimCheck, "ldu8s")
			}
			R[in.RD] = uint64(int64(int8(mem[a])))
		case vt.LoadU16:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 2)
			if !ok {
				return trap(vt.TrapElimCheck, "ldu16")
			}
			R[in.RD] = uint64(mem[a]) | uint64(mem[a+1])<<8
		case vt.LoadU16S:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 2)
			if !ok {
				return trap(vt.TrapElimCheck, "ldu16s")
			}
			R[in.RD] = uint64(int64(int16(uint16(mem[a]) | uint16(mem[a+1])<<8)))
		case vt.LoadU32:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 4)
			if !ok {
				return trap(vt.TrapElimCheck, "ldu32")
			}
			R[in.RD] = uint64(le32(mem[a:]))
		case vt.LoadU32S:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 4)
			if !ok {
				return trap(vt.TrapElimCheck, "ldu32s")
			}
			R[in.RD] = uint64(int64(int32(le32(mem[a:]))))
		case vt.LoadU64:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 8)
			if !ok {
				return trap(vt.TrapElimCheck, "ldu64")
			}
			R[in.RD] = le64(mem[a:])
		case vt.StoreU8:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 1)
			if !ok {
				return trap(vt.TrapElimCheck, "stu8")
			}
			mem[a] = byte(R[in.RB])
		case vt.StoreU16:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 2)
			if !ok {
				return trap(vt.TrapElimCheck, "stu16")
			}
			v := R[in.RB]
			mem[a] = byte(v)
			mem[a+1] = byte(v >> 8)
		case vt.StoreU32:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 4)
			if !ok {
				return trap(vt.TrapElimCheck, "stu32")
			}
			put32(mem[a:], uint32(R[in.RB]))
		case vt.StoreU64:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 8)
			if !ok {
				return trap(vt.TrapElimCheck, "stu64")
			}
			put64(mem[a:], R[in.RB])
		case vt.FLoadU:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 8)
			if !ok {
				return trap(vt.TrapElimCheck, "fldu")
			}
			F[in.RD] = fromBits(le64(mem[a:]))
		case vt.FStoreU:
			a, ok := uncheckedAddr(R[in.RA]+uint64(in.Imm), 8)
			if !ok {
				return trap(vt.TrapElimCheck, "fstu")
			}
			put64(mem[a:], toBits(F[in.RB]))
		case vt.Lea:
			R[in.RD] = R[in.RA] + uint64(in.Imm)
		case vt.Add:
			R[in.RD] = R[in.RA] + R[in.RB]
		case vt.Sub:
			R[in.RD] = R[in.RA] - R[in.RB]
		case vt.Mul:
			R[in.RD] = R[in.RA] * R[in.RB]
		case vt.And:
			R[in.RD] = R[in.RA] & R[in.RB]
		case vt.Or:
			R[in.RD] = R[in.RA] | R[in.RB]
		case vt.Xor:
			R[in.RD] = R[in.RA] ^ R[in.RB]
		case vt.Shl:
			R[in.RD] = R[in.RA] << (R[in.RB] & 63)
		case vt.Shr:
			R[in.RD] = R[in.RA] >> (R[in.RB] & 63)
		case vt.Sar:
			R[in.RD] = uint64(int64(R[in.RA]) >> (R[in.RB] & 63))
		case vt.Rotr:
			R[in.RD] = bits.RotateLeft64(R[in.RA], -int(R[in.RB]&63))
		case vt.SDiv:
			d := int64(R[in.RB])
			if d == 0 {
				return trap(vt.TrapDivZero, "")
			}
			n := int64(R[in.RA])
			if n == -1<<63 && d == -1 {
				R[in.RD] = uint64(n)
			} else {
				R[in.RD] = uint64(n / d)
			}
		case vt.SRem:
			d := int64(R[in.RB])
			if d == 0 {
				return trap(vt.TrapDivZero, "")
			}
			n := int64(R[in.RA])
			if n == -1<<63 && d == -1 {
				R[in.RD] = 0
			} else {
				R[in.RD] = uint64(n % d)
			}
		case vt.UDiv:
			if R[in.RB] == 0 {
				return trap(vt.TrapDivZero, "")
			}
			R[in.RD] = R[in.RA] / R[in.RB]
		case vt.URem:
			if R[in.RB] == 0 {
				return trap(vt.TrapDivZero, "")
			}
			R[in.RD] = R[in.RA] % R[in.RB]
		case vt.AddI:
			R[in.RD] = R[in.RA] + uint64(in.Imm)
		case vt.SubI:
			R[in.RD] = R[in.RA] - uint64(in.Imm)
		case vt.MulI:
			R[in.RD] = R[in.RA] * uint64(in.Imm)
		case vt.AndI:
			R[in.RD] = R[in.RA] & uint64(in.Imm)
		case vt.OrI:
			R[in.RD] = R[in.RA] | uint64(in.Imm)
		case vt.XorI:
			R[in.RD] = R[in.RA] ^ uint64(in.Imm)
		case vt.ShlI:
			R[in.RD] = R[in.RA] << (uint64(in.Imm) & 63)
		case vt.ShrI:
			R[in.RD] = R[in.RA] >> (uint64(in.Imm) & 63)
		case vt.SarI:
			R[in.RD] = uint64(int64(R[in.RA]) >> (uint64(in.Imm) & 63))
		case vt.RotrI:
			R[in.RD] = bits.RotateLeft64(R[in.RA], -int(uint64(in.Imm)&63))
		case vt.Neg:
			R[in.RD] = -R[in.RA]
		case vt.Not:
			R[in.RD] = ^R[in.RA]
		case vt.MulWideU:
			hi, lo := bits.Mul64(R[in.RA], R[in.RB])
			R[in.RD] = lo
			R[in.RC] = hi
		case vt.MulWideS:
			a, b := int64(R[in.RA]), int64(R[in.RB])
			hi, lo := bits.Mul64(uint64(a), uint64(b))
			if a < 0 {
				hi -= uint64(b)
			}
			if b < 0 {
				hi -= uint64(a)
			}
			R[in.RD] = lo
			R[in.RC] = hi
		case vt.SetCC:
			if evalCond(in.Cond, R[in.RA], R[in.RB]) {
				R[in.RD] = 1
			} else {
				R[in.RD] = 0
			}
		case vt.Br:
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[pc], m.Executed+count)
			}
			pc = bidx[pc]
			continue
		case vt.BrCC:
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[pc], m.Executed+count)
			}
			if evalCond(in.Cond, R[in.RA], R[in.RB]) {
				pc = bidx[pc]
				continue
			}
		case vt.BrNZ:
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[pc], m.Executed+count)
			}
			if R[in.RA] != 0 {
				pc = bidx[pc]
				continue
			}
		case vt.Call:
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[pc], m.Executed+count)
			}
			m.callPCs = append(m.callPCs, pc)
			pc = bidx[pc]
			continue
		case vt.CallInd:
			idx := mod.indexOf(int32(R[in.RA]))
			if idx < 0 {
				return trap(vt.TrapOOB, "indirect call target")
			}
			m.callPCs = append(m.callPCs, pc)
			pc = idx
			continue
		case vt.CallRT:
			id := int(in.Imm)
			if id >= len(m.RT) || m.RT[id] == nil {
				return trap(vt.TrapUnreachable, fmt.Sprintf("runtime function %d", id))
			}
			if err := m.CallRT(id); err != nil {
				if t, ok := err.(*Trap); ok {
					// Only attribute the trap here when it came from the
					// runtime function itself (no frames yet); a trap
					// re-raised through nested CallAt re-entry keeps its
					// innermost location.
					if len(t.Frames) == 0 {
						t.PC = offs[pc]
						t.Frames = append(t.Frames, mod.symbolize(offs[pc]))
					}
					m.callPCs = m.callPCs[:callBase]
					return t
				}
				m.callPCs = m.callPCs[:callBase]
				return err
			}
			mem = m.Mem // runtime call may have grown memory
		case vt.Ret:
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[pc], m.Executed+count)
			}
			if len(m.callPCs) == callBase {
				return nil
			}
			pc = m.callPCs[len(m.callPCs)-1]
			m.callPCs = m.callPCs[:len(m.callPCs)-1]
		case vt.Trap:
			return trap(vt.TrapCode(in.Imm), "")
		case vt.TrapNZ:
			if R[in.RA] != 0 {
				return trap(vt.TrapCode(in.Imm), "")
			}
		case vt.Crc32:
			R[in.RD] = crc32c8(R[in.RA], R[in.RB])
		case vt.FMovRR:
			F[in.RD] = F[in.RA]
		case vt.FMovRI:
			F[in.RD] = fromBits(uint64(in.Imm))
		case vt.FLoad:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 8)
			if !ok {
				return trap(vt.TrapOOB, "fload")
			}
			F[in.RD] = fromBits(le64(mem[a:]))
		case vt.FStore:
			a, ok := loadAddr(R[in.RA]+uint64(in.Imm), 8)
			if !ok {
				return trap(vt.TrapOOB, "fstore")
			}
			put64(mem[a:], toBits(F[in.RB]))
		case vt.FAdd:
			F[in.RD] = F[in.RA] + F[in.RB]
		case vt.FSub:
			F[in.RD] = F[in.RA] - F[in.RB]
		case vt.FMul:
			F[in.RD] = F[in.RA] * F[in.RB]
		case vt.FDiv:
			F[in.RD] = F[in.RA] / F[in.RB]
		case vt.FCmp:
			if evalFCond(in.Cond, F[in.RA], F[in.RB]) {
				R[in.RD] = 1
			} else {
				R[in.RD] = 0
			}
		case vt.CvtSI2F:
			F[in.RD] = float64(int64(R[in.RA]))
		case vt.CvtF2SI:
			R[in.RD] = uint64(int64(F[in.RA]))
		case vt.MovRF:
			R[in.RD] = toBits(F[in.RA])
		case vt.MovFR:
			F[in.RD] = fromBits(R[in.RA])
		default:
			return trap(vt.TrapUnreachable, fmt.Sprintf("bad op %d", in.Op))
		}
		pc++
	}
}

func evalCond(c vt.Cond, a, b uint64) bool {
	switch c {
	case vt.CondEQ:
		return a == b
	case vt.CondNE:
		return a != b
	case vt.CondSLT:
		return int64(a) < int64(b)
	case vt.CondSLE:
		return int64(a) <= int64(b)
	case vt.CondSGT:
		return int64(a) > int64(b)
	case vt.CondSGE:
		return int64(a) >= int64(b)
	case vt.CondULT:
		return a < b
	case vt.CondULE:
		return a <= b
	case vt.CondUGT:
		return a > b
	case vt.CondUGE:
		return a >= b
	}
	return false
}

func evalFCond(c vt.Cond, a, b float64) bool {
	switch c {
	case vt.CondEQ:
		return a == b
	case vt.CondNE:
		return a != b
	case vt.CondSLT, vt.CondULT:
		return a < b
	case vt.CondSLE, vt.CondULE:
		return a <= b
	case vt.CondSGT, vt.CondUGT:
		return a > b
	case vt.CondSGE, vt.CondUGE:
		return a >= b
	}
	return false
}

func crc32c8(seed, v uint64) uint64 { return vt.Crc32c8(seed, v) }

// The little-endian accessors use encoding/binary, which the compiler
// recognizes and lowers to single unaligned load/store instructions — they
// are on the hot path of both dispatch loops.
func le32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func put32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func put64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

func fromBits(u uint64) float64 { return math.Float64frombits(u) }
func toBits(f float64) uint64   { return math.Float64bits(f) }
