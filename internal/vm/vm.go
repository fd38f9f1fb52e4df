// Package vm executes machine code produced for the virtual targets defined
// in package vt.
//
// A Machine owns a flat byte-addressable memory, a register file, a runtime
// function table, and the unwind-information registry. Compiled code is
// loaded as a Module: the byte stream is decoded once (the analog of mapping
// executable memory) and then executed by the one dispatch loop, runFused,
// over a micro-op view of the decoded program (fuse.go, dispatch.go). The
// machine counts executed instructions, so code quality differences between
// back-ends are observable both as wall-clock time and as
// architecture-neutral instruction counts.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/sem"
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

	// The two views runFused executes (fuse.go), each built lazily on first
	// use so load time is unaffected: the fused view fp, and the unfused
	// view ufp of one checked micro-op per instruction. noFuse is the test
	// hook that makes every Call run the unfused view.
	noFuse     bool
	fuseOnce   sync.Once
	fp         *fprog
	unfuseOnce sync.Once
	ufp        *fprog
}

// Footprint returns the bytes of Go heap the module holds: the code image,
// the decoded program with its offset tables, the unwind table and the views
// built so far. The fused view is built on first Call; until then it is
// estimated at fusedPerInstr bytes per decoded instruction.
func (mod *Module) Footprint() int64 {
	n := int64(unsafe.Sizeof(*mod)) + int64(unsafe.Sizeof(*mod.Prog)) + int64(cap(mod.Code)) +
		int64(cap(mod.Prog.Instrs))*int64(unsafe.Sizeof(vt.Instr{})) +
		int64(cap(mod.Prog.Index)+cap(mod.Prog.Offsets)+cap(mod.branchIdx))*4 +
		int64(cap(mod.unwind))*int64(unsafe.Sizeof(UnwindRange{}))
	for i := range mod.unwind {
		n += int64(len(mod.unwind[i].Name) + cap(mod.unwind[i].CFI))
	}
	if mod.ufp != nil {
		n += mod.ufp.bytes()
	}
	switch {
	case mod.fp != nil:
		n += mod.fp.bytes()
	case !mod.noFuse:
		n += fusedPerInstr * int64(len(mod.Prog.Instrs))
	}
	return n
}

func (fp *fprog) bytes() int64 {
	return int64(unsafe.Sizeof(*fp)) + int64(cap(fp.ins))*int64(unsafe.Sizeof(finstr{})) +
		int64(cap(fp.steps))*int64(unsafe.Sizeof(fstep{})) +
		int64(cap(fp.guards))*int64(unsafe.Sizeof(guardRange{})) + int64(cap(fp.o2f))*4
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
	// Mem is the flat memory. Address 0..nullGuard-1 is unmapped. It may be
	// mapped outside the Go heap (image.go), where nothing but a reachable
	// machine keeps it alive: use a slice of it only while the machine, or a
	// worker sharing it, is still referenced.
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
	// every Call runs the module's unfused view, where each unchecked memory
	// operation (vt.LoadU*/StoreU*/FLoadU/FStoreU) re-runs the full
	// bounds/null check and raises TrapElimCheck when it would have fired,
	// one access at a time rather than covered by a block guard.
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
	img      *image // Mem's image, kept alive by every machine that shares it
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
	img := newImage(cfg.MemSize)
	m := &Machine{
		Mem:      img.mem,
		img:      img,
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
		img:             base.img,
		RT:              base.RT,
		StrictUnchecked: base.StrictUnchecked,
		target:          base.target,
		heapTop:         (arenaBase + 7) &^ 7,
		stackTop:        arenaEnd,
	}
}

// Bytes returns memory [addr, addr+n) or an error trap. The slice is part
// of Mem and lives only as long as the machine (see Mem).
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
	var fp *fprog
	if !m.StrictUnchecked {
		fp = mod.fused()
	}
	if fp == nil || fp.o2f[idx] < 0 {
		// Strict mode, or an entry the leader scan did not see: it may lie
		// inside a fused block.
		fp = mod.unfused()
	}
	err := m.runGuarded(func() error { return m.runFused(mod, fp, fp.o2f[idx]) })
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
// faults (out-of-range slice accesses from unchecked memory operations of the
// fused view whose eliminated check would have fired) into TrapElimCheck
// traps so a static-analysis bug surfaces as a diagnosable trap instead of
// crashing the host. Other panics propagate unchanged.
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

// evalCond and evalFCond are sem's compares: vt.Cond numbers its
// conditions as qir.Cmp numbers its predicates (TestCondIsCmp).
func evalCond(c vt.Cond, a, b uint64) bool   { return sem.ICmp(qir.Cmp(c), a, b) }
func evalFCond(c vt.Cond, a, b float64) bool { return sem.FCmp(qir.Cmp(c), a, b) }

func crc32c8(seed, v uint64) uint64 { return vt.Crc32c8(seed, v) }

// The little-endian accessors use encoding/binary, which the compiler
// recognizes and lowers to single unaligned load/store instructions — they
// are on the dispatch loop's hot path.
func le32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func put32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func put64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

func fromBits(u uint64) float64 { return math.Float64frombits(u) }
func toBits(f float64) uint64   { return math.Float64bits(f) }
