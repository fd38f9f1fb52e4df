// Package vt defines the virtual target architectures that all compilation
// back-ends in this repository generate code for.
//
// Two targets are provided, mirroring the x86-64/AArch64 pair studied in the
// paper:
//
//   - VX64: 16 integer registers, two-address ALU operations, and a
//     variable-length byte encoding (immediates are stored in the smallest of
//     1/2/4/8 bytes). Encoding is compact but branchy, like x86-64.
//   - VA64: 32 integer registers, three-address ALU operations, and a fixed
//     4-byte instruction encoding. Large immediates, far displacements, and
//     compare-and-branch operations are expanded by the encoder into
//     multi-instruction sequences (MovZ/MovK, SetCC+BrNZ), like AArch64.
//
// Machine code produced by the encoders is executed by package vm, which
// decodes the byte stream back into Instr values. Compile-time work done by
// the back-ends (instruction selection, register allocation, encoding,
// relocation) is therefore real work of the same shape a native JIT performs,
// and run-time code quality differences (spills, redundant moves, missed
// combines) show up as real executed-instruction counts.
package vt

import "fmt"

// Op is a virtual machine operation. Semantics are shared between targets;
// only the encoding differs.
type Op uint8

// Operation set. Field usage conventions (see Instr):
//
//	RD   destination register
//	RA   first source register (for two-address targets RD==RA is required
//	     on register-register ALU ops; the encoder enforces this)
//	RB   second source register
//	RC   second destination (MulWide) or scratch
//	Cond condition code for SetCC/BrCC/FCmp
//	Imm  immediate, displacement, runtime-function id, or trap code
const (
	Nop Op = iota

	// Data movement.
	MovRR // RD = RA
	MovRI // RD = Imm (may carry a relocation)
	MovZ  // RD = Imm16 << (Cond*16)           (va64 constant synthesis)
	MovK  // RD = RD with Imm16 at (Cond*16)    (va64 constant synthesis)

	// Memory. Address is RA+Imm. Loads zero-extend unless the S suffix.
	Load8
	Load8S
	Load16
	Load16S
	Load32
	Load32S
	Load64
	Store8  // mem[RA+Imm] = RB
	Store16 // mem[RA+Imm] = RB
	Store32 // mem[RA+Imm] = RB
	Store64 // mem[RA+Imm] = RB
	Lea     // RD = RA + Imm

	// Integer ALU, register-register: RD = RA op RB.
	Add
	Sub
	Mul
	And
	Or
	Xor
	Shl
	Shr
	Sar
	Rotr
	SDiv // traps on division by zero
	SRem
	UDiv
	URem

	// Integer ALU, register-immediate: RD = RA op Imm.
	AddI
	SubI
	MulI
	AndI
	OrI
	XorI
	ShlI
	ShrI
	SarI
	RotrI

	// Unary: RD = op RA.
	Neg
	Not

	// MulWide: RD = low 64 bits, RC = high 64 bits of RA*RB.
	MulWideU
	MulWideS

	// SetCC: RD = (RA Cond RB) ? 1 : 0.
	SetCC

	// Control flow. Branch targets are byte offsets relative to the start
	// of the code buffer; the encoder patches them via labels.
	Br      // unconditional, Target
	BrCC    // if RA Cond RB, Target
	BrNZ    // if RA != 0, Target
	Call    // call local function, Imm = code byte offset (patched by linker)
	CallInd // call through register: target code offset in RA
	CallRT  // call runtime function, Imm = runtime function id
	Ret

	// Traps. Imm is a TrapCode.
	Trap   // unconditional
	TrapNZ // trap if RA != 0

	// Special arithmetic.
	Crc32 // RD = crc32c(RA, RB) over the 8 bytes of RB

	// Floating point (separate register file F0..F15).
	FMovRR // FD = FA (register numbers in RD/RA)
	FMovRI // FD = float64 from Imm bit pattern
	FLoad  // FD = mem[RA+Imm] as float64
	FStore // mem[RA+Imm] = FB
	FAdd   // FD = FA + FB
	FSub
	FMul
	FDiv
	FCmp    // RD (integer) = FA Cond FB
	CvtSI2F // FD = float64(int64 RA)
	CvtF2SI // RD = int64(float64 FA)
	MovRF   // RD = bit pattern of FA
	MovFR   // FD = bit pattern of RA

	// Unchecked memory operations. Operands and semantics match the
	// checked counterparts, but the null/bounds check was discharged at
	// compile time by the static analysis (internal/sa): the producing
	// back-end asserts the address is valid whenever the instruction is
	// reached. The vm executes them without the per-access software
	// check; under its eliminated-check instrumentation mode it instead
	// re-checks and reports a distinguished verification failure, which
	// is how the safety differential falsifies wrong analysis facts.
	// The block is contiguous (LoadU8..FStoreU) and mirrors the checked
	// op order so the two families convert by arithmetic (CheckedMem).
	LoadU8
	LoadU8S
	LoadU16
	LoadU16S
	LoadU32
	LoadU32S
	LoadU64
	StoreU8  // mem[RA+Imm] = RB
	StoreU16 // mem[RA+Imm] = RB
	StoreU32 // mem[RA+Imm] = RB
	StoreU64 // mem[RA+Imm] = RB
	FLoadU   // FD = mem[RA+Imm] as float64
	FStoreU  // mem[RA+Imm] = FB

	NumOps // sentinel
)

// Cond is a comparison condition for SetCC, BrCC and FCmp.
type Cond uint8

// Condition codes.
const (
	CondEQ Cond = iota
	CondNE
	CondSLT
	CondSLE
	CondSGT
	CondSGE
	CondULT
	CondULE
	CondUGT
	CondUGE
	NumConds
)

// Negate returns the inverse condition.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondSLT:
		return CondSGE
	case CondSLE:
		return CondSGT
	case CondSGT:
		return CondSLE
	case CondSGE:
		return CondSLT
	case CondULT:
		return CondUGE
	case CondULE:
		return CondUGT
	case CondUGT:
		return CondULE
	case CondUGE:
		return CondULT
	}
	panic(fmt.Sprintf("vt: bad cond %d", c))
}

// Swap returns the condition with operands exchanged (a c b == b c.Swap() a).
func (c Cond) Swap() Cond {
	switch c {
	case CondEQ, CondNE:
		return c
	case CondSLT:
		return CondSGT
	case CondSLE:
		return CondSGE
	case CondSGT:
		return CondSLT
	case CondSGE:
		return CondSLE
	case CondULT:
		return CondUGT
	case CondULE:
		return CondUGE
	case CondUGT:
		return CondULT
	case CondUGE:
		return CondULE
	}
	panic(fmt.Sprintf("vt: bad cond %d", c))
}

var condNames = [...]string{"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// TrapCode identifies the reason for a generated-code trap.
type TrapCode uint8

// Trap codes.
const (
	TrapUnreachable TrapCode = iota
	TrapOverflow
	TrapDivZero
	TrapNull
	TrapOOB
	// TrapElimCheck reports an unchecked memory access whose eliminated
	// bounds/null check would have fired. It can only be raised by the vm's
	// strict verification mode (or a host fault on the fast path) and always
	// indicates a static-analysis or lowering bug, never program behavior.
	TrapElimCheck
	// TrapOOM reports that a runtime function exhausted the machine's heap.
	// The vm raises it; generated code never encodes it.
	TrapOOM
)

var trapNames = [...]string{"unreachable", "overflow", "divzero", "null", "oob", "elimcheck", "oom"}

func (t TrapCode) String() string {
	if int(t) < len(trapNames) {
		return trapNames[t]
	}
	return fmt.Sprintf("trap(%d)", uint8(t))
}

// Instr is one decoded virtual machine instruction. Encoders consume it and
// the vm decoder reproduces it.
type Instr struct {
	Op     Op
	Cond   Cond
	RD     uint8
	RA     uint8
	RB     uint8
	RC     uint8
	Imm    int64
	Target int32 // label id before encoding, byte offset after decoding
}

var opNames = [NumOps]string{
	Nop: "nop", MovRR: "mov", MovRI: "movi", MovZ: "movz", MovK: "movk",
	Load8: "ld8", Load8S: "ld8s", Load16: "ld16", Load16S: "ld16s",
	Load32: "ld32", Load32S: "ld32s", Load64: "ld64",
	Store8: "st8", Store16: "st16", Store32: "st32", Store64: "st64",
	Lea: "lea",
	Add: "add", Sub: "sub", Mul: "mul", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Sar: "sar", Rotr: "rotr",
	SDiv: "sdiv", SRem: "srem", UDiv: "udiv", URem: "urem",
	AddI: "addi", SubI: "subi", MulI: "muli", AndI: "andi", OrI: "ori",
	XorI: "xori", ShlI: "shli", ShrI: "shri", SarI: "sari", RotrI: "rotri",
	Neg: "neg", Not: "not",
	MulWideU: "mulwu", MulWideS: "mulws",
	SetCC: "set", Br: "br", BrCC: "brcc", BrNZ: "brnz",
	Call: "call", CallInd: "calli", CallRT: "callrt", Ret: "ret",
	Trap: "trap", TrapNZ: "trapnz", Crc32: "crc32",
	FMovRR: "fmov", FMovRI: "fmovi", FLoad: "fld", FStore: "fst",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FCmp: "fcmp",
	CvtSI2F: "si2f", CvtF2SI: "f2si", MovRF: "movrf", MovFR: "movfr",
	LoadU8: "ldu8", LoadU8S: "ldu8s", LoadU16: "ldu16", LoadU16S: "ldu16s",
	LoadU32: "ldu32", LoadU32S: "ldu32s", LoadU64: "ldu64",
	StoreU8: "stu8", StoreU16: "stu16", StoreU32: "stu32", StoreU64: "stu64",
	FLoadU: "fldu", FStoreU: "fstu",
}

func (o Op) String() string {
	if o < NumOps && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the operation transfers control via Target.
func (o Op) IsBranch() bool {
	switch o {
	case Br, BrCC, BrNZ:
		return true
	}
	return false
}

// IsTerminator reports whether the operation ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case Br, Ret, Trap:
		return true
	}
	return false
}

// HasSideEffects reports whether the operation may be observed beyond its
// register results (memory writes, calls, traps, control flow).
func (o Op) HasSideEffects() bool {
	switch o {
	case Store8, Store16, Store32, Store64, FStore,
		StoreU8, StoreU16, StoreU32, StoreU64, FStoreU,
		Call, CallInd, CallRT, Ret, Trap, TrapNZ,
		Br, BrCC, BrNZ, SDiv, SRem, UDiv, URem:
		return true
	}
	return false
}

// UncheckedMem reports whether the operation is an unchecked memory access.
func (o Op) UncheckedMem() bool { return o >= LoadU8 && o <= FStoreU }

// CheckedMem maps an unchecked memory operation to its checked counterpart
// and leaves every other operation unchanged. Code that classifies
// operations structurally (encoders, decoders, fusion) switches on
// o.CheckedMem() so the unchecked family inherits the checked family's
// operand layout.
func (o Op) CheckedMem() Op {
	switch {
	case o >= LoadU8 && o <= StoreU64:
		return Load8 + (o - LoadU8)
	case o == FLoadU:
		return FLoad
	case o == FStoreU:
		return FStore
	}
	return o
}

// UncheckedMemOf maps a checked memory operation to its unchecked variant;
// ok is false for operations without one.
func UncheckedMemOf(o Op) (Op, bool) {
	switch {
	case o >= Load8 && o <= Store64:
		return LoadU8 + (o - Load8), true
	case o == FLoad:
		return FLoadU, true
	case o == FStore:
		return FStoreU, true
	}
	return o, false
}

// IsCall reports whether the operation transfers control to a callee (and,
// except for CallRT, pushes a return address).
func (o Op) IsCall() bool {
	switch o {
	case Call, CallInd, CallRT:
		return true
	}
	return false
}

// MemRef describes a memory-accessing operation: the access width in bytes
// and whether it writes memory. ok is false for non-memory operations. The
// address of every memory operation is RA+Imm.
func (o Op) MemRef() (size uint8, store bool, ok bool) {
	switch c := o.CheckedMem(); c {
	case Load8, Load8S, Store8:
		return 1, c == Store8, true
	case Load16, Load16S, Store16:
		return 2, c == Store16, true
	case Load32, Load32S, Store32:
		return 4, c == Store32, true
	case Load64, Store64, FLoad, FStore:
		return 8, c == Store64 || c == FStore, true
	}
	return 0, false, false
}

// CanTrap reports whether executing the operation may raise a trap (memory
// bounds, division by zero, explicit traps, or call-target resolution).
// Trap-free operations are eligible for superinstruction fusion in the vm.
// Unchecked memory operations carry a compile-time proof of validity and do
// not trap on the primary path (the instrumentation mode re-checks them,
// but a failure there is an analysis bug, not program behavior).
func (o Op) CanTrap() bool {
	if o.UncheckedMem() {
		return false
	}
	if _, _, mem := o.MemRef(); mem {
		return true
	}
	switch o {
	case SDiv, SRem, UDiv, URem, Trap, TrapNZ, CallInd, CallRT:
		return true
	}
	return false
}
