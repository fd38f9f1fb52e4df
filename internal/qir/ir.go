// Package qir implements the SSA intermediate representation that the query
// compiler generates and all execution back-ends consume — the analog of
// Umbra IR in the paper.
//
// The representation is optimized for fast generation and linear traversal:
// instructions are fixed-size values stored in one flat slice per function,
// values are identified by instruction index, and variable-length operand
// lists (calls, phis) live in a shared side array. Types cover the needs of
// query compilation: scalar integers up to 128 bits (SQL decimals), 64-bit
// floats, pointers, and 16-byte by-value strings.
package qir

import (
	"fmt"
	"unsafe"
)

// Type is a value type.
type Type uint8

// Value types. Str is the 16-byte string/data structure passed by value
// (length + prefix + pointer with small-buffer optimization); I128 backs SQL
// decimals.
const (
	Void Type = iota
	I1
	I8
	I16
	I32
	I64
	I128
	F64
	Ptr
	Str
	NumTypes
)

var typeNames = [NumTypes]string{"void", "i1", "i8", "i16", "i32", "i64", "i128", "f64", "ptr", "str"}

func (t Type) String() string {
	if t < NumTypes {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Size returns the in-memory size of the type in bytes.
func (t Type) Size() int64 {
	switch t {
	case Void:
		return 0
	case I1, I8:
		return 1
	case I16:
		return 2
	case I32:
		return 4
	case I64, F64, Ptr:
		return 8
	case I128, Str:
		return 16
	}
	panic("qir: bad type")
}

// IsInt reports whether the type is a scalar integer (including I1).
func (t Type) IsInt() bool { return t >= I1 && t <= I128 }

// Is128 reports whether values of the type occupy two 64-bit registers.
func (t Type) Is128() bool { return t == I128 || t == Str }

// Cmp is an integer or float comparison predicate. The numeric values match
// vt.Cond so back-ends can convert by casting.
type Cmp uint8

// Comparison predicates.
const (
	CmpEQ Cmp = iota
	CmpNE
	CmpSLT
	CmpSLE
	CmpSGT
	CmpSGE
	CmpULT
	CmpULE
	CmpUGT
	CmpUGE
	NumCmps
)

var cmpNames = [NumCmps]string{"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}

func (c Cmp) String() string {
	if c < NumCmps {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Op is a QIR operation.
type Op uint8

// Operations. Operand conventions are documented per group; see Instr.
const (
	OpInvalid Op = iota

	// OpParam declares function parameter Aux at the top of the entry
	// block; its value id is the parameter's SSA value.
	OpParam

	// Constants. OpConst: Imm is the value (sign-extended for the type).
	// OpConst128: Imm indexes the function's I128 pool (lo/hi pair).
	// OpConstStr: Imm indexes the module string pool. OpConstF: Imm is
	// the float64 bit pattern. OpNull: the null pointer. OpFuncAddr:
	// Aux is the index of a function in the same module; the value is
	// its code address after compilation (used for callbacks).
	// OpConstPool: Imm indexes the module constant pool (Module.Pool);
	// the value is read from the runtime's pool slot at execution time,
	// so the compiled body is independent of the literal — the basis of
	// the parameterized plan cache (constant-only query variants share
	// compiled code, with values bound per execution).
	OpConst
	OpConst128
	OpConstStr
	OpConstF
	OpConstPool
	OpNull
	OpFuncAddr

	// Integer arithmetic: A op B, result Type. Division traps on zero.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSar
	OpRotr
	OpNeg
	OpNot

	// Overflow-checked signed arithmetic on user data (SQL semantics):
	// the operation traps instead of wrapping.
	OpSAddTrap
	OpSSubTrap
	OpSMulTrap

	// OpICmp: A Cmp B with the predicate in Aux; result I1.
	OpICmp

	// Width conversions between integer types; target width is the
	// instruction Type.
	OpZExt
	OpSExt
	OpTrunc

	// Floating point.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFCmp   // predicate in Aux, result I1
	OpSIToFP // A: int -> F64
	OpFPToSI // A: F64 -> int (instruction Type)
	OpFBits  // bitcast F64 -> I64
	OpBitsF  // bitcast I64 -> F64

	// Special operations from Umbra IR.
	OpCrc32    // crc32(A seed i64, B data i64) -> i64
	OpLMulFold // (A*B as u128).lo ^ .hi -> i64 (hash fallback)

	// OpGEP: address A + Imm + B*Aux (B may be NoValue; Aux is the
	// scale). Result Ptr.
	OpGEP

	// Memory. OpLoad: *A with result Type. OpStore: *A = B (B's type
	// decides the width). OpAtomicAdd: atomic *A += B, returns old value.
	OpLoad
	OpStore
	OpAtomicAdd

	// OpSelect: A ? B : C.
	OpSelect

	// OpCall calls runtime function Aux with arguments
	// Extra[A : A+B]. Result is the instruction Type (Void for none).
	OpCall

	// OpPhi merges values at a block head: Extra[A : A+2*B] holds
	// (pred-block, value) pairs.
	OpPhi

	// Terminators. OpBr: unconditional to block Aux. OpCondBr: if A then
	// block Aux else block B2 (stored in B as a block id). OpRet:
	// return A (NoValue for void). OpUnreachable traps.
	OpBr
	OpCondBr
	OpRet
	OpUnreachable

	NumOps
)

var opNames = [NumOps]string{
	OpParam: "param", OpConst: "const", OpConst128: "const128",
	OpConstStr: "conststr", OpConstF: "constf", OpConstPool: "constpool",
	OpNull:     "null",
	OpFuncAddr: "funcaddr",
	OpAdd:      "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpUDiv: "udiv", OpURem: "urem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpSar: "sar", OpRotr: "rotr",
	OpNeg: "neg", OpNot: "not",
	OpSAddTrap: "saddtrap", OpSSubTrap: "ssubtrap", OpSMulTrap: "smultrap",
	OpICmp: "icmp", OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFCmp: "fcmp", OpSIToFP: "sitofp", OpFPToSI: "fptosi",
	OpFBits: "fbits", OpBitsF: "bitsf",
	OpCrc32: "crc32", OpLMulFold: "lmulfold",
	OpGEP: "getelementptr", OpLoad: "load", OpStore: "store",
	OpAtomicAdd: "atomicadd", OpSelect: "select", OpCall: "call",
	OpPhi: "phi", OpBr: "br", OpCondBr: "condbr", OpRet: "return",
	OpUnreachable: "unreachable",
}

func (o Op) String() string {
	if o < NumOps && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the operation ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpBr, OpCondBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

// IsConst reports whether the operation produces a compile-time constant.
// OpConstPool is deliberately excluded: its value is bound per execution and
// unknown at compile time, so passes that fold or key on constant values must
// not treat it as one.
func (o Op) IsConst() bool {
	switch o {
	case OpConst, OpConst128, OpConstStr, OpConstF, OpNull, OpFuncAddr:
		return true
	}
	return false
}

// HasSideEffects reports whether the operation must not be eliminated or
// reordered across other side-effecting operations.
func (o Op) HasSideEffects() bool {
	switch o {
	case OpStore, OpAtomicAdd, OpCall, OpBr, OpCondBr, OpRet, OpUnreachable,
		OpSAddTrap, OpSSubTrap, OpSMulTrap, OpSDiv, OpSRem, OpUDiv, OpURem:
		return true
	}
	return false
}

// Value identifies an SSA value: the index of the defining instruction in
// Func.Instrs. NoValue marks absent operands.
type Value = int32

// NoValue is the absent-operand sentinel.
const NoValue Value = -1

// Block identifies a basic block by index into Func.Blocks.
type BlockID = int32

// Instr is one fixed-size IR instruction.
type Instr struct {
	Op   Op
	Type Type
	// A, B, C are value operands; for OpCondBr B holds the false-successor
	// block id, for OpPhi and OpCall A/B index the Extra pool.
	A, B, C Value
	// Imm holds immediates, GEP offsets and pool indices.
	Imm int64
	// Aux holds comparison predicates, callee ids, GEP scales, and
	// branch-target block ids.
	Aux uint32
}

// Cmp returns the comparison predicate of an OpICmp/OpFCmp instruction.
func (i *Instr) Cmp() Cmp { return Cmp(i.Aux) }

// MemUnchecked is an Aux bit on OpLoad/OpStore marking an access that
// static analysis proved in-bounds and non-null; back-ends may lower it
// without runtime bounds or null checks. The bit participates in code-cache
// keys automatically because cache keys hash Aux.
const MemUnchecked uint32 = 1 << 0

// Unchecked reports whether a memory instruction carries the MemUnchecked
// safety mark.
func (i *Instr) Unchecked() bool {
	return (i.Op == OpLoad || i.Op == OpStore) && i.Aux&MemUnchecked != 0
}

// SetUnchecked marks a memory instruction as statically proven safe.
func (i *Instr) SetUnchecked() {
	if i.Op != OpLoad && i.Op != OpStore {
		panic("qir: SetUnchecked on non-memory instruction")
	}
	i.Aux |= MemUnchecked
}

// BasicBlock is a list of instruction ids. The last instruction is the
// terminator; OpPhi instructions must be a prefix of the list.
type BasicBlock struct {
	List  []Value
	Preds []BlockID
}

// Terminator returns the block's final instruction id.
func (b *BasicBlock) Terminator() Value {
	if len(b.List) == 0 {
		return NoValue
	}
	return b.List[len(b.List)-1]
}

// Prov is the provenance record attaching an IR function back to the source
// construct it was generated from: the pipeline it belongs to, the plan
// operator path that produced it, and a SQL-ish fragment of that operator.
// Provenance is metadata only — it is deliberately excluded from back-end
// cache keys (which hash the explicit code-bearing fields), so enabling it
// cannot perturb compiled code. The zero value means "no provenance"
// (hand-built test modules, runtime stubs).
type Prov struct {
	// Pipeline is the codegen pipeline index the function belongs to, or -1
	// for functions outside any pipeline (e.g. sort comparators).
	Pipeline int
	// Operator is the plan-operator path, innermost last, truncated at the
	// nearest enclosing pipeline breaker (e.g. "scan(lineitem) > select >
	// groupby").
	Operator string
	// SQL is a best-effort SQL fragment for the innermost operator.
	SQL string
	// Role distinguishes the function's job within its pipeline: "setup",
	// "main", "cleanup", "comparator", or "merge".
	Role string
	// Mode records the pipeline's execution strategy: "batch" for
	// pipelines whose main function drives the vectorized kernels,
	// "tuple" (or empty) for tuple-at-a-time loops. qprof shows it so
	// per-pipeline attribution stays meaningful when a pipeline's work
	// moves into the runtime.
	Mode string
	// Hoisted/KeptInline record the constant-hoisting pass's decisions for
	// this function: literals moved to the module constant pool vs literals
	// classified range-load-bearing and kept inline (hoisting them would
	// have erased a value-range fact the sa check-elimination pass needed).
	// Metadata only, never hashed into cache keys.
	Hoisted    int
	KeptInline int
}

// Func is one IR function.
type Func struct {
	Name   string
	Params []Type
	Ret    Type

	Instrs []Instr
	Blocks []BasicBlock
	// Extra holds variable-length operand lists (call args, phi pairs).
	Extra []int32
	// I128 holds lo/hi pairs for OpConst128.
	I128 []uint64

	// Prov records which plan operator generated this function; metadata
	// only, never hashed into unit cache keys.
	Prov Prov

	mod *Module
}

// PoolConst is one hoisted literal in the module constant pool: the value an
// OpConstPool slot must hold when this module executes. The compiled body
// never embeds the value — back-ends emit a load from the runtime's pool slot
// — so code-cache keys cover only the slot index and type, and modules
// differing solely in pool values share compiled units.
type PoolConst struct {
	Type Type
	// Lo/Hi hold the value for numeric types (Lo sign-extended for narrow
	// integers, float64 bits for F64, lo/hi words for I128).
	Lo, Hi uint64
	// Str holds the value for Str slots; it is interned into the runtime at
	// bind time (content-addressed, so repeated binds are stable).
	Str string
}

// Module groups the functions compiled together (one query pipeline in the
// database setting), plus shared constant pools.
type Module struct {
	Name  string
	Funcs []*Func
	// Strings is the string constant pool referenced by OpConstStr.
	Strings []string
	// Pool is the hoisted-literal constant pool referenced by OpConstPool,
	// in slot order. Values are bound into the runtime's pool area before
	// execution (rt.DB.BindConstPool); only the slot shape (count + types)
	// affects compiled code.
	Pool []PoolConst
	// RTNames maps runtime-callee ids used in OpCall to names, for
	// printing and for binding at execution time.
	RTNames []string

	frozen bool
}

// Footprint returns the bytes of Go heap the module holds: the backing arrays
// of its functions' instruction, block, operand and constant lists, and its
// string and pool tables. A cache that retains modules charges this.
func (m *Module) Footprint() int64 {
	n := int64(unsafe.Sizeof(*m)) + int64(cap(m.Funcs))*int64(unsafe.Sizeof((*Func)(nil))) +
		int64(cap(m.Pool))*int64(unsafe.Sizeof(PoolConst{})) +
		int64(cap(m.Strings)+cap(m.RTNames))*int64(unsafe.Sizeof(""))
	for _, s := range m.Strings {
		n += int64(len(s))
	}
	for _, f := range m.Funcs {
		n += int64(unsafe.Sizeof(*f)) + int64(len(f.Name)+len(f.Prov.Operator)+len(f.Prov.SQL)) +
			int64(cap(f.Instrs))*int64(unsafe.Sizeof(Instr{})) +
			int64(cap(f.Blocks))*int64(unsafe.Sizeof(BasicBlock{})) +
			int64(cap(f.Extra))*4 + int64(cap(f.I128))*8 + int64(cap(f.Params))
		for b := range f.Blocks {
			n += int64(cap(f.Blocks[b].List)+cap(f.Blocks[b].Preds)) * 4
		}
	}
	return n
}

// Freeze marks the module immutable: interning a new runtime name or
// string constant panics until Unfreeze. The parallel compilation driver
// freezes the module while worker goroutines hold it, turning any missed
// pre-interning in a back-end's BeginModule (a data race and a determinism
// bug) into a loud failure instead of silent pool reordering.
func (m *Module) Freeze()   { m.frozen = true }
func (m *Module) Unfreeze() { m.frozen = false }

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name}
}

// RTImport interns a runtime function name and returns its callee id.
func (m *Module) RTImport(name string) uint32 {
	for i, n := range m.RTNames {
		if n == name {
			return uint32(i)
		}
	}
	if m.frozen {
		panic("qir: RTImport(" + name + ") on frozen module; the back-end's BeginModule must pre-import every runtime helper")
	}
	m.RTNames = append(m.RTNames, name)
	return uint32(len(m.RTNames) - 1)
}

// InternString interns a string constant and returns its pool index.
func (m *Module) InternString(s string) int64 {
	for i, v := range m.Strings {
		if v == s {
			return int64(i)
		}
	}
	if m.frozen {
		panic("qir: InternString on frozen module")
	}
	m.Strings = append(m.Strings, s)
	return int64(len(m.Strings) - 1)
}

// AddPoolConst appends a constant-pool slot and returns its index for use as
// an OpConstPool Imm. Slots are never deduplicated: two textually equal
// literals get distinct slots so a future variant can change either
// independently without perturbing the slot shape.
func (m *Module) AddPoolConst(pc PoolConst) int64 {
	if m.frozen {
		panic("qir: AddPoolConst on frozen module")
	}
	m.Pool = append(m.Pool, pc)
	return int64(len(m.Pool) - 1)
}

// Module returns the module a function belongs to.
func (f *Func) Module() *Module { return f.mod }

// NumInstrs returns the instruction count (including params and phis).
func (f *Func) NumInstrs() int { return len(f.Instrs) }

// ValueType returns the type of an SSA value.
func (f *Func) ValueType(v Value) Type {
	if v == NoValue {
		return Void
	}
	return f.Instrs[v].Type
}

// Const128 returns the lo/hi halves of an OpConst128 instruction.
func (f *Func) Const128(v Value) (lo, hi uint64) {
	idx := f.Instrs[v].Imm
	return f.I128[2*idx], f.I128[2*idx+1]
}

// CallArgs returns the argument values of an OpCall instruction.
func (f *Func) CallArgs(v Value) []Value {
	in := &f.Instrs[v]
	return f.Extra[in.A : in.A+in.B]
}

// PhiPairs returns the (pred, value) pairs of an OpPhi instruction as a flat
// slice of 2*n entries.
func (f *Func) PhiPairs(v Value) []int32 {
	in := &f.Instrs[v]
	return f.Extra[in.A : in.A+2*in.B]
}

// Succs appends the successor block ids of block b to dst and returns it.
func (f *Func) Succs(b BlockID, dst []BlockID) []BlockID {
	t := f.Blocks[b].Terminator()
	if t == NoValue {
		return dst
	}
	in := &f.Instrs[t]
	switch in.Op {
	case OpBr:
		return append(dst, BlockID(in.Aux))
	case OpCondBr:
		return append(dst, BlockID(in.Aux), in.B)
	}
	return dst
}

// Operands appends the value operands of instruction v to dst and returns
// it. Block references and pool indices are not included.
func (f *Func) Operands(v Value, dst []Value) []Value {
	in := &f.Instrs[v]
	switch in.Op {
	case OpParam, OpConst, OpConst128, OpConstStr, OpConstF, OpConstPool,
		OpNull, OpFuncAddr, OpBr, OpUnreachable:
		return dst
	case OpPhi:
		pairs := f.PhiPairs(v)
		for i := 1; i < len(pairs); i += 2 {
			dst = append(dst, pairs[i])
		}
		return dst
	case OpCall:
		return append(dst, f.CallArgs(v)...)
	case OpCondBr:
		return append(dst, in.A)
	case OpRet:
		if in.A != NoValue {
			dst = append(dst, in.A)
		}
		return dst
	case OpGEP:
		dst = append(dst, in.A)
		if in.B != NoValue {
			dst = append(dst, in.B)
		}
		return dst
	case OpSelect:
		return append(dst, in.A, in.B, in.C)
	case OpNeg, OpNot, OpZExt, OpSExt, OpTrunc, OpSIToFP, OpFPToSI,
		OpFBits, OpBitsF, OpLoad:
		return append(dst, in.A)
	default:
		// Binary operations.
		return append(dst, in.A, in.B)
	}
}
