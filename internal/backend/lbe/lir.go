// Package lbe implements the LLVM-like back-end studied in the paper: a
// flexible, multi-pass compiler framework with an optimized mode (-O2-style
// pipeline, SelectionDAG or GlobalISel instruction selection, greedy
// register allocation) and a cheap mode (-O0, FastISel with SelectionDAG
// fallbacks, fast register allocation), followed by an MC-layer assembly
// printer producing an in-memory ELF-like object that a JITLink-style
// four-phase linker maps into the executable address space.
//
// The IR deliberately mirrors LLVM's architecture where the paper
// attributes costs to it: values are heap-allocated objects linked by use
// lists, 128-bit integers are first-class (and a FastISel fallback cause),
// overflow arithmetic uses intrinsics returning {value, flag} structs, and
// the 16-byte string type is representable either as a {i64, i64} struct or
// as two scalar i64 values (the compile-time ablation of Sec. V-A2).
package lbe

import "fmt"

// TypeKind classifies LIR types.
type TypeKind uint8

// Type kinds.
const (
	KVoid TypeKind = iota
	KInt           // Bits: 1, 8, 16, 32, 64, 128
	KDouble
	KPtr
	KStruct // two-element aggregates only ({i64,i64}, {iN,i1})
)

// Type is an interned LIR type.
type Type struct {
	Kind   TypeKind
	Bits   int
	Fields []*Type
}

// Shared type singletons.
var (
	TVoid   = &Type{Kind: KVoid}
	TI1     = &Type{Kind: KInt, Bits: 1}
	TI8     = &Type{Kind: KInt, Bits: 8}
	TI16    = &Type{Kind: KInt, Bits: 16}
	TI32    = &Type{Kind: KInt, Bits: 32}
	TI64    = &Type{Kind: KInt, Bits: 64}
	TI128   = &Type{Kind: KInt, Bits: 128}
	TDouble = &Type{Kind: KDouble}
	TPtr    = &Type{Kind: KPtr}
	// TPair is the {i64, i64} struct used for 16-byte strings in struct
	// mode.
	TPair = &Type{Kind: KStruct, Fields: []*Type{TI64, TI64}}
	// TOvf64 and friends are the {iN, i1} overflow-intrinsic results.
	TOvf16  = &Type{Kind: KStruct, Fields: []*Type{TI16, TI1}}
	TOvf32  = &Type{Kind: KStruct, Fields: []*Type{TI32, TI1}}
	TOvf64  = &Type{Kind: KStruct, Fields: []*Type{TI64, TI1}}
	TOvf128 = &Type{Kind: KStruct, Fields: []*Type{TI128, TI1}}
)

func (t *Type) String() string {
	switch t.Kind {
	case KVoid:
		return "void"
	case KInt:
		return fmt.Sprintf("i%d", t.Bits)
	case KDouble:
		return "double"
	case KPtr:
		return "ptr"
	case KStruct:
		return fmt.Sprintf("{%s, %s}", t.Fields[0], t.Fields[1])
	}
	return "?"
}

// Opcode is an LIR instruction opcode.
type Opcode uint8

// LIR opcodes.
const (
	LOpInvalid Opcode = iota
	LOpConst          // integer constant (Imm / Imm2 for i128 high)
	LOpConstF         // double constant (bit pattern in Imm)
	LOpNull
	LOpFuncAddr // function index in Imm

	LOpAdd
	LOpSub
	LOpMul
	LOpSDiv
	LOpSRem
	LOpUDiv
	LOpURem
	LOpAnd
	LOpOr
	LOpXor
	LOpShl
	LOpLShr
	LOpAShr

	LOpICmp // Pred
	LOpFCmp

	LOpZExt
	LOpSExt
	LOpTrunc
	LOpSIToFP
	LOpFPToSI
	LOpBitcast

	LOpFAdd
	LOpFSub
	LOpFMul
	LOpFDiv
	LOpFNeg

	LOpGEP // ptr + Imm + idx*Scale
	LOpLoad
	LOpStore

	LOpSelect
	LOpPhi
	LOpCallRT     // runtime call, RTID
	LOpIntrinsic  // IntrinsicID
	LOpExtractVal // field Imm of a struct
	LOpInsertVal
	LOpBuildPair // two scalars -> struct (function-return packing)

	LOpBr
	LOpCondBr
	LOpRet
	LOpUnreachable

	LOpNum
)

var lopNames = [LOpNum]string{
	LOpConst: "const", LOpConstF: "constf", LOpNull: "null", LOpFuncAddr: "funcaddr",
	LOpAdd: "add", LOpSub: "sub", LOpMul: "mul", LOpSDiv: "sdiv", LOpSRem: "srem",
	LOpUDiv: "udiv", LOpURem: "urem", LOpAnd: "and", LOpOr: "or", LOpXor: "xor",
	LOpShl: "shl", LOpLShr: "lshr", LOpAShr: "ashr",
	LOpICmp: "icmp", LOpFCmp: "fcmp",
	LOpZExt: "zext", LOpSExt: "sext", LOpTrunc: "trunc",
	LOpSIToFP: "sitofp", LOpFPToSI: "fptosi", LOpBitcast: "bitcast",
	LOpFAdd: "fadd", LOpFSub: "fsub", LOpFMul: "fmul", LOpFDiv: "fdiv", LOpFNeg: "fneg",
	LOpGEP: "getelementptr", LOpLoad: "load", LOpStore: "store",
	LOpSelect: "select", LOpPhi: "phi", LOpCallRT: "call", LOpIntrinsic: "intrinsic",
	LOpExtractVal: "extractvalue", LOpInsertVal: "insertvalue", LOpBuildPair: "buildpair",
	LOpBr: "br", LOpCondBr: "condbr", LOpRet: "ret", LOpUnreachable: "unreachable",
}

func (o Opcode) String() string {
	if o < LOpNum && lopNames[o] != "" {
		return lopNames[o]
	}
	return fmt.Sprintf("lop(%d)", uint8(o))
}

// IsTerminator reports block-ending opcodes.
func (o Opcode) IsTerminator() bool {
	switch o {
	case LOpBr, LOpCondBr, LOpRet, LOpUnreachable:
		return true
	}
	return false
}

// HasSideEffects reports opcodes that cannot be erased when unused.
func (o Opcode) HasSideEffects() bool {
	switch o {
	case LOpStore, LOpCallRT, LOpIntrinsic,
		LOpBr, LOpCondBr, LOpRet, LOpUnreachable,
		LOpSDiv, LOpSRem, LOpUDiv, LOpURem:
		return true
	}
	return false
}

// IntrinsicID identifies the intrinsics the query front-end uses.
type IntrinsicID uint8

// Intrinsics.
const (
	IntrSAddOv IntrinsicID = iota // {iN, i1} sadd.with.overflow
	IntrSSubOv
	IntrSMulOv
	IntrCrc32  // i64 crc32c
	IntrRotr   // i64 rotr
	IntrMul128 // hand-optimized 128-bit multiplication helper call
	NumIntrinsics
)

var intrNames = [NumIntrinsics]string{
	"llvm.sadd.with.overflow", "llvm.ssub.with.overflow", "llvm.smul.with.overflow",
	"llvm.crc32c", "llvm.fshr", "umbra.mul128ov",
}

func (i IntrinsicID) String() string {
	if i < NumIntrinsics {
		return intrNames[i]
	}
	return "intr(?)"
}

// Instr is a heap-allocated LIR instruction, linked into its block and into
// the use lists of its operands.
type Instr struct {
	Op    Opcode
	Typ   *Type
	Ops   []*Instr // operands (nil entries not allowed; absent = short slice)
	Imm   int64
	Imm2  int64 // i128 constant high half
	Pred  uint8 // comparison predicate
	Scale int64 // GEP scale
	// Unchecked marks loads/stores whose bounds/null check was discharged
	// at compile time (qir.MemUnchecked); selectors emit the unchecked
	// machine ops for them.
	Unchecked bool
	RTID      uint32
	Intr      IntrinsicID
	// Blocks for terminators: Then/Else (or single target in Then).
	Then, Else *Block
	// Incoming blocks for phis, parallel to Ops.
	Inc []*Block

	Block *Block
	// Uses is the use list: instructions consuming this value.
	Uses []*Instr

	// id is assigned for printing and deterministic iteration.
	id int32
}

// Block is an LIR basic block.
type Block struct {
	Instrs []*Instr
	Preds  []*Block
	Fn     *Fn
	id     int32
}

// Fn is an LIR function.
type Fn struct {
	Name    string
	Blocks  []*Block
	Params  []*Instr // parameter pseudo-instructions (LOpInvalid op, typed)
	RetType *Type
	nextID  int32
	// NumValues counts allocated instruction objects (construction cost
	// metric).
	NumValues int64
}

// Module is an LIR module.
type Module struct {
	Name    string
	Fns     []*Fn
	RTNames []string
}

// NewFn creates a function with an entry block and typed parameters.
func (m *Module) NewFn(name string, ret *Type, params ...*Type) *Fn {
	f := &Fn{Name: name, RetType: ret}
	entry := f.NewBlock()
	_ = entry
	for _, pt := range params {
		p := &Instr{Op: LOpInvalid, Typ: pt, id: f.nextID}
		f.nextID++
		f.NumValues++
		f.Params = append(f.Params, p)
	}
	m.Fns = append(m.Fns, f)
	return f
}

// NewBlock appends an empty block.
func (f *Fn) NewBlock() *Block {
	b := &Block{Fn: f, id: int32(len(f.Blocks))}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Append creates an instruction in block b, wiring operand use lists.
func (b *Block) Append(in *Instr) *Instr {
	in.Block = b
	in.id = b.Fn.nextID
	b.Fn.nextID++
	b.Fn.NumValues++
	b.Instrs = append(b.Instrs, in)
	for _, op := range in.Ops {
		op.Uses = append(op.Uses, in)
	}
	return in
}

// RemoveUse unlinks one use of v by user.
func (v *Instr) RemoveUse(user *Instr) {
	for i, u := range v.Uses {
		if u == user {
			v.Uses = append(v.Uses[:i], v.Uses[i+1:]...)
			return
		}
	}
}

// ReplaceAllUses rewrites every use of v to use w.
func (v *Instr) ReplaceAllUses(w *Instr) {
	for _, user := range v.Uses {
		for i, op := range user.Ops {
			if op == v {
				user.Ops[i] = w
				w.Uses = append(w.Uses, user)
			}
		}
	}
	v.Uses = v.Uses[:0]
}

// Succs returns the successor blocks of b.
func (b *Block) Succs() []*Block {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	switch t.Op {
	case LOpBr:
		return []*Block{t.Then}
	case LOpCondBr:
		return []*Block{t.Then, t.Else}
	}
	return nil
}

// Term returns the block terminator (nil if missing).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// eraseDead removes an unused, side-effect-free instruction from its block,
// unlinking operand uses. Reports whether it was removed.
func (in *Instr) eraseDead() bool {
	if len(in.Uses) != 0 || in.Op.HasSideEffects() || in.Op == LOpPhi || in.Op == LOpInvalid {
		return false
	}
	b := in.Block
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			break
		}
	}
	for _, op := range in.Ops {
		op.RemoveUse(in)
	}
	return true
}
