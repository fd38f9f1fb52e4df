package qir

import (
	"math"

	"qcc/internal/obs"
)

// Slab-growth counters for the two append-heavy arenas the builder manages.
// A "growth" is an append that forces a reallocation (len == cap before the
// append); the counts expose how much IR construction churns the allocator
// without paying ReadMemStats on the hot path.
var (
	statInstrGrowths = obs.NewCounter("qir.instr_slab_growths")
	statExtraGrowths = obs.NewCounter("qir.extra_slab_growths")
)

// Builder constructs a Func block by block. It is the fast-generation API
// the query compiler uses: appending an instruction is an array append plus
// a block-list append, with no hashing or pointer chasing.
type Builder struct {
	f   *Func
	cur BlockID
}

// NewFunc creates a function in m and returns a builder positioned at its
// entry block, with OpParam instructions already emitted.
func NewFunc(m *Module, name string, ret Type, params ...Type) *Builder {
	f := &Func{Name: name, Params: params, Ret: ret, mod: m}
	m.Funcs = append(m.Funcs, f)
	b := &Builder{f: f}
	entry := b.NewBlock()
	b.SetBlock(entry)
	for i, pt := range params {
		b.append(Instr{Op: OpParam, Type: pt, A: NoValue, B: NoValue, C: NoValue, Aux: uint32(i)})
	}
	return b
}

// Func returns the function under construction.
func (b *Builder) Func() *Func { return b.f }

// Param returns the SSA value of parameter i.
func (b *Builder) Param(i int) Value { return Value(i) }

// NewBlock creates a new empty basic block.
func (b *Builder) NewBlock() BlockID {
	b.f.Blocks = append(b.f.Blocks, BasicBlock{})
	return BlockID(len(b.f.Blocks) - 1)
}

// SetBlock positions the builder at block id; subsequent instructions are
// appended there.
func (b *Builder) SetBlock(id BlockID) { b.cur = id }

// Block returns the current insertion block.
func (b *Builder) Block() BlockID { return b.cur }

// Terminated reports whether the current block already has a terminator.
func (b *Builder) Terminated() bool {
	t := b.f.Blocks[b.cur].Terminator()
	return t != NoValue && b.f.Instrs[t].Op.IsTerminator()
}

func (b *Builder) append(in Instr) Value {
	v := Value(len(b.f.Instrs))
	if len(b.f.Instrs) == cap(b.f.Instrs) {
		statInstrGrowths.Inc()
	}
	b.f.Instrs = append(b.f.Instrs, in)
	blk := &b.f.Blocks[b.cur]
	blk.List = append(blk.List, v)
	return v
}

// noteExtraGrowth records whether appending add more elements to the operand
// pool will force a reallocation.
func (b *Builder) noteExtraGrowth(add int) {
	if len(b.f.Extra)+add > cap(b.f.Extra) {
		statExtraGrowths.Inc()
	}
}

func (b *Builder) addEdge(from, to BlockID) {
	b.f.Blocks[to].Preds = append(b.f.Blocks[to].Preds, from)
}

// ConstInt emits an integer constant of type t.
func (b *Builder) ConstInt(t Type, v int64) Value {
	return b.append(Instr{Op: OpConst, Type: t, A: NoValue, B: NoValue, C: NoValue, Imm: v})
}

// Const128 emits a 128-bit constant from lo/hi halves.
func (b *Builder) Const128(lo, hi uint64) Value {
	idx := int64(len(b.f.I128) / 2)
	b.f.I128 = append(b.f.I128, lo, hi)
	return b.append(Instr{Op: OpConst128, Type: I128, A: NoValue, B: NoValue, C: NoValue, Imm: idx})
}

// ConstStr emits a string constant.
func (b *Builder) ConstStr(s string) Value {
	idx := b.f.mod.InternString(s)
	return b.append(Instr{Op: OpConstStr, Type: Str, A: NoValue, B: NoValue, C: NoValue, Imm: idx})
}

// ConstF emits a float constant.
func (b *Builder) ConstF(v float64) Value {
	return b.append(Instr{Op: OpConstF, Type: F64, A: NoValue, B: NoValue, C: NoValue, Imm: int64(math.Float64bits(v))})
}

// Null emits the null pointer constant.
func (b *Builder) Null() Value {
	return b.append(Instr{Op: OpNull, Type: Ptr, A: NoValue, B: NoValue, C: NoValue})
}

// FuncAddr emits the address of function fi in the same module.
func (b *Builder) FuncAddr(fi int) Value {
	return b.append(Instr{Op: OpFuncAddr, Type: I64, A: NoValue, B: NoValue, C: NoValue, Aux: uint32(fi)})
}

// Bin emits a binary operation with the result type of a.
func (b *Builder) Bin(op Op, a, c Value) Value {
	return b.append(Instr{Op: op, Type: b.f.ValueType(a), A: a, B: c, C: NoValue})
}

// Un emits a unary operation preserving the operand type.
func (b *Builder) Un(op Op, a Value) Value {
	return b.append(Instr{Op: op, Type: b.f.ValueType(a), A: a, B: NoValue, C: NoValue})
}

// ICmp emits an integer comparison.
func (b *Builder) ICmp(p Cmp, a, c Value) Value {
	return b.append(Instr{Op: OpICmp, Type: I1, A: a, B: c, C: NoValue, Aux: uint32(p)})
}

// FCmp emits a float comparison.
func (b *Builder) FCmp(p Cmp, a, c Value) Value {
	return b.append(Instr{Op: OpFCmp, Type: I1, A: a, B: c, C: NoValue, Aux: uint32(p)})
}

// Convert emits a width conversion (OpZExt/OpSExt/OpTrunc) to type t.
func (b *Builder) Convert(op Op, t Type, a Value) Value {
	return b.append(Instr{Op: op, Type: t, A: a, B: NoValue, C: NoValue})
}

// Crc32 emits crc32(seed, data).
func (b *Builder) Crc32(seed, data Value) Value {
	return b.append(Instr{Op: OpCrc32, Type: I64, A: seed, B: data, C: NoValue})
}

// LMulFold emits the long-mul-fold hash combiner.
func (b *Builder) LMulFold(a, c Value) Value {
	return b.append(Instr{Op: OpLMulFold, Type: I64, A: a, B: c, C: NoValue})
}

// GEP emits base + off + idx*scale; idx may be NoValue.
func (b *Builder) GEP(base Value, off int64, idx Value, scale int64) Value {
	return b.append(Instr{Op: OpGEP, Type: Ptr, A: base, B: idx, C: NoValue, Imm: off, Aux: uint32(scale)})
}

// Load emits a typed load from addr.
func (b *Builder) Load(t Type, addr Value) Value {
	return b.append(Instr{Op: OpLoad, Type: t, A: addr, B: NoValue, C: NoValue})
}

// Store emits a store of v to addr.
func (b *Builder) Store(addr, v Value) Value {
	return b.append(Instr{Op: OpStore, Type: Void, A: addr, B: v, C: NoValue})
}

// Select emits cond ? x : y.
func (b *Builder) Select(cond, x, y Value) Value {
	return b.append(Instr{Op: OpSelect, Type: b.f.ValueType(x), A: cond, B: x, C: y})
}

// Call emits a runtime call. name is interned in the module's runtime-import
// table; ret may be Void.
func (b *Builder) Call(ret Type, name string, args ...Value) Value {
	id := b.f.mod.RTImport(name)
	start := int32(len(b.f.Extra))
	b.noteExtraGrowth(len(args))
	b.f.Extra = append(b.f.Extra, args...)
	return b.append(Instr{Op: OpCall, Type: ret, A: start, B: int32(len(args)), C: NoValue, Aux: id})
}

// Phi emits a phi at the current block from (pred, value) pairs. Phis must
// be created before non-phi instructions of the block.
func (b *Builder) Phi(t Type, pairs ...int32) Value {
	if len(pairs)%2 != 0 {
		panic("qir: phi pairs must be (pred, value) tuples")
	}
	start := int32(len(b.f.Extra))
	b.noteExtraGrowth(len(pairs))
	b.f.Extra = append(b.f.Extra, pairs...)
	return b.append(Instr{Op: OpPhi, Type: t, A: start, B: int32(len(pairs) / 2), C: NoValue})
}

// AddPhiArg appends one (pred, value) incoming pair to an existing phi,
// typically to close a loop after the latch block is built. If the phi's
// pair list is not at the tail of the operand pool, it is relocated there
// (arena-style; the old slots become garbage).
func (b *Builder) AddPhiArg(phi Value, pred BlockID, v Value) {
	in := &b.f.Instrs[phi]
	if int(in.A+2*in.B) != len(b.f.Extra) {
		start := int32(len(b.f.Extra))
		b.noteExtraGrowth(int(2 * in.B))
		b.f.Extra = append(b.f.Extra, b.f.Extra[in.A:in.A+2*in.B]...)
		in.A = start
	}
	b.noteExtraGrowth(2)
	b.f.Extra = append(b.f.Extra, pred, v)
	in.B++
}

// Br emits an unconditional branch and records the CFG edge.
func (b *Builder) Br(to BlockID) {
	b.append(Instr{Op: OpBr, Type: Void, A: NoValue, B: NoValue, C: NoValue, Aux: uint32(to)})
	b.addEdge(b.cur, to)
}

// CondBr emits a conditional branch on cond.
func (b *Builder) CondBr(cond Value, ifTrue, ifFalse BlockID) {
	b.append(Instr{Op: OpCondBr, Type: Void, A: cond, B: ifFalse, C: NoValue, Aux: uint32(ifTrue)})
	b.addEdge(b.cur, ifTrue)
	b.addEdge(b.cur, ifFalse)
}

// Ret emits a return; v may be NoValue for void functions.
func (b *Builder) Ret(v Value) {
	b.append(Instr{Op: OpRet, Type: Void, A: v, B: NoValue, C: NoValue})
}
