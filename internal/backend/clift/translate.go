package clift

import (
	"fmt"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vt"
)

// Options toggle the custom CIR instructions the paper added to Cranelift
// (Table II). With an instruction disabled, translation falls back to
// runtime helper calls (or split multiplications for MulWide), reproducing
// the baseline the speedups are measured against.
type Options struct {
	NoCrc32    bool
	NoOverflow bool
	NoMulWide  bool
}

// translator lowers one QIR function to CIR. Wide (128-bit) values are
// split into lo/hi pairs, narrow integers are kept sign-extended in 64-bit
// values with explicit canonicalization, and getelementptr becomes integer
// arithmetic — CIR has no pointer or aggregate types.
type translator struct {
	f    *qir.Func
	out  *Func
	env  *backend.Env
	opts Options
	mod  *qir.Module

	// vals maps QIR values to CIR value pairs. The paper attributes
	// significant translation time to exactly this hash map.
	vals   map[qir.Value][2]Val
	blocks []int32 // QIR block -> CIR block
	cur    int32
	qb     qir.BlockID // QIR block being translated
}

func translate(f *qir.Func, env *backend.Env, opts Options) (*Func, error) {
	tr := &translator{
		f:    f,
		env:  env,
		opts: opts,
		mod:  f.Module(),
		vals: make(map[qir.Value][2]Val),
	}
	out := &Func{Name: f.Name}
	tr.out = out

	// Pass 1: set up function metadata — blocks, block parameters for
	// phis, and function parameters.
	tr.blocks = make([]int32, len(f.Blocks))
	for b := range f.Blocks {
		tr.blocks[b] = out.newBlock()
	}
	for i, pt := range f.Params {
		v := qir.Value(i)
		if pt == qir.F64 {
			cv := out.addBlockParam(tr.blocks[0], vt.FPR)
			out.Params = append(out.Params, cv)
			tr.vals[v] = [2]Val{cv, noVal}
		} else if pt.Is128() {
			lo := out.addBlockParam(tr.blocks[0], vt.GPR)
			hi := out.addBlockParam(tr.blocks[0], vt.GPR)
			out.Params = append(out.Params, lo, hi)
			tr.vals[v] = [2]Val{lo, hi}
		} else {
			cv := out.addBlockParam(tr.blocks[0], vt.GPR)
			out.Params = append(out.Params, cv)
			tr.vals[v] = [2]Val{cv, noVal}
		}
	}
	for b := range f.Blocks {
		if b == 0 {
			continue
		}
		for _, v := range f.Blocks[b].List {
			in := &f.Instrs[v]
			if in.Op != qir.OpPhi {
				break
			}
			switch {
			case in.Type == qir.F64:
				cv := out.addBlockParam(tr.blocks[b], vt.FPR)
				tr.vals[v] = [2]Val{cv, noVal}
			case in.Type.Is128():
				lo := out.addBlockParam(tr.blocks[b], vt.GPR)
				hi := out.addBlockParam(tr.blocks[b], vt.GPR)
				tr.vals[v] = [2]Val{lo, hi}
			default:
				cv := out.addBlockParam(tr.blocks[b], vt.GPR)
				tr.vals[v] = [2]Val{cv, noVal}
			}
		}
	}
	if f.Ret != qir.Void {
		if f.Ret.Is128() {
			out.Rets = 2
		} else {
			out.Rets = 1
		}
	}

	// Pass 2: translate instruction by instruction.
	for b := range f.Blocks {
		tr.cur = tr.blocks[b]
		tr.qb = qir.BlockID(b)
		for _, v := range f.Blocks[b].List {
			in := &f.Instrs[v]
			if in.Op == qir.OpPhi || in.Op == qir.OpParam {
				continue
			}
			if err := tr.inst(v, in); err != nil {
				return nil, fmt.Errorf("clift: %s: %w", f.Name, err)
			}
		}
	}
	tr.computePreds()
	return out, nil
}

func (tr *translator) computePreds() {
	var succBuf []int32
	for b := int32(0); b < int32(len(tr.out.Blocks)); b++ {
		succBuf = tr.out.succs(b, succBuf[:0])
		for _, s := range succBuf {
			tr.out.Blocks[s].Preds = append(tr.out.Blocks[s].Preds, b)
		}
	}
}

// emit appends a CIR instruction with nres fresh results of class cls.
func (tr *translator) emit(in Inst, nres int, cls vt.RegClass) *Inst {
	in.Res = [2]Val{noVal, noVal}
	idx := tr.out.appendInst(tr.cur, in)
	for i := 0; i < nres; i++ {
		tr.out.Insts[idx].Res[i] = tr.out.newVal(cls, idx)
	}
	return &tr.out.Insts[idx]
}

func (tr *translator) op1(op Op, a Val) Val {
	return tr.emit(Inst{Op: op, Args: [3]Val{a, noVal, noVal}}, 1, vt.GPR).Res[0]
}

func (tr *translator) op2(op Op, a, b Val) Val {
	return tr.emit(Inst{Op: op, Args: [3]Val{a, b, noVal}}, 1, vt.GPR).Res[0]
}

// memAux converts a QIR instruction's check-elimination mark into the Aux
// flag CIR memory operations carry (Aux 1 = unchecked).
func memAux(in *qir.Instr) uint32 {
	if in.Unchecked() {
		return 1
	}
	return 0
}

// mem1 emits a single-result memory operation with the given Aux flag.
func (tr *translator) mem1(op Op, a Val, aux uint32) Val {
	return tr.emit(Inst{Op: op, Args: [3]Val{a, noVal, noVal}, Aux: aux}, 1, vt.GPR).Res[0]
}

func (tr *translator) fop2(op Op, a, b Val) Val {
	return tr.emit(Inst{Op: op, Args: [3]Val{a, b, noVal}}, 1, vt.FPR).Res[0]
}

func (tr *translator) iconst(v int64) Val {
	return tr.emit(Inst{Op: OpIconst, Imm: v, Args: [3]Val{noVal, noVal, noVal}}, 1, vt.GPR).Res[0]
}

func (tr *translator) icmp(c qir.Cmp, a, b Val) Val {
	return tr.emit(Inst{Op: OpIcmp, Aux: uint32(c), Args: [3]Val{a, b, noVal}}, 1, vt.GPR).Res[0]
}

// lo returns the (low) CIR value of a QIR value.
func (tr *translator) lo(v qir.Value) Val { return tr.vals[v][0] }

// pair returns both halves of a wide QIR value.
func (tr *translator) pair(v qir.Value) (Val, Val) {
	p := tr.vals[v]
	return p[0], p[1]
}

func (tr *translator) set(v qir.Value, lo Val)         { tr.vals[v] = [2]Val{lo, noVal} }
func (tr *translator) setPair(v qir.Value, lo, hi Val) { tr.vals[v] = [2]Val{lo, hi} }

// canon sign-extends a 64-bit CIR value to the canonical form of a narrow
// type via shift pairs (band for booleans).
func (tr *translator) canon(t qir.Type, v Val) Val {
	switch t {
	case qir.I1:
		return tr.op2(OpBand, v, tr.iconst(1))
	case qir.I8:
		return tr.op2(OpSshr, tr.op2(OpIshl, v, tr.iconst(56)), tr.iconst(56))
	case qir.I16:
		return tr.op2(OpSshr, tr.op2(OpIshl, v, tr.iconst(48)), tr.iconst(48))
	case qir.I32:
		return tr.op2(OpSshr, tr.op2(OpIshl, v, tr.iconst(32)), tr.iconst(32))
	}
	return v
}

func (tr *translator) zmask(t qir.Type, v Val) Val {
	switch t {
	case qir.I1:
		return tr.op2(OpBand, v, tr.iconst(1))
	case qir.I8:
		return tr.op2(OpBand, v, tr.iconst(0xFF))
	case qir.I16:
		return tr.op2(OpBand, v, tr.iconst(0xFFFF))
	case qir.I32:
		return tr.op2(OpBand, v, tr.iconst(0xFFFFFFFF))
	}
	return v
}

// helperCall emits a call to a runtime helper with plain 64-bit args.
func (tr *translator) helperCall(name string, nres int, args ...Val) [2]Val {
	id := tr.mod.RTImport(name)
	at := int32(len(tr.out.Extra))
	tr.out.Extra = append(tr.out.Extra, args...)
	in := tr.emit(Inst{
		Op: OpCallExt, Aux: id, ExtraAt: at, NArgs: int32(len(args)),
		Args: [3]Val{noVal, noVal, noVal},
	}, nres, vt.GPR)
	return in.Res
}

// branchArgs collects the CIR values feeding a successor's block params.
func (tr *translator) branchArgs(pred, succ qir.BlockID) []Val {
	var args []Val
	for _, v := range tr.f.Blocks[succ].List {
		in := &tr.f.Instrs[v]
		if in.Op != qir.OpPhi {
			break
		}
		pairs := tr.f.PhiPairs(v)
		for i := 0; i < len(pairs); i += 2 {
			if pairs[i] != pred {
				continue
			}
			src := pairs[i+1]
			p := tr.vals[src]
			args = append(args, p[0])
			if p[1] != noVal {
				args = append(args, p[1])
			}
			break
		}
	}
	return args
}

var binMap = map[qir.Op]Op{
	qir.OpAdd: OpIadd, qir.OpSub: OpIsub, qir.OpMul: OpImul,
	qir.OpSDiv: OpSdiv, qir.OpSRem: OpSrem, qir.OpUDiv: OpUdiv, qir.OpURem: OpUrem,
	qir.OpAnd: OpBand, qir.OpOr: OpBor, qir.OpXor: OpBxor,
	qir.OpShl: OpIshl, qir.OpShr: OpUshr, qir.OpSar: OpSshr, qir.OpRotr: OpRotr,
}

func (tr *translator) inst(v qir.Value, in *qir.Instr) error {
	f := tr.f
	switch in.Op {
	case qir.OpConst:
		tr.set(v, tr.iconst(in.Imm))
	case qir.OpConst128:
		lo, hi := f.Const128(v)
		tr.setPair(v, tr.iconst(int64(lo)), tr.iconst(int64(hi)))
	case qir.OpConstStr:
		lo, hi := tr.env.DB.InternString(tr.mod.Strings[in.Imm])
		tr.setPair(v, tr.iconst(int64(lo)), tr.iconst(int64(hi)))
	case qir.OpConstF:
		cv := tr.emit(Inst{Op: OpF64const, Imm: in.Imm, Args: [3]Val{noVal, noVal, noVal}}, 1, vt.FPR).Res[0]
		tr.set(v, cv)
	case qir.OpConstPool:
		// Execution-time load from the DB's constant pool; the slot address
		// is compile-time stable, the value is not. Pool slots are
		// always-valid machine memory (allocated in NewDB), so the loads
		// carry the unchecked Aux. Slots hold canonical sign-extended
		// values, so Load64 is correct for every scalar type.
		addr := tr.iconst(int64(tr.env.DB.ConstPoolAddr(int(in.Imm))))
		switch in.Type {
		case qir.I128, qir.Str:
			lo := tr.mem1(OpLoad64, addr, 1)
			hiAddr := tr.op2(OpIadd, addr, tr.iconst(8))
			tr.setPair(v, lo, tr.mem1(OpLoad64, hiAddr, 1))
		case qir.F64:
			tr.set(v, tr.emit(Inst{Op: OpFload, Args: [3]Val{addr, noVal, noVal}, Aux: 1}, 1, vt.FPR).Res[0])
		default:
			tr.set(v, tr.mem1(OpLoad64, addr, 1))
		}
	case qir.OpNull:
		tr.set(v, tr.iconst(0))
	case qir.OpFuncAddr:
		cv := tr.emit(Inst{Op: OpFuncAddr, Aux: in.Aux, Args: [3]Val{noVal, noVal, noVal}}, 1, vt.GPR).Res[0]
		tr.set(v, cv)

	case qir.OpAdd, qir.OpSub, qir.OpMul, qir.OpSDiv, qir.OpSRem, qir.OpUDiv,
		qir.OpURem, qir.OpAnd, qir.OpOr, qir.OpXor, qir.OpShl, qir.OpShr,
		qir.OpSar, qir.OpRotr:
		if in.Type == qir.I128 {
			return tr.bin128(v, in)
		}
		a, b := tr.lo(in.A), tr.lo(in.B)
		if in.Op == qir.OpShr && isNarrow(in.Type) {
			a = tr.zmask(in.Type, a)
		}
		r := tr.op2(binMap[in.Op], a, b)
		if isNarrow(in.Type) {
			switch in.Op {
			case qir.OpAnd, qir.OpOr, qir.OpSar, qir.OpSRem, qir.OpXor:
			default:
				r = tr.canon(in.Type, r)
			}
		}
		tr.set(v, r)

	case qir.OpNeg:
		switch {
		case in.Type == qir.I128:
			alo, ahi := tr.pair(in.A)
			zero := tr.iconst(0)
			borrow := tr.icmp(qir.CmpULT, zero, alo)
			lo := tr.op2(OpIsub, zero, alo)
			hi := tr.op2(OpIsub, tr.op2(OpIsub, tr.iconst(0), ahi), borrow)
			tr.setPair(v, lo, hi)
		case in.Type == qir.F64:
			bits := tr.op1(OpBitcastFI, tr.lo(in.A))
			neg := tr.op2(OpBxor, bits, tr.iconst(-1<<63))
			tr.set(v, tr.fop2(OpBitcastIF, neg, noVal))
		default:
			tr.set(v, tr.canon(in.Type, tr.op1(OpIneg, tr.lo(in.A))))
		}
	case qir.OpNot:
		tr.set(v, tr.canon(in.Type, tr.op1(OpBnot, tr.lo(in.A))))

	case qir.OpSAddTrap, qir.OpSSubTrap, qir.OpSMulTrap:
		return tr.trapArith(v, in)

	case qir.OpICmp:
		if f.ValueType(in.A) == qir.I128 {
			return tr.icmp128(v, in)
		}
		tr.set(v, tr.icmp(in.Cmp(), tr.lo(in.A), tr.lo(in.B)))

	case qir.OpZExt:
		from := f.ValueType(in.A)
		m := tr.zmask(from, tr.lo(in.A))
		if in.Type == qir.I128 {
			tr.setPair(v, m, tr.iconst(0))
		} else {
			tr.set(v, m)
		}
	case qir.OpSExt:
		a := tr.lo(in.A)
		if in.Type == qir.I128 {
			tr.setPair(v, a, tr.op2(OpSshr, a, tr.iconst(63)))
		} else {
			tr.set(v, a) // canonical form already sign-extended
		}
	case qir.OpTrunc:
		tr.set(v, tr.canon(in.Type, tr.lo(in.A)))

	case qir.OpFAdd, qir.OpFSub, qir.OpFMul, qir.OpFDiv:
		var op Op
		switch in.Op {
		case qir.OpFAdd:
			op = OpFadd
		case qir.OpFSub:
			op = OpFsub
		case qir.OpFMul:
			op = OpFmul
		default:
			op = OpFdiv
		}
		tr.set(v, tr.fop2(op, tr.lo(in.A), tr.lo(in.B)))
	case qir.OpFCmp:
		tr.set(v, tr.emit(Inst{Op: OpFcmp, Aux: in.Aux, Args: [3]Val{tr.lo(in.A), tr.lo(in.B), noVal}}, 1, vt.GPR).Res[0])
	case qir.OpSIToFP:
		tr.set(v, tr.fop2(OpFcvtFromSint, tr.lo(in.A), noVal))
	case qir.OpFPToSI:
		tr.set(v, tr.canon(in.Type, tr.op1(OpFcvtToSint, tr.lo(in.A))))
	case qir.OpFBits:
		tr.set(v, tr.op1(OpBitcastFI, tr.lo(in.A)))
	case qir.OpBitsF:
		tr.set(v, tr.fop2(OpBitcastIF, tr.lo(in.A), noVal))

	case qir.OpCrc32:
		if tr.opts.NoCrc32 {
			r := tr.helperCall(rt.FnCrc32Help, 1, tr.lo(in.A), tr.lo(in.B))
			tr.set(v, r[0])
		} else {
			tr.set(v, tr.op2(OpCrc32, tr.lo(in.A), tr.lo(in.B)))
		}
	case qir.OpLMulFold:
		lo, hi := tr.mul64wide(tr.lo(in.A), tr.lo(in.B))
		tr.set(v, tr.op2(OpBxor, lo, hi))

	case qir.OpGEP:
		// Pointer arithmetic lowered to plain integer arithmetic.
		addr := tr.lo(in.A)
		if in.Imm != 0 {
			addr = tr.op2(OpIadd, addr, tr.iconst(in.Imm))
		}
		if in.B != qir.NoValue {
			idx := tr.lo(in.B)
			if in.Aux != 1 {
				idx = tr.op2(OpImul, idx, tr.iconst(int64(in.Aux)))
			}
			addr = tr.op2(OpIadd, addr, idx)
		}
		tr.set(v, addr)

	case qir.OpLoad:
		addr := tr.lo(in.A)
		uc := memAux(in)
		switch in.Type {
		case qir.I128, qir.Str:
			lo := tr.mem1(OpLoad64, addr, uc)
			hiAddr := tr.op2(OpIadd, addr, tr.iconst(8))
			tr.setPair(v, lo, tr.mem1(OpLoad64, hiAddr, uc))
		case qir.F64:
			tr.set(v, tr.emit(Inst{Op: OpFload, Args: [3]Val{addr, noVal, noVal}, Aux: uc}, 1, vt.FPR).Res[0])
		case qir.I1:
			tr.set(v, tr.op2(OpBand, tr.mem1(OpLoad8U, addr, uc), tr.iconst(1)))
		case qir.I8:
			tr.set(v, tr.mem1(OpLoad8S, addr, uc))
		case qir.I16:
			tr.set(v, tr.mem1(OpLoad16S, addr, uc))
		case qir.I32:
			tr.set(v, tr.mem1(OpLoad32S, addr, uc))
		default:
			tr.set(v, tr.mem1(OpLoad64, addr, uc))
		}

	case qir.OpStore:
		addr := tr.lo(in.A)
		uc := memAux(in)
		switch t := f.ValueType(in.B); t {
		case qir.I128, qir.Str:
			lo, hi := tr.pair(in.B)
			tr.emit(Inst{Op: OpStore64, Args: [3]Val{addr, lo, noVal}, Aux: uc}, 0, vt.GPR)
			hiAddr := tr.op2(OpIadd, addr, tr.iconst(8))
			tr.emit(Inst{Op: OpStore64, Args: [3]Val{hiAddr, hi, noVal}, Aux: uc}, 0, vt.GPR)
		case qir.F64:
			tr.emit(Inst{Op: OpFstore, Args: [3]Val{addr, tr.lo(in.B), noVal}, Aux: uc}, 0, vt.GPR)
		case qir.I1, qir.I8:
			tr.emit(Inst{Op: OpStore8, Args: [3]Val{addr, tr.lo(in.B), noVal}, Aux: uc}, 0, vt.GPR)
		case qir.I16:
			tr.emit(Inst{Op: OpStore16, Args: [3]Val{addr, tr.lo(in.B), noVal}, Aux: uc}, 0, vt.GPR)
		case qir.I32:
			tr.emit(Inst{Op: OpStore32, Args: [3]Val{addr, tr.lo(in.B), noVal}, Aux: uc}, 0, vt.GPR)
		default:
			tr.emit(Inst{Op: OpStore64, Args: [3]Val{addr, tr.lo(in.B), noVal}, Aux: uc}, 0, vt.GPR)
		}

	case qir.OpSelect:
		cond := tr.lo(in.A)
		switch {
		case in.Type.Is128():
			xlo, xhi := tr.pair(in.B)
			ylo, yhi := tr.pair(in.C)
			lo := tr.emit(Inst{Op: OpSelect, Args: [3]Val{cond, xlo, ylo}}, 1, vt.GPR).Res[0]
			hi := tr.emit(Inst{Op: OpSelect, Args: [3]Val{cond, xhi, yhi}}, 1, vt.GPR).Res[0]
			tr.setPair(v, lo, hi)
		case in.Type == qir.F64:
			r := tr.emit(Inst{Op: OpSelect, Args: [3]Val{cond, tr.lo(in.B), tr.lo(in.C)}}, 1, vt.FPR).Res[0]
			tr.set(v, r)
		default:
			r := tr.emit(Inst{Op: OpSelect, Args: [3]Val{cond, tr.lo(in.B), tr.lo(in.C)}}, 1, vt.GPR).Res[0]
			tr.set(v, r)
		}

	case qir.OpCall:
		var flat []Val
		for _, a := range f.CallArgs(v) {
			p := tr.vals[a]
			flat = append(flat, p[0])
			if p[1] != noVal {
				flat = append(flat, p[1])
			}
		}
		nres := 0
		cls := vt.GPR
		switch {
		case in.Type == qir.Void:
		case in.Type.Is128():
			nres = 2
		case in.Type == qir.F64:
			nres = 1
			cls = vt.FPR
		default:
			nres = 1
		}
		at := int32(len(tr.out.Extra))
		tr.out.Extra = append(tr.out.Extra, flat...)
		ci := tr.emit(Inst{
			Op: OpCallExt, Aux: in.Aux, ExtraAt: at, NArgs: int32(len(flat)),
			Args: [3]Val{noVal, noVal, noVal},
		}, nres, cls)
		switch nres {
		case 1:
			r := ci.Res[0]
			if isNarrow(in.Type) {
				r = tr.canon(in.Type, r)
			}
			tr.set(v, r)
		case 2:
			tr.setPair(v, ci.Res[0], ci.Res[1])
		}

	case qir.OpBr:
		succ := qir.BlockID(in.Aux)
		args := tr.branchArgs(tr.qb, succ)
		at := int32(len(tr.out.Extra))
		tr.out.Extra = append(tr.out.Extra, args...)
		tr.emit(Inst{Op: OpJump, Aux: uint32(tr.blocks[succ]), ExtraAt: at, NArgs: int32(len(args)),
			Args: [3]Val{noVal, noVal, noVal}}, 0, vt.GPR)

	case qir.OpCondBr:
		pred := tr.qb
		thenB := qir.BlockID(in.Aux)
		elseB := in.B
		// Conditional branches never carry block arguments: edges that
		// pass values are split through trampoline blocks holding the
		// argument-carrying jump (critical-edge splitting).
		thenC := tr.edgeTarget(pred, thenB)
		elseC := tr.edgeTarget(pred, elseB)
		tr.emit(Inst{
			Op: OpBrif, Aux: uint32(thenC), Imm: int64(elseC),
			Args: [3]Val{tr.lo(in.A), noVal, noVal},
		}, 0, vt.GPR)

	case qir.OpRet:
		args := [3]Val{noVal, noVal, noVal}
		if in.A != qir.NoValue {
			p := tr.vals[in.A]
			args[0] = p[0]
			args[1] = p[1]
		}
		tr.emit(Inst{Op: OpRet, Args: args}, 0, vt.GPR)

	case qir.OpUnreachable:
		tr.emit(Inst{Op: OpTrap, Imm: 0, Args: [3]Val{noVal, noVal, noVal}}, 0, vt.GPR)

	default:
		return fmt.Errorf("cannot translate %s", in.Op)
	}
	return nil
}

// edgeTarget returns the CIR block a conditional edge should jump to: the
// successor itself when no block arguments flow, or a trampoline block with
// an argument-carrying jump otherwise.
func (tr *translator) edgeTarget(pred, succ qir.BlockID) int32 {
	args := tr.branchArgs(pred, succ)
	if len(args) == 0 {
		return tr.blocks[succ]
	}
	tramp := tr.out.newBlock()
	at := int32(len(tr.out.Extra))
	tr.out.Extra = append(tr.out.Extra, args...)
	tr.out.appendInst(tramp, Inst{
		Op: OpJump, Aux: uint32(tr.blocks[succ]), ExtraAt: at, NArgs: int32(len(args)),
		Args: [3]Val{noVal, noVal, noVal}, Res: [2]Val{noVal, noVal},
	})
	return tramp
}

func isNarrow(t qir.Type) bool {
	return t == qir.I1 || t == qir.I8 || t == qir.I16 || t == qir.I32
}

// mul64wide produces lo and hi of a full 64x64 multiplication, using the
// custom MulWide instruction when enabled and two separate multiplications
// otherwise (Cranelift's selector cannot merge them, as the paper notes).
func (tr *translator) mul64wide(a, b Val) (lo, hi Val) {
	if !tr.opts.NoMulWide {
		in := tr.emit(Inst{Op: OpMulWide, Args: [3]Val{a, b, noVal}}, 2, vt.GPR)
		return in.Res[0], in.Res[1]
	}
	lo = tr.op2(OpImul, a, b)
	hi = tr.op2(OpUmulhi, a, b)
	return lo, hi
}

// bin128 lowers 128-bit arithmetic on value pairs.
func (tr *translator) bin128(v qir.Value, in *qir.Instr) error {
	alo, ahi := tr.pair(in.A)
	switch in.Op {
	case qir.OpAdd, qir.OpSub:
		blo, bhi := tr.pair(in.B)
		if in.Op == qir.OpAdd {
			lo := tr.op2(OpIadd, alo, blo)
			carry := tr.icmp(qir.CmpULT, lo, alo)
			hi := tr.op2(OpIadd, tr.op2(OpIadd, ahi, bhi), carry)
			tr.setPair(v, lo, hi)
		} else {
			borrow := tr.icmp(qir.CmpULT, alo, blo)
			lo := tr.op2(OpIsub, alo, blo)
			hi := tr.op2(OpIsub, tr.op2(OpIsub, ahi, bhi), borrow)
			tr.setPair(v, lo, hi)
		}
	case qir.OpMul:
		blo, bhi := tr.pair(in.B)
		lo, hi := tr.mul64wide(alo, blo)
		hi = tr.op2(OpIadd, hi, tr.op2(OpImul, alo, bhi))
		hi = tr.op2(OpIadd, hi, tr.op2(OpImul, ahi, blo))
		tr.setPair(v, lo, hi)
	case qir.OpAnd, qir.OpOr, qir.OpXor:
		blo, bhi := tr.pair(in.B)
		op := binMap[in.Op]
		tr.setPair(v, tr.op2(op, alo, blo), tr.op2(op, ahi, bhi))
	case qir.OpShl, qir.OpShr, qir.OpSar:
		bi := &tr.f.Instrs[in.B]
		if bi.Op != qir.OpConst {
			return fmt.Errorf("dynamic 128-bit shift unsupported")
		}
		lo, hi := tr.shift128(in.Op, alo, ahi, uint(bi.Imm)&127)
		tr.setPair(v, lo, hi)
	default:
		return fmt.Errorf("128-bit %s unsupported", in.Op)
	}
	return nil
}

func (tr *translator) shift128(op qir.Op, alo, ahi Val, k uint) (Val, Val) {
	switch {
	case k == 0:
		return alo, ahi
	case op == qir.OpShr && k == 64:
		return ahi, tr.iconst(0)
	case op == qir.OpSar && k == 64:
		return ahi, tr.op2(OpSshr, ahi, tr.iconst(63))
	case op == qir.OpShl && k == 64:
		return tr.iconst(0), alo
	case op == qir.OpShl && k < 64:
		hi := tr.op2(OpBor, tr.op2(OpIshl, ahi, tr.iconst(int64(k))),
			tr.op2(OpUshr, alo, tr.iconst(int64(64-k))))
		return tr.op2(OpIshl, alo, tr.iconst(int64(k))), hi
	case k < 64: // shr/sar
		lo := tr.op2(OpBor, tr.op2(OpUshr, alo, tr.iconst(int64(k))),
			tr.op2(OpIshl, ahi, tr.iconst(int64(64-k))))
		sh := OpUshr
		if op == qir.OpSar {
			sh = OpSshr
		}
		return lo, tr.op2(sh, ahi, tr.iconst(int64(k)))
	case op == qir.OpShl:
		return tr.iconst(0), tr.op2(OpIshl, alo, tr.iconst(int64(k-64)))
	case op == qir.OpShr:
		return tr.op2(OpUshr, ahi, tr.iconst(int64(k-64))), tr.iconst(0)
	default: // sar
		sign := tr.op2(OpSshr, ahi, tr.iconst(63))
		return tr.op2(OpSshr, ahi, tr.iconst(int64(k-64))), sign
	}
}

// trapArith lowers overflow-checked arithmetic: custom overflow
// instructions when enabled, helper calls otherwise; narrow widths check by
// round-trip, 128-bit goes inline (add/sub) or to the multiplication
// helper.
func (tr *translator) trapArith(v qir.Value, in *qir.Instr) error {
	if in.Type == qir.I128 {
		alo, ahi := tr.pair(in.A)
		blo, bhi := tr.pair(in.B)
		switch in.Op {
		case qir.OpSMulTrap:
			r := tr.helperCall(rt.FnI128MulOv, 2, alo, ahi, blo, bhi)
			tr.setPair(v, r[0], r[1])
			return nil
		case qir.OpSAddTrap:
			lo := tr.op2(OpIadd, alo, blo)
			carry := tr.icmp(qir.CmpULT, lo, alo)
			hi := tr.op2(OpIadd, tr.op2(OpIadd, ahi, bhi), carry)
			ov := tr.op2(OpUshr, tr.op2(OpBand, tr.op2(OpBxor, hi, ahi), tr.op2(OpBxor, hi, bhi)), tr.iconst(63))
			tr.emit(Inst{Op: OpTrapnz, Args: [3]Val{ov, noVal, noVal}, Imm: 1}, 0, vt.GPR)
			tr.setPair(v, lo, hi)
			return nil
		default: // SSubTrap
			borrow := tr.icmp(qir.CmpULT, alo, blo)
			lo := tr.op2(OpIsub, alo, blo)
			hi := tr.op2(OpIsub, tr.op2(OpIsub, ahi, bhi), borrow)
			ov := tr.op2(OpUshr, tr.op2(OpBand, tr.op2(OpBxor, ahi, bhi), tr.op2(OpBxor, hi, ahi)), tr.iconst(63))
			tr.emit(Inst{Op: OpTrapnz, Args: [3]Val{ov, noVal, noVal}, Imm: 1}, 0, vt.GPR)
			tr.setPair(v, lo, hi)
			return nil
		}
	}
	a, b := tr.lo(in.A), tr.lo(in.B)
	if isNarrow(in.Type) {
		var op Op
		switch in.Op {
		case qir.OpSAddTrap:
			op = OpIadd
		case qir.OpSSubTrap:
			op = OpIsub
		default:
			op = OpImul
		}
		wide := tr.op2(op, a, b)
		c := tr.canon(in.Type, wide)
		ne := tr.icmp(qir.CmpNE, c, wide)
		tr.emit(Inst{Op: OpTrapnz, Args: [3]Val{ne, noVal, noVal}, Imm: 1}, 0, vt.GPR)
		tr.set(v, c)
		return nil
	}
	// 64-bit: custom overflow instructions or helper calls.
	if tr.opts.NoOverflow {
		var name string
		switch in.Op {
		case qir.OpSAddTrap:
			name = rt.FnAddOv64
		case qir.OpSSubTrap:
			name = rt.FnSubOv64
		default:
			name = rt.FnMulOv64
		}
		r := tr.helperCall(name, 1, a, b)
		tr.set(v, r[0])
		return nil
	}
	var op Op
	switch in.Op {
	case qir.OpSAddTrap:
		op = OpIaddOv
	case qir.OpSSubTrap:
		op = OpIsubOv
	default:
		op = OpImulOv
	}
	tr.set(v, tr.op2(op, a, b))
	return nil
}

// icmp128 lowers a 128-bit comparison to pair logic.
func (tr *translator) icmp128(v qir.Value, in *qir.Instr) error {
	alo, ahi := tr.pair(in.A)
	blo, bhi := tr.pair(in.B)
	switch c := in.Cmp(); c {
	case qir.CmpEQ, qir.CmpNE:
		d := tr.op2(OpBor, tr.op2(OpBxor, alo, blo), tr.op2(OpBxor, ahi, bhi))
		tr.set(v, tr.icmp(c, d, tr.iconst(0)))
	default:
		strict, uc := split128Cmp(c)
		hiStrict := tr.icmp(strict, ahi, bhi)
		hiEq := tr.icmp(qir.CmpEQ, ahi, bhi)
		loCmp := tr.icmp(uc, alo, blo)
		tr.set(v, tr.op2(OpBor, hiStrict, tr.op2(OpBand, hiEq, loCmp)))
	}
	return nil
}

func split128Cmp(c qir.Cmp) (strict, lo qir.Cmp) {
	switch c {
	case qir.CmpSLT:
		return qir.CmpSLT, qir.CmpULT
	case qir.CmpSLE:
		return qir.CmpSLT, qir.CmpULE
	case qir.CmpSGT:
		return qir.CmpSGT, qir.CmpUGT
	case qir.CmpSGE:
		return qir.CmpSGT, qir.CmpUGE
	case qir.CmpULT:
		return qir.CmpULT, qir.CmpULT
	case qir.CmpULE:
		return qir.CmpULT, qir.CmpULE
	case qir.CmpUGT:
		return qir.CmpUGT, qir.CmpUGT
	default:
		return qir.CmpUGT, qir.CmpUGE
	}
}
