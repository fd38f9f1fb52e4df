package lbe

import (
	"fmt"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// Config selects the back-end operating mode and the ablations from the
// paper.
type Config struct {
	// Opt selects the optimized pipeline (-O2-style passes, SelectionDAG
	// or GlobalISel, greedy register allocation); false is the cheap
	// mode (-O0, FastISel, fast register allocation).
	Opt bool
	// ISel overrides the default instruction selector.
	ISel ISelKind
	// StructPairs represents the 16-byte string type as an LLVM
	// {i64,i64} struct instead of two scalar i64 values — the
	// compile-time regression studied in Sec. V-A2.
	StructPairs bool
	// LargeCodeModel disables the Small-PIC code model: FastISel then
	// falls back to SelectionDAG for every function call.
	LargeCodeModel bool
	// NoTMCache reconstructs the TargetMachine for every compilation
	// instead of caching it per thread.
	NoTMCache bool
}

// ISelKind selects the instruction selector.
type ISelKind uint8

// Instruction selectors.
const (
	ISelDefault ISelKind = iota
	ISelFast
	ISelDAG
	ISelGlobal
)

// typeOf maps a QIR type to LIR (strings become TPair or are split by the
// caller depending on mode).
func typeOf(t qir.Type) *Type {
	switch t {
	case qir.Void:
		return TVoid
	case qir.I1:
		return TI1
	case qir.I8:
		return TI8
	case qir.I16:
		return TI16
	case qir.I32:
		return TI32
	case qir.I64:
		return TI64
	case qir.I128:
		return TI128
	case qir.F64:
		return TDouble
	case qir.Ptr:
		return TPtr
	case qir.Str:
		return TPair
	}
	panic("lbe: bad type")
}

// lval is the LIR representation of one QIR value: a single instruction, or
// two (scalar-pair mode strings).
type lval struct {
	a, b *Instr
}

type irBuilder struct {
	cfg  Config
	env  *backend.Env
	qf   *qir.Func
	mod  *Module
	fn   *Fn
	cur  *Block
	vals []lval
	// qirEnd maps each QIR block to the LIR block holding its terminator
	// (trap checks split blocks).
	qirStart []*Block
	qirEnd   []*Block
	trapBB   *Block
	rtid     func(string) uint32
	// pendingPhis are filled once all blocks are translated.
	pendingPhis []pendingPhi
}

type pendingPhi struct {
	qv   qir.Value
	half int
	phi  *Instr
}

// buildIR translates one QIR function into LIR.
func buildIR(qf *qir.Func, mod *Module, env *backend.Env, cfg Config, rtid func(string) uint32) (*Fn, error) {
	bld := &irBuilder{
		cfg: cfg, env: env, qf: qf, mod: mod, rtid: rtid,
		vals:     make([]lval, len(qf.Instrs)),
		qirStart: make([]*Block, len(qf.Blocks)),
		qirEnd:   make([]*Block, len(qf.Blocks)),
	}

	// Function signature: scalar-pair mode splits string params; return
	// values always use the struct (the paper's one exception).
	var ptypes []*Type
	for _, pt := range qf.Params {
		if pt == qir.Str && !cfg.StructPairs {
			ptypes = append(ptypes, TI64, TI64)
		} else {
			ptypes = append(ptypes, typeOf(pt))
		}
	}
	ret := typeOf(qf.Ret)
	if qf.Ret == qir.I128 {
		ret = TI128
	}
	fn := mod.NewFn(qf.Name, ret, ptypes...)
	bld.fn = fn

	// Blocks: entry plus one per QIR block.
	for b := range qf.Blocks {
		if b == 0 {
			bld.qirStart[0] = fn.Blocks[0]
		} else {
			bld.qirStart[b] = fn.NewBlock()
		}
	}

	// Parameters map to their pseudo-instructions.
	pi := 0
	for i, pt := range qf.Params {
		if pt == qir.Str && !cfg.StructPairs {
			bld.vals[i] = lval{a: fn.Params[pi], b: fn.Params[pi+1]}
			pi += 2
		} else {
			bld.vals[i] = lval{a: fn.Params[pi]}
			pi++
		}
	}

	for b := range qf.Blocks {
		bld.cur = bld.qirStart[b]
		for _, v := range qf.Blocks[b].List {
			in := &qf.Instrs[v]
			if in.Op == qir.OpParam {
				continue
			}
			if err := bld.inst(qir.BlockID(b), v, in); err != nil {
				return nil, fmt.Errorf("lbe: %s: %w", qf.Name, err)
			}
		}
		bld.qirEnd[b] = bld.cur
	}

	// Fill phi incomings now that every block's final LIR block is known.
	for _, pp := range bld.pendingPhis {
		qin := &qf.Instrs[pp.qv]
		pairs := qf.PhiPairs(pp.qv)
		for i := 0; i < len(pairs); i += 2 {
			pred, src := pairs[i], pairs[i+1]
			lv := bld.vals[src]
			var incoming *Instr
			if pp.half == 1 {
				incoming = lv.b
			} else {
				incoming = lv.a
			}
			if incoming == nil {
				return nil, fmt.Errorf("lbe: %s: phi %d has untranslated incoming %d", qf.Name, pp.qv, src)
			}
			pp.phi.Ops = append(pp.phi.Ops, incoming)
			incoming.Uses = append(incoming.Uses, pp.phi)
			pp.phi.Inc = append(pp.phi.Inc, bld.qirEnd[pred])
		}
		_ = qin
	}
	bld.computePreds()
	return fn, nil
}

func (bld *irBuilder) computePreds() {
	for _, b := range bld.fn.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// append emits an instruction into the current block.
func (bld *irBuilder) append(in *Instr) *Instr { return bld.cur.Append(in) }

func (bld *irBuilder) iconst(t *Type, v int64) *Instr {
	return bld.append(&Instr{Op: LOpConst, Typ: t, Imm: v})
}

func (bld *irBuilder) bin(op Opcode, t *Type, a, b *Instr) *Instr {
	return bld.append(&Instr{Op: op, Typ: t, Ops: []*Instr{a, b}})
}

func (bld *irBuilder) icmp(p qir.Cmp, a, b *Instr) *Instr {
	return bld.append(&Instr{Op: LOpICmp, Typ: TI1, Pred: uint8(p), Ops: []*Instr{a, b}})
}

// trapBlock lazily creates the shared overflow-trap block.
func (bld *irBuilder) trapBlock() *Block {
	if bld.trapBB == nil {
		bld.trapBB = bld.fn.NewBlock()
		save := bld.cur
		bld.cur = bld.trapBB
		bld.append(&Instr{Op: LOpCallRT, Typ: TVoid, RTID: bld.rtid(rt.FnOverflow)})
		bld.append(&Instr{Op: LOpUnreachable, Typ: TVoid})
		bld.cur = save
	}
	return bld.trapBB
}

// checkOverflow splits the current block: condbr(ovf, trap, cont).
func (bld *irBuilder) checkOverflow(ovf *Instr) {
	cont := bld.fn.NewBlock()
	bld.append(&Instr{Op: LOpCondBr, Typ: TVoid, Ops: []*Instr{ovf}, Then: bld.trapBlock(), Else: cont})
	bld.cur = cont
}

func (bld *irBuilder) set(v qir.Value, in *Instr)       { bld.vals[v] = lval{a: in} }
func (bld *irBuilder) setPair(v qir.Value, a, b *Instr) { bld.vals[v] = lval{a: a, b: b} }

// makeStr builds the representation of a 16-byte value from two i64 halves.
func (bld *irBuilder) makeStr(v qir.Value, lo, hi *Instr) {
	if bld.cfg.StructPairs {
		undef := bld.append(&Instr{Op: LOpConst, Typ: TPair})
		s1 := bld.append(&Instr{Op: LOpInsertVal, Typ: TPair, Imm: 0, Ops: []*Instr{undef, lo}})
		s2 := bld.append(&Instr{Op: LOpInsertVal, Typ: TPair, Imm: 1, Ops: []*Instr{s1, hi}})
		bld.set(v, s2)
	} else {
		bld.setPair(v, lo, hi)
	}
}

func (bld *irBuilder) a(v qir.Value) *Instr { return bld.vals[v].a }
