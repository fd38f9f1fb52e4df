// Package interp is the bytecode interpreter back-end: QIR is translated in
// a single cheap pass into register-based bytecode (SSA is destructed into
// edge copies), which a switch-dispatch loop then executes. Translation is
// nearly free — the paper reports 0.03 s for all of TPC-DS — but execution
// pays per-operation dispatch and type-switch overhead.
package interp

import (
	"fmt"
	"unsafe"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
)

// Engine is the interpreter back-end.
type Engine struct{}

// New returns the interpreter engine.
func New() *Engine { return &Engine{} }

// Name implements backend.Engine.
func (e *Engine) Name() string { return "Interpreter" }

// Pseudo-ops appended to the QIR opcode space for lowered control flow.
const (
	bcJump   = qir.NumOps + iota // Imm = target instruction index
	bcJumpIf                     // A = cond slot, Imm = target if true
	bcMove                       // A = dst value, B = src value (both words)
)

// bcInstr is one bytecode instruction. A is the destination value slot; S,
// B, C are source slots (S carries QIR's first operand since A is taken by
// the destination).
type bcInstr struct {
	Op   qir.Op
	Type qir.Type
	A    qir.Value
	S    qir.Value
	B    qir.Value
	C    qir.Value
	Imm  int64
	Aux  uint32
}

type bcFunc struct {
	name    string
	nparams int
	nvals   int
	code    []bcInstr
	extra   []int32    // call argument slot lists
	pool    []uint64   // wide constants: lo,hi pairs
	wide    qir.BitSet // value ids occupying two words
}

type exec struct {
	funcs []*bcFunc
	env   *backend.Env
	m     *vm.Machine
	db    *rt.DB
}

// Footprint reports the heap the bytecode holds (backend.FootprintOf).
func (x *exec) Footprint() int64 {
	n := int64(cap(x.funcs)) * 8
	for _, f := range x.funcs {
		n += int64(unsafe.Sizeof(*f)) + int64(len(f.name)) + int64(cap(f.code))*int64(unsafe.Sizeof(bcInstr{})) +
			int64(cap(f.extra))*4 + int64(cap(f.pool))*8 + int64(cap(f.wide))*8
	}
	return n
}

// Compile implements backend.Engine.
func (e *Engine) Compile(mod *qir.Module, env *backend.Env) (backend.Exec, *backend.Stats, error) {
	stats := &backend.Stats{Funcs: len(mod.Funcs)}
	ph := backend.NewPhaser(stats, env.Trace)
	sp := ph.Begin("Translate")
	x := &exec{env: env, m: env.DB.M, db: env.DB}
	for _, f := range mod.Funcs {
		fsp := ph.BeginGroup("func:" + f.Name)
		bf, err := translate(f, env)
		fsp.End()
		if err != nil {
			return nil, nil, err
		}
		x.funcs = append(x.funcs, bf)
	}
	if err := env.DB.Bind(mod.RTNames); err != nil {
		return nil, nil, err
	}
	sp.End()
	ph.Finish()
	return x, stats, nil
}

// translate lowers one function to bytecode: blocks are laid out in reverse
// postorder, phis become edge copies, and branch targets are patched once
// block offsets are known.
func translate(f *qir.Func, env *backend.Env) (*bcFunc, error) {
	bf := &bcFunc{name: f.Name, nparams: len(f.Params), nvals: len(f.Instrs)}
	bf.wide = qir.NewBitSet(len(f.Instrs))
	for v := range f.Instrs {
		if f.Instrs[v].Type.Is128() {
			bf.wide.Set(qir.Value(v))
		}
	}
	rpo := f.RPO()
	blockStart := make([]int32, len(f.Blocks))
	for i := range blockStart {
		blockStart[i] = -1
	}
	type fixup struct {
		instr int32
		block qir.BlockID
	}
	var fixups []fixup

	// Scratch slots for parallel phi copies live past nvals.
	scratchBase := qir.Value(len(f.Instrs))
	maxPhis := 0
	for b := range f.Blocks {
		n := 0
		for _, v := range f.Blocks[b].List {
			if f.Instrs[v].Op == qir.OpPhi {
				n++
			}
		}
		if n > maxPhis {
			maxPhis = n
		}
	}
	bf.nvals += maxPhis

	// emitEdge writes the phi copies for edge pred->succ followed by a
	// jump to succ (patched later).
	emitEdge := func(pred, succ qir.BlockID) {
		var srcs []qir.Value
		var dsts []qir.Value
		for _, v := range f.Blocks[succ].List {
			if f.Instrs[v].Op != qir.OpPhi {
				break
			}
			pairs := f.PhiPairs(v)
			for i := 0; i < len(pairs); i += 2 {
				if pairs[i] == pred {
					srcs = append(srcs, pairs[i+1])
					dsts = append(dsts, v)
					break
				}
			}
		}
		// Parallel copy via scratch slots.
		for i, s := range srcs {
			bf.code = append(bf.code, bcInstr{Op: bcMove, A: scratchBase + qir.Value(i), B: s})
		}
		for i, d := range dsts {
			bf.code = append(bf.code, bcInstr{Op: bcMove, A: d, B: scratchBase + qir.Value(i)})
		}
		fixups = append(fixups, fixup{instr: int32(len(bf.code)), block: succ})
		bf.code = append(bf.code, bcInstr{Op: bcJump})
	}

	for _, b := range rpo {
		blockStart[b] = int32(len(bf.code))
		blk := &f.Blocks[b]
		for _, v := range blk.List {
			in := &f.Instrs[v]
			switch in.Op {
			case qir.OpParam, qir.OpPhi:
				// Params are preloaded; phis are written by edge copies.
			case qir.OpBr:
				emitEdge(b, qir.BlockID(in.Aux))
			case qir.OpCondBr:
				// cond true -> edge segment A; else fall through to
				// edge segment B.
				condJump := int32(len(bf.code))
				bf.code = append(bf.code, bcInstr{Op: bcJumpIf, A: in.A})
				emitEdge(b, in.B) // false edge
				trueStart := int32(len(bf.code))
				bf.code[condJump].Imm = int64(trueStart)
				emitEdge(b, qir.BlockID(in.Aux)) // true edge
			case qir.OpConst128:
				lo, hi := f.Const128(v)
				idx := int64(len(bf.pool))
				bf.pool = append(bf.pool, lo, hi)
				bf.code = append(bf.code, bcInstr{Op: qir.OpConst128, Type: qir.I128, A: v, Imm: idx})
			case qir.OpConstStr:
				lo, hi := env.DB.InternString(f.Module().Strings[in.Imm])
				idx := int64(len(bf.pool))
				bf.pool = append(bf.pool, lo, hi)
				bf.code = append(bf.code, bcInstr{Op: qir.OpConst128, Type: qir.Str, A: v, Imm: idx})
			case qir.OpConstF:
				bf.code = append(bf.code, bcInstr{Op: qir.OpConst, Type: qir.F64, A: v, Imm: in.Imm})
			case qir.OpConstPool:
				// The slot's machine address is resolved at translate time,
				// but the value is read per execution (unlike OpConstStr
				// above): BindConstPool runs after compilation, so the
				// bytecode must not capture the current slot contents.
				bf.code = append(bf.code, bcInstr{Op: qir.OpConstPool, Type: in.Type, A: v,
					Imm: int64(env.DB.ConstPoolAddr(int(in.Imm)))})
			case qir.OpCall:
				args := f.CallArgs(v)
				start := int32(len(bf.extra))
				bf.extra = append(bf.extra, args...)
				bf.code = append(bf.code, bcInstr{
					Op: qir.OpCall, Type: in.Type, A: v, B: start,
					C: int32(len(args)), Aux: in.Aux,
				})
			default:
				bc := bcInstr{
					Op: in.Op, Type: in.Type, A: v,
					S: in.A, B: in.B, C: in.C,
					Imm: in.Imm, Aux: in.Aux,
				}
				switch in.Op {
				case qir.OpStore:
					// The stored value's type decides the width.
					bc.Type = f.ValueType(in.B)
				case qir.OpICmp:
					// Record the operand type (result is always I1).
					bc.Type = f.ValueType(in.A)
				case qir.OpZExt:
					// Record the source type in Aux for masking.
					bc.Aux = uint32(f.ValueType(in.A))
				}
				bf.code = append(bf.code, bc)
			}
		}
	}
	for _, fx := range fixups {
		if blockStart[fx.block] < 0 {
			return nil, fmt.Errorf("interp: %s: jump to unreachable block %d", f.Name, fx.block)
		}
		bf.code[fx.instr].Imm = int64(blockStart[fx.block])
	}
	return bf, nil
}
