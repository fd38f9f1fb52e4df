package clift

import (
	"fmt"

	"qcc/internal/vt"
)

// VCode is the machine-instruction representation: a linear array of target
// instructions over virtual registers, plus block structure for register
// allocation and emission.
type vreg = int32

// Operand encoding: values >= 0 are virtual registers; values < 0 are
// physical registers encoded as -1-preg; vnone marks absent operands.
const vnone vreg = -0x7FFFFFFF

func preg(p uint8) vreg    { return -1 - int32(p) }
func isPreg(r vreg) bool   { return r < 0 && r != vnone }
func pregNum(r vreg) uint8 { return uint8(-1 - r) }

// vinst is one VCode instruction. Op/Cond/Imm follow vt semantics; branch
// targets are VCode block ids resolved at emission.
type vinst struct {
	op     vt.Op
	cond   vt.Cond
	rd     vreg
	ra     vreg
	rb     vreg
	rc     vreg
	imm    int64
	target int32
	// isCall marks runtime calls (clobbers caller-saved registers).
	isCall bool
	// sym is a relocation symbol for MovRI of function addresses (-1
	// none).
	sym int32
}

type vblock struct {
	insts []vinst
	// succs are VCode block ids; edgeMoves[k] are the (dst param vreg,
	// src arg vreg) move pairs for edge k, applied before the branch.
	succs []int32
	moves [][2][]vreg // per successor: dst params, src args
}

type vcode struct {
	blocks []vblock
	// nvregs is the virtual register count; classes[v] is each vreg's
	// register class.
	nvregs  int32
	classes []vt.RegClass
	name    string
	rets    int
}

// prepare holds the results of the three ISel preparation passes the paper
// describes: virtual register assignment with classes, side-effect
// partitioning, and use counting via depth-first search.
type prepare struct {
	vregOf    []vreg // CIR value -> vreg
	classes   []vt.RegClass
	partition []int32 // per CIR instruction: side-effect partition index
	uses      []int32 // per CIR value: number of uses (2 = "many")
	nvregs    int32
}

// runPrepare performs the three passes over the complete IR.
func runPrepare(f *Func) *prepare {
	p := &prepare{}

	// Pass 1: allocate virtual registers and mark register classes.
	p.vregOf = make([]vreg, f.NumVals)
	p.classes = make([]vt.RegClass, f.NumVals)
	for v := 0; v < f.NumVals; v++ {
		p.vregOf[v] = vreg(v)
		p.classes[v] = f.ValClass[v]
	}
	p.nvregs = vreg(f.NumVals)

	// Pass 2: partition instructions by side effects so the selector
	// never merges across them.
	p.partition = make([]int32, len(f.Insts))
	part := int32(0)
	for b := range f.Blocks {
		f.forEachInst(int32(b), func(idx int32, in *Inst) {
			if in.Op.hasSideEffects() {
				part++
			}
			p.partition[idx] = part
		})
	}

	// Pass 3: use counts via depth-first traversal from roots
	// (side-effecting and control instructions), so the selector knows
	// which results have a unique user.
	p.uses = make([]int32, f.NumVals)
	var mark func(v Val)
	mark = func(v Val) {
		if v == noVal || v == vnone {
			return
		}
		p.uses[v]++
	}
	for b := range f.Blocks {
		f.forEachInst(int32(b), func(idx int32, in *Inst) {
			for _, a := range in.Args {
				if a >= 0 {
					mark(a)
				}
			}
			for k := int32(0); k < in.NArgs; k++ {
				mark(f.Extra[in.ExtraAt+k])
			}
		})
	}
	return p
}

func (p *prepare) newTemp(cls vt.RegClass) vreg {
	v := p.nvregs
	p.nvregs++
	p.classes = append(p.classes, cls)
	return v
}

// lowerer is the tree-matching instruction selector.
type lowerer struct {
	f    *Func
	p    *prepare
	tgt  *vt.Target
	out  *vcode
	cur  *vblock
	done []bool // CIR instructions merged into a consumer
}

// lower selects machine instructions for the whole function. Blocks are
// processed in layout order; within a block, instructions are matched
// against their operand trees so single-use pure producers (constants,
// address adds, comparisons feeding branches) merge into their consumer.
func lower(f *Func, p *prepare, tgt *vt.Target) (*vcode, error) {
	lo := &lowerer{
		f: f, p: p, tgt: tgt,
		out:  &vcode{name: f.Name, rets: f.Rets},
		done: make([]bool, len(f.Insts)),
	}
	lo.out.blocks = make([]vblock, len(f.Blocks))
	for b := range f.Blocks {
		lo.cur = &lo.out.blocks[b]
		if b == 0 {
			lo.lowerEntryParams()
		}
		// Mark merged producers in a backward pre-scan, then emit
		// forward.
		lo.matchTrees(int32(b))
		if err := lo.lowerBlock(int32(b)); err != nil {
			return nil, err
		}
	}
	lo.out.nvregs = p.nvregs
	lo.out.classes = p.classes
	return lo.out, nil
}

// lowerEntryParams moves the incoming argument registers into the function
// parameter vregs.
func (lo *lowerer) lowerEntryParams() {
	regIdx := 0
	fregIdx := 0
	for _, v := range lo.f.Params {
		if lo.f.ValClass[v] == vt.FPR {
			src := lo.tgt.FloatArgs[fregIdx]
			fregIdx++
			lo.emit(vinst{op: vt.FMovRR, rd: lo.p.vregOf[v], ra: preg(src), rc: vnone, rb: vnone, sym: -1})
		} else {
			src := lo.tgt.IntArgs[regIdx]
			regIdx++
			lo.emit(vinst{op: vt.MovRR, rd: lo.p.vregOf[v], ra: preg(src), rb: vnone, rc: vnone, sym: -1})
		}
	}
}

func (lo *lowerer) emit(in vinst) {
	if in.sym == 0 {
		in.sym = -1
	}
	lo.cur.insts = append(lo.cur.insts, in)
}

// mergeable reports whether the producer of value v can be merged into its
// single consumer: a pure, single-use definition. The side-effect partition
// (pass 2) guards instructions that touch memory; pure arithmetic may sink
// freely.
func (lo *lowerer) mergeable(v Val) (int32, bool) {
	if v < 0 {
		return -1, false
	}
	def := lo.f.ValDef[v]
	if def < 0 {
		return -1, false // block parameter
	}
	in := &lo.f.Insts[def]
	if in.Op.hasSideEffects() || lo.p.uses[v] != 1 {
		return -1, false
	}
	return def, true
}

// constArg returns the constant behind v if it is an iconst. Constants are
// rematerializable, so folding does not require single-use.
func (lo *lowerer) constArg(v Val) (int64, int32, bool) {
	if v < 0 {
		return 0, -1, false
	}
	def := lo.f.ValDef[v]
	if def < 0 || lo.f.Insts[def].Op != OpIconst {
		return 0, -1, false
	}
	return lo.f.Insts[def].Imm, def, true
}

// matchTrees walks the block backward marking producers merged into their
// consumers (the tree-matching phase).
func (lo *lowerer) matchTrees(b int32) {
	f := lo.f
	// Collect instruction indices to iterate in reverse.
	var order []int32
	f.forEachInst(b, func(idx int32, in *Inst) { order = append(order, idx) })
	for i := len(order) - 1; i >= 0; i-- {
		idx := order[i]
		in := &f.Insts[idx]
		if lo.done[idx] {
			continue
		}
		switch in.Op {
		case OpBrif:
			// Fuse icmp into the branch.
			if def, ok := lo.mergeable(in.Args[0]); ok && f.Insts[def].Op == OpIcmp {
				lo.done[def] = true
			}
		case OpIadd, OpIsub, OpImul, OpBand, OpBor, OpBxor,
			OpIshl, OpUshr, OpSshr, OpRotr, OpIcmp:
			// Fold a constant right operand into an immediate form;
			// the constant's own definition dies when this was its
			// only use.
			if _, def, ok := lo.constArg(in.Args[1]); ok && lo.p.uses[f.Insts[def].Res[0]] == 1 {
				lo.done[def] = true
			}
		case OpLoad8U, OpLoad8S, OpLoad16S, OpLoad32S, OpLoad64, OpFload,
			OpStore8, OpStore16, OpStore32, OpStore64, OpFstore:
			// Fold iadd(base, const) into the displacement.
			if def, ok := lo.mergeable(in.Args[0]); ok && f.Insts[def].Op == OpIadd {
				add := &f.Insts[def]
				if _, cdef, ok := lo.constArg(add.Args[1]); ok {
					lo.done[def] = true
					if lo.p.uses[f.Insts[cdef].Res[0]] == 1 {
						lo.done[cdef] = true
					}
				}
			}
		}
	}
}

// vregArg returns the vreg for a CIR value operand.
func (lo *lowerer) val(v Val) vreg {
	return lo.p.vregOf[v]
}

// amode resolves a load/store address to (base vreg, displacement),
// using the folded iadd+const pattern when matchTrees marked it.
func (lo *lowerer) amode(v Val) (vreg, int64) {
	def := lo.f.ValDef[v]
	if def >= 0 && lo.done[def] && lo.f.Insts[def].Op == OpIadd {
		add := &lo.f.Insts[def]
		if imm, _, ok := lo.constArg(add.Args[1]); ok {
			return lo.val(add.Args[0]), imm
		}
	}
	return lo.val(v), 0
}

var _ = fmt.Sprintf
