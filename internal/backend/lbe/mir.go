package lbe

import (
	"fmt"

	"qcc/internal/vt"
)

// MIR is the machine IR: target instructions over virtual registers,
// produced by instruction selection, rewritten by PHI elimination,
// two-address rewriting and register allocation, and finally encoded by the
// assembly printer.

// mreg encodes a register operand: >= 0 virtual, < 0 physical (-1-p).
type mreg = int32

const mnone mreg = -0x7FFFFFFF

func mpreg(p uint8) mreg    { return -1 - int32(p) }
func isMPreg(r mreg) bool   { return r < 0 && r != mnone }
func mpregNum(r mreg) uint8 { return uint8(-1 - r) }

// minst is one machine instruction. For op == vt.Nop with phi != nil, the
// instruction is a PHI pseudo.
type minst struct {
	op     vt.Op
	cond   vt.Cond
	rd     mreg
	ra     mreg
	rb     mreg
	rc     mreg
	imm    int64
	target int32 // MIR block id for branches
	sym    int32 // relocation symbol for address materialization (-1 none)
	isCall bool

	// inserted marks allocator-created spill/reload/remat instructions;
	// mval is the vreg they move (for the machine-code verifier).
	inserted bool
	mval     mreg

	// phi, when non-nil, holds (incoming vreg, pred block) pairs.
	phi *phiInfo
}

type phiInfo struct {
	srcs   []mreg
	blocks []int32
}

func newMinst(op vt.Op) minst {
	return minst{op: op, rd: mnone, ra: mnone, rb: mnone, rc: mnone, sym: -1, target: -1, mval: mnone}
}

type mblock struct {
	insts []minst
	succs []int32
	preds []int32
	// freq is the static execution-frequency estimate used by the greedy
	// allocator's spill weights.
	freq      float64
	loopDepth int32
}

type mfunc struct {
	name    string
	blocks  []mblock
	nvregs  mreg
	classes []vt.RegClass
}

func (mf *mfunc) newVReg(cls vt.RegClass) mreg {
	v := mf.nvregs
	mf.nvregs++
	mf.classes = append(mf.classes, cls)
	return v
}

func (mf *mfunc) classOf(r mreg) vt.RegClass {
	if r >= 0 {
		return mf.classes[r]
	}
	return vt.GPR
}

// computeCFG fills preds from succs.
func (mf *mfunc) computeCFG() {
	for b := range mf.blocks {
		mf.blocks[b].preds = mf.blocks[b].preds[:0]
	}
	for b := range mf.blocks {
		for _, s := range mf.blocks[b].succs {
			mf.blocks[s].preds = append(mf.blocks[s].preds, int32(b))
		}
	}
}

// operands calls fn over the register operands of one instruction, uses
// first, then defs (vt.Walk). PHIs report their destination only; incoming
// values are handled by the passes that understand them.
func (in *minst) operands(fn func(r *mreg, isDef bool, cls vt.RegClass)) {
	if in.phi != nil {
		if in.rd != mnone {
			fn(&in.rd, true, vt.GPR) // class refined by caller via classOf
		}
		return
	}
	vt.Walk(in.op, mnone, &in.rd, &in.ra, &in.rb, &in.rc, fn)
}

func (in *minst) String() string {
	r := func(x mreg) string {
		switch {
		case x == mnone:
			return "_"
		case isMPreg(x):
			return fmt.Sprintf("$r%d", mpregNum(x))
		default:
			return fmt.Sprintf("%%%d", x)
		}
	}
	if in.phi != nil {
		s := fmt.Sprintf("%s = PHI", r(in.rd))
		for i := range in.phi.srcs {
			s += fmt.Sprintf(" [%s, b%d]", r(in.phi.srcs[i]), in.phi.blocks[i])
		}
		return s
	}
	return fmt.Sprintf("%s %s, %s, %s, %s imm=%d t=%d", in.op, r(in.rd), r(in.ra), r(in.rb), r(in.rc), in.imm, in.target)
}
