package clift

import (
	"fmt"

	"qcc/internal/mcv"
	"qcc/internal/vt"
)

// buildCheckFunc adapts allocated VCode into the machine-code verifier's
// model. Operand locations come straight from the allocation result (the
// emitter's scratch-register fixups for spilled operands are deliberately
// abstracted away: an operand assigned to a spill slot reads/writes that
// slot). Branches carry explicit edges mirroring the emitter's edge-move
// consumption, so the checker sees exactly the moves that will be emitted.
func buildCheckFunc(vc *vcode, ra *raResult, tgt *vt.Target) (*mcv.Func, []mcv.Diag) {
	all := tgt.AllocatableGPRs()
	saved := append([]uint8{}, ra.usedCalleeSaved...)
	saved = appendUnique(saved, all[len(all)-2])
	saved = appendUnique(saved, all[len(all)-1])
	f := &mcv.Func{Name: vc.name, Target: tgt, Saved: saved, NumSlots: ra.spills}

	var diags []mcv.Diag
	curB, curI := int32(0), 0
	locV := func(r vreg, cls vt.RegClass) (int32, mcv.Loc, bool) {
		if r == vnone {
			return -1, mcv.LocNone, false
		}
		if isPreg(r) {
			p := pregNum(r)
			if cls == vt.FPR {
				return -1, mcv.FPR(p), true
			}
			return -1, mcv.GPR(p), true
		}
		a := ra.assign[r]
		switch {
		case a == assignNone:
			diags = append(diags, mcv.Diag{
				Func: vc.name, Block: curB, Inst: curI, Off: -1,
				Msg: fmt.Sprintf("vreg v%d has no allocation", r),
			})
			return -1, mcv.LocNone, false
		case a >= 0:
			if cls == vt.FPR {
				return r, mcv.FPR(uint8(a)), true
			}
			return r, mcv.GPR(uint8(a)), true
		default:
			return r, mcv.Slot(-1 - a), true
		}
	}
	classOf := func(r vreg) vt.RegClass {
		if r >= 0 {
			return vc.classes[r]
		}
		return vt.GPR
	}
	convMoves := func(mv [2][]vreg) []mcv.Move {
		dsts, srcs := mv[0], mv[1]
		out := make([]mcv.Move, 0, len(dsts))
		for k := range dsts {
			cls := classOf(dsts[k])
			if dsts[k] < 0 {
				cls = classOf(srcs[k])
			}
			dv, dl, dok := locV(dsts[k], cls)
			sv, sl, sok := locV(srcs[k], cls)
			if dok && sok {
				out = append(out, mcv.Move{SrcV: sv, DstV: dv, Src: sl, Dst: dl})
			}
		}
		return out
	}

	for b := range vc.blocks {
		curB = int32(b)
		blk := &vc.blocks[b]
		cb := mcv.Block{Succs: append([]int32{}, blk.succs...)}
		edge := 0
		for i := range blk.insts {
			curI = len(cb.Insts)
			in := &blk.insts[i]
			switch in.op {
			case vt.Br:
				e := &mcv.Edge{Succ: in.target}
				if edge < len(blk.moves) {
					e.Moves = convMoves(blk.moves[edge])
				}
				edge++
				cb.Insts = append(cb.Insts, mcv.Inst{Op: in.op, Edge: e})
			case vt.BrCC, vt.BrNZ:
				edge++ // brif edges carry no moves by construction
				inst := mcv.Inst{Op: in.op, Edge: &mcv.Edge{Succ: in.target}}
				in.operands(func(r *vreg, isDef bool, cls vt.RegClass) {
					if v, l, ok := locV(*r, cls); ok {
						inst.Ops = append(inst.Ops, mcv.Operand{V: v, Loc: l, Def: isDef})
					}
				})
				cb.Insts = append(cb.Insts, inst)
			case vt.MovRR, vt.FMovRR:
				cls := vt.GPR
				if in.op == vt.FMovRR {
					cls = vt.FPR
				}
				sv, sl, sok := locV(in.ra, cls)
				dv, dl, dok := locV(in.rd, cls)
				if sok && dok {
					cb.Insts = append(cb.Insts, mcv.Inst{
						Kind: mcv.KindMove, Op: in.op,
						Move: mcv.Move{SrcV: sv, DstV: dv, Src: sl, Dst: dl},
					})
				}
			default:
				inst := mcv.Inst{Op: in.op, Call: in.isCall}
				in.operands(func(r *vreg, isDef bool, cls vt.RegClass) {
					if v, l, ok := locV(*r, cls); ok {
						inst.Ops = append(inst.Ops, mcv.Operand{V: v, Loc: l, Def: isDef})
					}
				})
				cb.Insts = append(cb.Insts, inst)
			}
		}
		f.Blocks = append(f.Blocks, cb)
	}
	return f, diags
}
