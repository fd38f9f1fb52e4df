package lbe

import (
	"fmt"

	"qcc/internal/mcv"
	"qcc/internal/vt"
)

// snapshotMIR copies the instruction stream before register allocation (the
// allocators rewrite minsts in place), for the verifier's lockstep pairing.
func snapshotMIR(mf *mfunc) [][]minst {
	out := make([][]minst, len(mf.blocks))
	for b := range mf.blocks {
		out[b] = append([]minst(nil), mf.blocks[b].insts...)
	}
	return out
}

// buildMCheckFunc adapts allocated MIR into the verifier's model by pairing
// every surviving instruction with its pre-allocation twin in lockstep: the
// twin supplies the virtual registers, the allocated instruction the physical
// locations. Allocator-inserted spill/reload/remat code carries its own
// inserted/mval markers; sym == -2 immediates are raw frame indices at this
// point (prologue insertion scales them to byte offsets later).
func buildMCheckFunc(mf *mfunc, pre [][]minst, ra *raState, tgt *vt.Target) (*mcv.Func, []mcv.Diag) {
	f := &mcv.Func{
		Name: mf.name, Target: tgt,
		Saved:    append([]uint8{}, ra.usedCallee...),
		NumSlots: ra.numSlots,
	}
	var diags []mcv.Diag
	bad := func(b int32, i int, format string, args ...any) {
		diags = append(diags, mcv.Diag{
			Func: mf.name, Block: b, Inst: i, Off: -1,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	regLoc := func(r mreg, cls vt.RegClass) (mcv.Loc, bool) {
		if !isMPreg(r) {
			return mcv.LocNone, false
		}
		if cls == vt.FPR {
			return mcv.FPR(mpregNum(r)), true
		}
		return mcv.GPR(mpregNum(r)), true
	}

	type opnd struct {
		r   mreg
		def bool
		cls vt.RegClass
	}
	for b := range mf.blocks {
		blk := &mf.blocks[b]
		cb := mcv.Block{Succs: append([]int32{}, blk.succs...)}
		k := 0
		for i := range blk.insts {
			in := &blk.insts[i]
			ci := len(cb.Insts)
			if in.inserted {
				switch in.op {
				case vt.Load64, vt.FLoad:
					cls := vt.GPR
					if in.op == vt.FLoad {
						cls = vt.FPR
					}
					dst, ok := regLoc(in.rd, cls)
					if !ok {
						bad(int32(b), ci, "inserted reload of v%d has non-physical destination", in.mval)
						continue
					}
					cb.Insts = append(cb.Insts, mcv.Inst{
						Kind: mcv.KindReload, Op: in.op,
						Move: mcv.Move{SrcV: in.mval, DstV: in.mval, Src: mcv.Slot(int32(in.imm)), Dst: dst},
					})
				case vt.Store64, vt.FStore:
					cls := vt.GPR
					if in.op == vt.FStore {
						cls = vt.FPR
					}
					src, ok := regLoc(in.rb, cls)
					if !ok {
						bad(int32(b), ci, "inserted spill of v%d has non-physical source", in.mval)
						continue
					}
					cb.Insts = append(cb.Insts, mcv.Inst{
						Kind: mcv.KindSpill, Op: in.op,
						Move: mcv.Move{SrcV: in.mval, DstV: in.mval, Src: src, Dst: mcv.Slot(int32(in.imm))},
					})
				case vt.MovRI:
					dst, ok := regLoc(in.rd, vt.GPR)
					if !ok {
						bad(int32(b), ci, "inserted remat of v%d has non-physical destination", in.mval)
						continue
					}
					cb.Insts = append(cb.Insts, mcv.Inst{
						Kind: mcv.KindRemat, Op: in.op,
						Move: mcv.Move{SrcV: -1, DstV: in.mval, Src: mcv.LocNone, Dst: dst},
					})
				default:
					bad(int32(b), ci, "unrecognized allocator-inserted %s", in.op)
				}
				continue
			}

			if k >= len(pre[b]) {
				bad(int32(b), ci, "post-RA block has more original instructions than pre-RA")
				break
			}
			snap := &pre[b][k]
			k++
			if snap.op != in.op {
				bad(int32(b), ci, "pairing mismatch: post-RA %s vs pre-RA %s", in.op, snap.op)
				continue
			}
			var post, prev []opnd
			in.operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				post = append(post, opnd{*r, isDef, cls})
			})
			snap.operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				prev = append(prev, opnd{*r, isDef, cls})
			})
			if len(post) != len(prev) {
				bad(int32(b), ci, "%s: %d operands post-RA vs %d pre-RA", in.op, len(post), len(prev))
				continue
			}
			inst := mcv.Inst{Op: in.op, Call: in.isCall}
			for j := range post {
				loc, ok := regLoc(post[j].r, post[j].cls)
				if !ok {
					bad(int32(b), ci, "%s operand %d still virtual after allocation: %%%d", in.op, j, post[j].r)
					continue
				}
				v := int32(-1)
				if !isMPreg(prev[j].r) {
					v = prev[j].r
				}
				inst.Ops = append(inst.Ops, mcv.Operand{V: v, Loc: loc, Def: post[j].def})
			}
			cb.Insts = append(cb.Insts, inst)
		}
		if k < len(pre[b]) {
			bad(int32(b), len(cb.Insts), "register allocation dropped %d instructions", len(pre[b])-k)
		}
		f.Blocks = append(f.Blocks, cb)
	}
	return f, diags
}
