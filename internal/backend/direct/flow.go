package direct

import (
	"fmt"

	"qcc/internal/qir"
	"qcc/internal/vt"
)

// genTerminator emits the block terminator, including phi moves on outgoing
// edges; next is the block emitted directly after (for fall-through).
func (g *codegen) genTerminator(in *qir.Instr, next qir.BlockID) error {
	switch in.Op {
	case qir.OpRet:
		if in.A != qir.NoValue {
			g.moveToRet(in.A)
		}
		g.emitEpilogue()
		return nil
	case qir.OpUnreachable:
		g.emit(vt.Instr{Op: vt.Trap, Imm: int64(vt.TrapUnreachable)})
		return nil
	case qir.OpBr:
		succ := qir.BlockID(in.Aux)
		g.killCaches()
		g.genEdge(g.curBlock, succ)
		if succ != next {
			g.emit(vt.Instr{Op: vt.Br, Target: int32(g.labels[succ])})
		}
		return nil
	case qir.OpCondBr:
		trueBlk := qir.BlockID(in.Aux)
		falseBlk := in.B
		r := g.useGPR(in.A)
		g.flushCaches()
		g.clearCaches()
		g.unpinAll()
		trueMoves := g.edgeHasMoves(g.curBlock, trueBlk)
		if !trueMoves {
			g.emit(vt.Instr{Op: vt.BrNZ, RA: uint8(r), Target: int32(g.labels[trueBlk])})
			g.genEdge(g.curBlock, falseBlk)
			if falseBlk != next {
				g.emit(vt.Instr{Op: vt.Br, Target: int32(g.labels[falseBlk])})
			}
			return nil
		}
		lt := g.asm.NewLabel()
		g.emit(vt.Instr{Op: vt.BrNZ, RA: uint8(r), Target: int32(lt)})
		g.genEdge(g.curBlock, falseBlk)
		g.emit(vt.Instr{Op: vt.Br, Target: int32(g.labels[falseBlk])})
		g.asm.Bind(lt)
		g.genEdge(g.curBlock, trueBlk)
		if trueBlk != next {
			g.emit(vt.Instr{Op: vt.Br, Target: int32(g.labels[trueBlk])})
		}
		return nil
	}
	return fmt.Errorf("terminator %s: %w", in.Op, errUnsupported)
}

// moveToRet places the return value into the return registers.
func (g *codegen) moveToRet(v qir.Value) {
	t := g.target()
	r0, r1 := int16(t.IntRet[0]), int16(t.IntRet[1])
	switch {
	case g.isWide[v]:
		lo, hi := g.usePair(v)
		if hi == r0 {
			tmp := g.tempGPR()
			g.mov(tmp, hi)
			hi = tmp
		}
		g.mov(r0, lo)
		g.mov(r1, hi)
	case g.isFloat[v]:
		f := g.useFPR(v)
		g.emit(vt.Instr{Op: vt.MovRF, RD: uint8(r0), RA: uint8(f)})
	default:
		r := g.useGPR(v)
		g.mov(r0, r)
	}
	g.unpinAll()
}

// edgePhis collects (phi, incoming) pairs for a CFG edge.
func (g *codegen) edgePhis(pred, succ qir.BlockID) (phis, srcs []qir.Value) {
	for _, v := range g.f.Blocks[succ].List {
		if g.f.Instrs[v].Op != qir.OpPhi {
			break
		}
		pairs := g.f.PhiPairs(v)
		for i := 0; i < len(pairs); i += 2 {
			if pairs[i] == pred {
				phis = append(phis, v)
				srcs = append(srcs, pairs[i+1])
				break
			}
		}
	}
	return phis, srcs
}

func (g *codegen) edgeHasMoves(pred, succ qir.BlockID) bool {
	phis, _ := g.edgePhis(pred, succ)
	return len(phis) > 0
}

// genEdge emits the phi moves for one edge. Caches must be dead (killed);
// registers 0 and 1 are used as raw transfer scratch. Values are staged
// through the scratch frame area to make the parallel copy safe.
func (g *codegen) genEdge(pred, succ qir.BlockID) {
	phis, srcs := g.edgePhis(pred, succ)
	if len(phis) == 0 {
		return
	}
	sp := g.target().SP
	copySlot := func(dst, src int64, wide bool) {
		g.emit(vt.Instr{Op: vt.Load64, RD: 0, RA: sp, Imm: src})
		g.emit(vt.Instr{Op: vt.Store64, RA: sp, RB: 0, Imm: dst})
		if wide {
			g.emit(vt.Instr{Op: vt.Load64, RD: 1, RA: sp, Imm: src + 8})
			g.emit(vt.Instr{Op: vt.Store64, RA: sp, RB: 1, Imm: dst + 8})
		}
	}
	if len(phis) == 1 {
		copySlot(g.slotOff[phis[0]], g.slotOff[srcs[0]], g.isWide[phis[0]])
		return
	}
	for k := range phis {
		copySlot(g.scratchOff+int64(k)*16, g.slotOff[srcs[k]], g.isWide[phis[k]])
	}
	for k := range phis {
		copySlot(g.slotOff[phis[k]], g.scratchOff+int64(k)*16, g.isWide[phis[k]])
	}
}

// genCall lowers a runtime call: flush, stage arguments into the argument
// registers, emit the call, drop caller-saved caches, bind the result.
func (g *codegen) genCall(v qir.Value, in *qir.Instr) error {
	args := g.f.CallArgs(v)
	return g.emitCall(v, in.Type, in.Aux, args)
}

// genHelperCall is used by the lowering itself for operations routed to
// runtime helpers (e.g. 128-bit multiplication with overflow check).
func (g *codegen) genHelperCall(v qir.Value, name string, args []qir.Value) error {
	id := g.rtID(name)
	return g.emitCall(v, g.f.Instrs[v].Type, id, args)
}

func (g *codegen) emitCall(v qir.Value, ret qir.Type, rtid uint32, args []qir.Value) error {
	t := g.target()
	g.flushCaches()
	g.unpinAll()
	sp := t.SP

	// stage writes one 64-bit word into an argument register.
	stage := func(dst uint8, val qir.Value, half int) error {
		l := &g.locs[val]
		// Whatever the cache holds in dst is about to be overwritten; every
		// live value is in its slot by now, so forgetting it costs a reload.
		// That goes for val itself when dst holds its other half: staged in
		// place, a wide argument with its high word in the register the low
		// word goes to would pass the low word twice.
		if owner := g.gpr[dst]; owner != qir.NoValue {
			otherHalf := l.r1 == int16(dst)
			if half == 0 {
				otherHalf = l.r2 == int16(dst)
			}
			if owner != val || (g.isWide[val] && otherHalf) {
				g.dropValue(owner)
			}
		}
		var src int16 = noReg
		if g.isFloat[val] {
			if l.r1 != noReg {
				g.emit(vt.Instr{Op: vt.MovRF, RD: dst, RA: uint8(l.r1)})
				return nil
			}
			g.emit(vt.Instr{Op: vt.Load64, RD: dst, RA: sp, Imm: g.slotOff[val]})
			return nil
		}
		if half == 0 {
			src = l.r1
		} else {
			src = l.r2
		}
		if src != noReg {
			g.mov(int16(dst), src)
			return nil
		}
		if !g.stored[val] {
			return fmt.Errorf("direct: internal: arg value %d not available", val)
		}
		g.emit(vt.Instr{Op: vt.Load64, RD: dst, RA: sp, Imm: g.slotOff[val] + int64(half)*8})
		return nil
	}

	reg := 0
	for _, a := range args {
		if reg >= len(t.IntArgs) {
			return fmt.Errorf("direct: too many call arguments")
		}
		if err := stage(t.IntArgs[reg], a, 0); err != nil {
			return err
		}
		reg++
		if g.isWide[a] {
			if reg >= len(t.IntArgs) {
				return fmt.Errorf("direct: too many call arguments")
			}
			if err := stage(t.IntArgs[reg], a, 1); err != nil {
				return err
			}
			reg++
		}
	}
	g.emit(vt.Instr{Op: vt.CallRT, Imm: int64(rtid)})

	// Caller-saved registers are dead after the call.
	for _, r := range t.CallerSaved {
		if owner := g.gpr[r]; owner != qir.NoValue {
			g.dropValue(owner)
		}
	}
	for r := 0; r < t.NumFPR; r++ {
		if owner := g.fpr[r]; owner != qir.NoValue {
			g.dropValue(owner)
		}
	}

	if ret == qir.Void {
		return nil
	}
	r0, r1 := int16(t.IntRet[0]), int16(t.IntRet[1])
	switch {
	case ret.Is128():
		dlo, dhi := g.defPair(v)
		if dlo == r1 {
			// Avoid clobbering the high return half.
			g.mov(dhi, r1)
			g.mov(dlo, r0)
		} else {
			g.mov(dlo, r0)
			g.mov(dhi, r1)
		}
	case ret == qir.F64:
		d := g.defFPR(v)
		g.emit(vt.Instr{Op: vt.MovFR, RD: uint8(d), RA: uint8(r0)})
	default:
		d := g.defGPR(v)
		g.mov(d, r0)
	}
	g.finishDef(v)
	return nil
}
