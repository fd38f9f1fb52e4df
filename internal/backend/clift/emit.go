package clift

import (
	"fmt"

	"qcc/internal/vt"
)

// emitter encodes allocated VCode into machine code. It runs the passes the
// paper attributes to Cranelift's emission stage: a clobber-calculation scan
// over all instructions and register assignments, a branch-size estimation
// pass over the register-allocator moves (veneer planning, with the 15-byte
// over-approximation the paper mentions), and the actual encoding.
type emitter struct {
	vc  *vcode
	ra  *raResult
	tgt *vt.Target
	asm vt.Assembler

	labels []vt.Label
	frame  int64
	// Reserved scratch registers (two per class).
	s0, s1   uint8
	fs0, fs1 uint8

	spillBase   int64
	cycleSlot   int64
	calleeBase  int64
	calleeRegs  []uint8
	estBytes    int64 // veneer-estimation result
	clobberMask uint64
	// loc is the instruction being encoded, its registers resolved in
	// place (a field, so that the operand walk does not allocate it).
	loc vinst
}

// loc is a post-RA location: preg >= 0 or spill slot encoded negative.
type raLoc = int32

func emit(vc *vcode, ra *raResult, tgt *vt.Target, asm vt.Assembler) error {
	e := &emitter{vc: vc, ra: ra, tgt: tgt, asm: asm}
	all := tgt.AllocatableGPRs()
	e.s0 = all[len(all)-2]
	e.s1 = all[len(all)-1]
	e.fs0 = uint8(tgt.NumFPR - 2)
	e.fs1 = uint8(tgt.NumFPR - 1)

	// Clobber-calculation pass (before emission, as in Cranelift): scan
	// every instruction's assigned registers.
	e.clobberScan()

	// Veneer estimation: iterate over the allocator's edge moves and
	// estimate block sizes with a 15-byte-per-instruction bound.
	e.estimateVeneers()

	// Frame layout: cycle-break slot, spill slots, callee-saved area.
	e.cycleSlot = 0
	e.spillBase = 8
	e.calleeBase = e.spillBase + int64(ra.spills)*8
	e.calleeRegs = append([]uint8{}, ra.usedCalleeSaved...)
	// The scratch registers are callee-saved on both targets and are
	// always saved: they back spill fix-ups and move cycles.
	e.calleeRegs = appendUnique(e.calleeRegs, e.s0)
	e.calleeRegs = appendUnique(e.calleeRegs, e.s1)
	e.frame = e.calleeBase + int64(len(e.calleeRegs))*8
	e.frame = (e.frame + 15) &^ 15

	e.labels = make([]vt.Label, len(vc.blocks))
	for b := range e.labels {
		e.labels[b] = asm.NewLabel()
	}

	e.prologue()
	for b := range vc.blocks {
		asm.Bind(e.labels[b])
		blk := &vc.blocks[b]
		edge := 0
		for i := range blk.insts {
			in := &blk.insts[i]
			if in.op == vt.Br {
				// Edge moves precede the jump; a jump to the next block
				// in layout order falls through.
				if edge < len(blk.moves) {
					e.parallelMoves(blk.moves[edge][0], blk.moves[edge][1])
				}
				edge++
				if i == len(blk.insts)-1 && in.target == int32(b)+1 {
					continue
				}
				e.asm.Emit(vt.Instr{Op: vt.Br, Target: int32(e.labels[in.target])})
				continue
			}
			if in.op == vt.BrCC || in.op == vt.BrNZ {
				edge++ // brif edges carry no moves by construction
			}
			if err := e.inst(in); err != nil {
				return fmt.Errorf("clift: %s: %w", vc.name, err)
			}
		}
	}
	return nil
}

func appendUnique(s []uint8, v uint8) []uint8 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func (e *emitter) clobberScan() {
	for b := range e.vc.blocks {
		blk := &e.vc.blocks[b]
		for i := range blk.insts {
			blk.insts[i].operands(func(r *vreg, isDef bool, cls vt.RegClass) {
				if !isDef || cls == vt.FPR {
					return
				}
				if isPreg(*r) {
					e.clobberMask |= 1 << pregNum(*r)
				} else if a := e.ra.assign[*r]; a >= 0 {
					e.clobberMask |= 1 << uint(a)
				}
			})
		}
	}
}

func (e *emitter) estimateVeneers() {
	const overApprox = 15 // bytes per instruction, as in the paper
	for b := range e.vc.blocks {
		blk := &e.vc.blocks[b]
		n := int64(len(blk.insts))
		for _, mv := range blk.moves {
			n += int64(len(mv[0]))
		}
		e.estBytes += n * overApprox
	}
}

func (e *emitter) prologue() {
	sp := e.tgt.SP
	e.asm.Emit(vt.Instr{Op: vt.SubI, RD: sp, RA: sp, Imm: e.frame})
	for i, r := range e.calleeRegs {
		e.asm.Emit(vt.Instr{Op: vt.Store64, RA: sp, RB: r, Imm: e.calleeBase + int64(i)*8})
	}
}

func (e *emitter) epilogue() {
	sp := e.tgt.SP
	for i, r := range e.calleeRegs {
		e.asm.Emit(vt.Instr{Op: vt.Load64, RD: r, RA: sp, Imm: e.calleeBase + int64(i)*8})
	}
	e.asm.Emit(vt.Instr{Op: vt.AddI, RD: sp, RA: sp, Imm: e.frame})
	e.asm.Emit(vt.Instr{Op: vt.Ret})
}

// locOf returns the location of an operand: preg number (>= 0) or spill
// slot (< 0, encoded -1-slot).
func (e *emitter) locOf(r vreg) raLoc {
	if isPreg(r) {
		return int32(pregNum(r))
	}
	return e.ra.assign[r]
}

func (e *emitter) slotOff(l raLoc) int64 { return e.spillBase + int64(-1-l)*8 }

// scratch returns the k-th (0 or 1) reserved scratch register of class cls.
func (e *emitter) scratch(cls vt.RegClass, k int) uint8 {
	if cls == vt.FPR {
		return [2]uint8{e.fs0, e.fs1}[k]
	}
	return [2]uint8{e.s0, e.s1}[k]
}

// inst encodes one vinst, fixing up spilled operands through scratch
// registers and two-address constraints through moves. What the operation
// reads, writes and commutes comes from vt's table.
func (e *emitter) inst(in *vinst) error {
	if in.op == vt.Ret {
		e.epilogue()
		return nil
	}
	info := in.op.Info()
	if info.Form == vt.FormInvalid {
		return fmt.Errorf("cannot emit vinst %s", in.op)
	}
	sp := e.tgt.SP
	// Operands resolve in vt.Walk's order, each into loc as a physical
	// register: the k-th use (def) of a class that is spilled loads into
	// (computes into) that class's k-th scratch register, and a spilled
	// def is stored after the instruction.
	loc := &e.loc
	*loc = *in
	var nuse, ndef [2]int
	var fixes [2]struct {
		slot int64
		reg  uint8
		cls  vt.RegClass
	}
	nfix := 0
	var err error
	vt.Walk(in.op, vnone, &loc.rd, &loc.ra, &loc.rb, &loc.rc, func(r *vreg, def bool, cls vt.RegClass) {
		n := &nuse[cls]
		if def {
			n = &ndef[cls]
		}
		sc := e.scratch(cls, *n)
		*n++
		l := e.locOf(*r)
		switch {
		case err != nil:
		case l == assignNone && def:
			err = fmt.Errorf("def vreg %d unallocated", *r)
		case l == assignNone:
			err = fmt.Errorf("operand vreg %d unallocated", *r)
		case l >= 0:
			*r = l
		case def:
			fixes[nfix].slot, fixes[nfix].reg, fixes[nfix].cls = e.slotOff(l), sc, cls
			nfix++
			*r = vreg(sc)
		default:
			ld := vt.Load64
			if cls == vt.FPR {
				ld = vt.FLoad
			}
			e.asm.Emit(vt.Instr{Op: ld, RD: sc, RA: sp, Imm: e.slotOff(l)})
			*r = vreg(sc)
		}
	})
	if err != nil {
		return err
	}
	used := info.Use | info.Def
	reg := func(f vt.Regs, r vreg) uint8 {
		if used&f == 0 {
			return 0
		}
		return uint8(r)
	}
	out := vt.Instr{Op: in.op, Cond: in.cond, Imm: in.imm,
		RD: reg(vt.RD, loc.rd), RA: reg(vt.RA, loc.ra), RB: reg(vt.RB, loc.rb), RC: reg(vt.RC, loc.rc)}
	if in.op.IsBranch() {
		out.Target = int32(e.labels[in.target])
	}

	switch {
	case (in.op == vt.MovRR || in.op == vt.FMovRR) && out.RD == out.RA:
		// The move is elided.
	case in.op == vt.MovRI && in.sym >= 0:
		e.asm.EmitMovSym(out.RD, in.sym)
	case info.Form == vt.FormMulWide && out.RD == out.RC:
		return fmt.Errorf("mulwide results share register r%d", out.RD)
	default:
		if e.tgt.TwoAddress && info.TwoAddr && out.RD != out.RA {
			cls := info.Class(vt.RD)
			mov := vt.MovOf(cls)
			if info.Use&vt.RB != 0 && out.RD == out.RB {
				if info.Commutes {
					out.RA, out.RB = out.RB, out.RA
				} else {
					e.asm.Emit(vt.Instr{Op: mov, RD: e.scratch(cls, 1), RA: out.RB})
					out.RB = e.scratch(cls, 1)
				}
			}
			if out.RD != out.RA {
				e.asm.Emit(vt.Instr{Op: mov, RD: out.RD, RA: out.RA})
				out.RA = out.RD
			}
		}
		e.asm.Emit(out)
	}
	for _, f := range fixes[:nfix] {
		st := vt.Store64
		if f.cls == vt.FPR {
			st = vt.FStore
		}
		e.asm.Emit(vt.Instr{Op: st, RA: sp, RB: f.reg, Imm: f.slot})
	}
	return nil
}

// parallelMoves emits the block-parameter moves for one edge, resolving
// dependency order and breaking cycles through the cycle-scratch stack slot.
func (e *emitter) parallelMoves(dsts, srcs []vreg) {
	type move struct {
		dst, src raLoc
		cls      vt.RegClass
		fromCyc  bool
	}
	var pending []move
	for k := range dsts {
		d, s := e.locOf(dsts[k]), e.locOf(srcs[k])
		if d == s {
			continue
		}
		pending = append(pending, move{dst: d, src: s, cls: e.vc.classes[dsts[k]]})
	}
	emitMove := func(m move) {
		sp := e.tgt.SP
		scr, fscr := e.s0, e.fs0
		srcSlot := int64(0)
		srcIsSlot := m.src < 0
		if m.fromCyc {
			srcIsSlot = true
			srcSlot = e.cycleSlot
		} else if srcIsSlot {
			srcSlot = e.slotOff(m.src)
		}
		if m.cls == vt.FPR {
			switch {
			case !srcIsSlot && m.dst >= 0:
				e.asm.Emit(vt.Instr{Op: vt.FMovRR, RD: uint8(m.dst), RA: uint8(m.src)})
			case !srcIsSlot:
				e.asm.Emit(vt.Instr{Op: vt.FStore, RA: sp, RB: uint8(m.src), Imm: e.slotOff(m.dst)})
			case m.dst >= 0:
				e.asm.Emit(vt.Instr{Op: vt.FLoad, RD: uint8(m.dst), RA: sp, Imm: srcSlot})
			default:
				e.asm.Emit(vt.Instr{Op: vt.FLoad, RD: fscr, RA: sp, Imm: srcSlot})
				e.asm.Emit(vt.Instr{Op: vt.FStore, RA: sp, RB: fscr, Imm: e.slotOff(m.dst)})
			}
			return
		}
		switch {
		case !srcIsSlot && m.dst >= 0:
			e.asm.Emit(vt.Instr{Op: vt.MovRR, RD: uint8(m.dst), RA: uint8(m.src)})
		case !srcIsSlot:
			e.asm.Emit(vt.Instr{Op: vt.Store64, RA: sp, RB: uint8(m.src), Imm: e.slotOff(m.dst)})
		case m.dst >= 0:
			e.asm.Emit(vt.Instr{Op: vt.Load64, RD: uint8(m.dst), RA: sp, Imm: srcSlot})
		default:
			e.asm.Emit(vt.Instr{Op: vt.Load64, RD: scr, RA: sp, Imm: srcSlot})
			e.asm.Emit(vt.Instr{Op: vt.Store64, RA: sp, RB: scr, Imm: e.slotOff(m.dst)})
		}
	}
	sameLoc := func(a, b move) bool { return a.dst == b.src && !b.fromCyc && a.cls == b.cls }
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			m := pending[i]
			blocked := false
			for j := range pending {
				if j != i && sameLoc(m, pending[j]) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			emitMove(m)
			pending = append(pending[:i], pending[i+1:]...)
			progress = true
			i--
		}
		if progress {
			continue
		}
		// Cycle: the first move's destination is a source other moves
		// still need. Park its current value in the cycle slot,
		// redirect those readers, then perform the move.
		m := pending[0]
		sp := e.tgt.SP
		if m.cls == vt.FPR {
			if m.dst >= 0 {
				e.asm.Emit(vt.Instr{Op: vt.FStore, RA: sp, RB: uint8(m.dst), Imm: e.cycleSlot})
			} else {
				e.asm.Emit(vt.Instr{Op: vt.FLoad, RD: e.fs0, RA: sp, Imm: e.slotOff(m.dst)})
				e.asm.Emit(vt.Instr{Op: vt.FStore, RA: sp, RB: e.fs0, Imm: e.cycleSlot})
			}
		} else {
			if m.dst >= 0 {
				e.asm.Emit(vt.Instr{Op: vt.Store64, RA: sp, RB: uint8(m.dst), Imm: e.cycleSlot})
			} else {
				e.asm.Emit(vt.Instr{Op: vt.Load64, RD: e.s0, RA: sp, Imm: e.slotOff(m.dst)})
				e.asm.Emit(vt.Instr{Op: vt.Store64, RA: sp, RB: e.s0, Imm: e.cycleSlot})
			}
		}
		for j := 1; j < len(pending); j++ {
			if pending[j].src == m.dst && pending[j].cls == m.cls && !pending[j].fromCyc {
				pending[j].fromCyc = true
			}
		}
		emitMove(m)
		pending = pending[1:]
	}
}
