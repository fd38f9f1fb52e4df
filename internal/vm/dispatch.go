// Threaded dispatch over the fused micro-op stream built in fuse.go.
//
// The dispatch loop is one dense switch over the micro-opcode byte, which
// the compiler lowers to a jump table — the token-threaded shape of a fast
// interpreter: fetch, indexed jump, execute, repeat. Fused micro-ops (runs,
// compare-and-branch, immediate folds) cover several original instructions
// per dispatch, and xRun superinstructions execute their steps in a tight
// local loop with no trap paths and no per-step accounting. The loop
// pre-charges each micro-op's covered instruction count, and every micro-op
// that can trap covers one instruction, so Executed/Branches/MemOps match the
// unfused loop exactly, as do trap PCs and frames.
package vm

import (
	"fmt"
	"math/bits"

	"qcc/internal/vt"
)

// fstate carries the slow-path state of one fused invocation: what the
// out-of-line helpers (traps, indirect and runtime calls) need. The hot
// loop itself works on locals.
type fstate struct {
	m   *Machine
	mod *Module
	fp  *fprog
	mem []byte

	callBase int // m.callPCs watermark at entry
	fretBase int // m.fret watermark at entry
	err      error
}

// trap terminates execution with the same Trap value the unfused loop would
// build at original instruction index orig. Returns -1, the stop pc.
func (st *fstate) trap(orig int32, code vt.TrapCode, msg string) int32 {
	m, mod := st.m, st.mod
	offs := mod.Prog.Offsets
	t := &Trap{Code: code, PC: offs[orig], Msg: msg}
	t.Frames = append(t.Frames, mod.symbolize(offs[orig]))
	for i := len(m.callPCs) - 1; i >= st.callBase; i-- {
		t.Frames = append(t.Frames, mod.symbolize(offs[m.callPCs[i]]))
	}
	m.callPCs = m.callPCs[:st.callBase]
	m.fret = m.fret[:st.fretBase]
	st.err = t
	return -1
}

func memMsg(op vt.Op) string {
	switch op {
	case vt.Load8:
		return "load8"
	case vt.Load8S:
		return "load8s"
	case vt.Load16:
		return "load16"
	case vt.Load16S:
		return "load16s"
	case vt.Load32:
		return "load32"
	case vt.Load32S:
		return "load32s"
	case vt.Load64:
		return "load64"
	case vt.Store8:
		return "store8"
	case vt.Store16:
		return "store16"
	case vt.Store32:
		return "store32"
	case vt.Store64:
		return "store64"
	case vt.FLoad:
		return "fload"
	case vt.FStore:
		return "fstore"
	}
	return op.String()
}

// stepRun executes the steps of one xRun superinstruction. Every step is
// trap-free by construction — memory steps use the unchecked u* opcodes
// (uLoad8..uFStore) or fused c*/t3* combinations whose bounds were
// validated by the enclosing block's guard — so the loop is pure dispatch:
// one dense switch per step, no program counter, no counters, no trap
// paths. Counters are settled in bulk by the dispatching x* case: the
// run's Executed total rides on the x* instruction's n field and its
// MemOps total on the rc field.
func stepRun(steps []fstep, R *[32]uint64, F *[16]float64, mem []byte) {
	for i := range steps {
		s := &steps[i]
		switch s.op {
		case uint8(vt.Nop):
		case uint8(vt.MovRR):
			R[s.rd] = R[s.ra]
		case uint8(vt.MovRI):
			R[s.rd] = uint64(s.imm)
		case uint8(vt.MovZ):
			R[s.rd] = uint64(uint16(s.imm)) << (16 * uint(s.cond))
		case uint8(vt.MovK):
			sh := 16 * uint(s.cond)
			R[s.rd] = R[s.rd]&^(uint64(0xFFFF)<<sh) | uint64(uint16(s.imm))<<sh
		case uint8(vt.Lea):
			R[s.rd] = R[s.ra] + uint64(s.imm)
		case uint8(vt.Add):
			R[s.rd] = R[s.ra] + R[s.rb]
		case uint8(vt.Sub):
			R[s.rd] = R[s.ra] - R[s.rb]
		case uint8(vt.Mul):
			R[s.rd] = R[s.ra] * R[s.rb]
		case uint8(vt.And):
			R[s.rd] = R[s.ra] & R[s.rb]
		case uint8(vt.Or):
			R[s.rd] = R[s.ra] | R[s.rb]
		case uint8(vt.Xor):
			R[s.rd] = R[s.ra] ^ R[s.rb]
		case uint8(vt.Shl):
			R[s.rd] = R[s.ra] << (R[s.rb] & 63)
		case uint8(vt.Shr):
			R[s.rd] = R[s.ra] >> (R[s.rb] & 63)
		case uint8(vt.Sar):
			R[s.rd] = uint64(int64(R[s.ra]) >> (R[s.rb] & 63))
		case uint8(vt.Rotr):
			R[s.rd] = bits.RotateLeft64(R[s.ra], -int(R[s.rb]&63))
		case uint8(vt.AddI):
			R[s.rd] = R[s.ra] + uint64(s.imm)
		case uint8(vt.SubI):
			R[s.rd] = R[s.ra] - uint64(s.imm)
		case uint8(vt.MulI):
			R[s.rd] = R[s.ra] * uint64(s.imm)
		case uint8(vt.AndI):
			R[s.rd] = R[s.ra] & uint64(s.imm)
		case uint8(vt.OrI):
			R[s.rd] = R[s.ra] | uint64(s.imm)
		case uint8(vt.XorI):
			R[s.rd] = R[s.ra] ^ uint64(s.imm)
		case uint8(vt.ShlI):
			R[s.rd] = R[s.ra] << (uint64(s.imm) & 63)
		case uint8(vt.ShrI):
			R[s.rd] = R[s.ra] >> (uint64(s.imm) & 63)
		case uint8(vt.SarI):
			R[s.rd] = uint64(int64(R[s.ra]) >> (uint64(s.imm) & 63))
		case uint8(vt.RotrI):
			R[s.rd] = bits.RotateLeft64(R[s.ra], -int(uint64(s.imm)&63))
		case uint8(vt.Neg):
			R[s.rd] = -R[s.ra]
		case uint8(vt.Not):
			R[s.rd] = ^R[s.ra]
		case uint8(vt.MulWideU):
			hi, lo := bits.Mul64(R[s.ra], R[s.rb])
			R[s.rd] = lo
			R[s.rc] = hi
		case uint8(vt.MulWideS):
			a, b := int64(R[s.ra]), int64(R[s.rb])
			hi, lo := bits.Mul64(uint64(a), uint64(b))
			if a < 0 {
				hi -= uint64(b)
			}
			if b < 0 {
				hi -= uint64(a)
			}
			R[s.rd] = lo
			R[s.rc] = hi
		case uint8(vt.SetCC):
			if evalCond(s.cond, R[s.ra], R[s.rb]) {
				R[s.rd] = 1
			} else {
				R[s.rd] = 0
			}
		case uint8(vt.Crc32):
			R[s.rd] = crc32c8(R[s.ra], R[s.rb])
		case uint8(vt.FMovRR):
			F[s.rd] = F[s.ra]
		case uint8(vt.FMovRI):
			F[s.rd] = fromBits(uint64(s.imm))
		case uint8(vt.FAdd):
			F[s.rd] = F[s.ra] + F[s.rb]
		case uint8(vt.FSub):
			F[s.rd] = F[s.ra] - F[s.rb]
		case uint8(vt.FMul):
			F[s.rd] = F[s.ra] * F[s.rb]
		case uint8(vt.FDiv):
			F[s.rd] = F[s.ra] / F[s.rb]
		case uint8(vt.FCmp):
			if evalFCond(s.cond, F[s.ra], F[s.rb]) {
				R[s.rd] = 1
			} else {
				R[s.rd] = 0
			}
		case uint8(vt.CvtSI2F):
			F[s.rd] = float64(int64(R[s.ra]))
		case uint8(vt.CvtF2SI):
			R[s.rd] = uint64(int64(F[s.ra]))
		case uint8(vt.MovRF):
			R[s.rd] = toBits(F[s.ra])
		case uint8(vt.MovFR):
			F[s.rd] = fromBits(R[s.ra])
		// Guard-covered memory accesses (bounds established at block
		// entry by xGuard — no per-access check).
		case uLoad8, uint8(vt.LoadU8):
			R[s.rd] = uint64(mem[R[s.ra]+uint64(s.imm)])
		case uLoad8S, uint8(vt.LoadU8S):
			R[s.rd] = uint64(int64(int8(mem[R[s.ra]+uint64(s.imm)])))
		case uLoad16, uint8(vt.LoadU16):
			a := R[s.ra] + uint64(s.imm)
			R[s.rd] = uint64(mem[a]) | uint64(mem[a+1])<<8
		case uLoad16S, uint8(vt.LoadU16S):
			a := R[s.ra] + uint64(s.imm)
			R[s.rd] = uint64(int64(int16(uint16(mem[a]) | uint16(mem[a+1])<<8)))
		case uLoad32, uint8(vt.LoadU32):
			R[s.rd] = uint64(le32(mem[R[s.ra]+uint64(s.imm):]))
		case uLoad32S, uint8(vt.LoadU32S):
			R[s.rd] = uint64(int64(int32(le32(mem[R[s.ra]+uint64(s.imm):]))))
		case uLoad64, uint8(vt.LoadU64):
			R[s.rd] = le64(mem[R[s.ra]+uint64(s.imm):])
		case uStore8, uint8(vt.StoreU8):
			mem[R[s.ra]+uint64(s.imm)] = byte(R[s.rb])
		case uStore16, uint8(vt.StoreU16):
			a := R[s.ra] + uint64(s.imm)
			v := R[s.rb]
			mem[a] = byte(v)
			mem[a+1] = byte(v >> 8)
		case uStore32, uint8(vt.StoreU32):
			put32(mem[R[s.ra]+uint64(s.imm):], uint32(R[s.rb]))
		case uStore64, uint8(vt.StoreU64):
			put64(mem[R[s.ra]+uint64(s.imm):], R[s.rb])
		case uFLoad, uint8(vt.FLoadU):
			F[s.rd] = fromBits(le64(mem[R[s.ra]+uint64(s.imm):]))
		case uFStore, uint8(vt.FStoreU):
			put64(mem[R[s.ra]+uint64(s.imm):], toBits(F[s.rb]))
		// Combined steps: two operations per dispatch, executed in original
		// order (see combineSteps). All constituents are trap-free, so the
		// pair is as atomic as any single step.
		case cMovSt64:
			R[s.rd] = R[s.ra]
			put64(mem[R[s.rb]+uint64(s.imm):], R[s.rc])
		case cSt64Mov:
			put64(mem[R[s.ra]+uint64(s.imm):], R[s.rb])
			R[s.rd] = R[s.rc]
		case cSt64Ld64:
			put64(mem[R[s.ra]+uint64(s.imm):], R[s.rb])
			R[s.rd] = le64(mem[R[s.re]+uint64(s.imm2):])
		case cLd64Mov:
			R[s.rd] = le64(mem[R[s.ra]+uint64(s.imm):])
			R[s.rb] = R[s.rc]
		case cMovISt64:
			R[s.rd] = uint64(s.imm)
			put64(mem[R[s.ra]+uint64(s.imm2):], R[s.rb])
		case cSt64MovI:
			put64(mem[R[s.ra]+uint64(s.imm):], R[s.rb])
			R[s.rd] = uint64(s.imm2)
		case cMovAdd:
			R[s.rd] = R[s.ra]
			R[s.rb] = R[s.rc] + R[s.re]
		case cAddSt64:
			R[s.rd] = R[s.ra] + R[s.rb]
			put64(mem[R[s.rc]+uint64(s.imm):], R[s.re])
		case cSetSt64:
			if evalCond(s.cond, R[s.ra], R[s.rb]) {
				R[s.rd] = 1
			} else {
				R[s.rd] = 0
			}
			put64(mem[R[s.rc]+uint64(s.imm):], R[s.re])
		case cLd64Set:
			R[s.rd] = le64(mem[R[s.ra]+uint64(s.imm):])
			if evalCond(s.cond, R[s.rc], R[s.re]) {
				R[s.rb] = 1
			} else {
				R[s.rb] = 0
			}
		case cSt64St64:
			put64(mem[R[s.ra]+uint64(s.imm):], R[s.rb])
			put64(mem[R[s.rc]+uint64(s.imm2):], R[s.re])
		case cLd64Ld64:
			R[s.rd] = le64(mem[R[s.ra]+uint64(s.imm):])
			R[s.rb] = le64(mem[R[s.rc]+uint64(s.imm2):])
		case cMovMov:
			R[s.rd] = R[s.ra]
			R[s.rb] = R[s.rc]
		case cMovIMovI:
			R[s.rd] = uint64(s.imm)
			R[s.rb] = uint64(s.imm2)
		case c2MovXor:
			R[s.rd] = R[s.ra]
			R[s.rb] = R[s.rc] ^ R[s.re]
		case c2MovAnd:
			R[s.rd] = R[s.ra]
			R[s.rb] = R[s.rc] & R[s.re]
		case c2XorMov:
			R[s.rd] = R[s.ra] ^ R[s.rb]
			R[s.rc] = R[s.re]
		case c2AndMov:
			R[s.rd] = R[s.ra] & R[s.rb]
			R[s.rc] = R[s.re]
		case c2MovMulI:
			R[s.rd] = R[s.ra]
			R[s.rb] = R[s.rc] * uint64(s.imm)
		case c2MulIAdd:
			R[s.rd] = R[s.ra] * uint64(s.imm)
			R[s.rb] = R[s.rc] + R[s.re]
		case c2MovIMulI:
			R[s.rd] = uint64(s.imm)
			R[s.rb] = R[s.rc] * uint64(s.imm2)
		case c2AddMovI:
			R[s.rd] = R[s.ra] + R[s.rb]
			R[s.rc] = uint64(s.imm)
		case c2MovAddI:
			R[s.rd] = R[s.ra]
			R[s.rb] = R[s.rc] + uint64(s.imm)
		case c2AddIMov:
			R[s.rd] = R[s.ra] + uint64(s.imm)
			R[s.rb] = R[s.rc]
		case c2MovIMov:
			R[s.rd] = uint64(s.imm)
			R[s.rb] = R[s.rc]
		case c2MovIMulwu:
			R[s.rd] = uint64(s.imm)
			hi, lo := bits.Mul64(R[s.rc], R[s.re])
			R[s.ra] = lo
			R[s.rb] = hi
		case c2CrcMovI:
			R[s.rd] = crc32c8(R[s.ra], R[s.rb])
			R[s.rc] = uint64(s.imm)
		case c2MovCrc:
			R[s.rd] = R[s.ra]
			R[s.rb] = crc32c8(R[s.rc], R[s.re])
		case c2MovLd64:
			R[s.rd] = R[s.ra]
			R[s.rb] = le64(mem[R[s.rc]+uint64(s.imm):])
		case c2MovILd64:
			R[s.rd] = uint64(s.imm)
			R[s.rb] = le64(mem[R[s.rc]+uint64(s.imm2):])
		case c2Ld64Lea:
			R[s.rd] = le64(mem[R[s.ra]+uint64(s.imm):])
			R[s.rb] = R[s.rc] + uint64(s.imm2)
		case c2LeaSt64:
			R[s.rd] = R[s.ra] + uint64(s.imm)
			put64(mem[R[s.rb]+uint64(s.imm2):], R[s.rc])
		case t3SetSet:
			if evalCond(s.cond, R[s.ra], R[s.rb]) {
				R[s.rd] = 1
			} else {
				R[s.rd] = 0
			}
			if evalCond(vt.Cond(s.rg), R[s.re], R[s.rf]) {
				R[s.rc] = 1
			} else {
				R[s.rc] = 0
			}
		case t3XorAnd:
			R[s.rd] = R[s.ra] ^ R[s.rb]
			R[s.rc] = R[s.re] & R[s.rf]
		case t3MulwuXor:
			hi, lo := bits.Mul64(R[s.rb], R[s.rc])
			R[s.rd] = lo
			R[s.ra] = hi
			R[s.re] = R[s.rf] ^ R[s.rg]
		default:
			panic(fmt.Sprintf("vm: bad fused step op %d", s.op))
		}
	}
}

// runFused executes the fused stream starting at micro-op index start. The
// structure deliberately mirrors Machine.run: counters and the memory slice
// are locals with a deferred flush, registers are direct array pointers,
// and every hot micro-op is an inline case of one jump-table switch. Only
// traps and calls that can leave the fused view (CallInd to an unmapped
// target, CallRT) go through out-of-line helpers.
func (m *Machine) runFused(mod *Module, fp *fprog, start int32) error {
	st := fstate{
		m: m, mod: mod, fp: fp, mem: m.Mem,
		callBase: len(m.callPCs), fretBase: len(m.fret),
	}
	R := &m.R
	F := &m.F
	mem := m.Mem
	ins := fp.ins
	stepsAll := fp.steps
	guardsAll := fp.guards
	// PC sampling shares the branch micro-ops as checkpoints (cf. run): a
	// nil test when off, a two-load compare when armed. pc0 gives the exact
	// original instruction index, so fused and unfused execution attribute
	// samples to identical code positions.
	sm := m.sampler
	offs := mod.Prog.Offsets
	var count, branches, memops int64
	defer func() {
		m.Executed += count
		m.Branches += branches
		m.MemOps += memops
	}()

	loadAddr := func(a, n uint64) (uint64, bool) {
		memops++
		return a, a >= nullGuard && a+n <= uint64(len(mem)) && a+n >= a
	}

	fpc := start
	for fpc >= 0 {
		in := &ins[fpc]
		count += int64(in.n)
		fpc++
		switch in.op {
		// ---- fused micro-ops ----
		case xRun:
			stepRun(stepsAll[in.imm:in.imm+int64(in.cnt)], R, F, mem)
			memops += int64(in.rc)
		case xRunBr:
			stepRun(stepsAll[in.imm:in.imm+int64(in.cnt)], R, F, mem)
			memops += int64(in.rc)
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			fpc = in.tgt
		case xRunBrCC:
			stepRun(stepsAll[in.imm:in.imm+int64(in.cnt)], R, F, mem)
			memops += int64(in.rc)
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			if evalCond(in.cond, R[in.ra], R[in.rb]) {
				fpc = in.tgt
			}
		case xRunBrNZ:
			stepRun(stepsAll[in.imm:in.imm+int64(in.cnt)], R, F, mem)
			memops += int64(in.rc)
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			if R[in.ra] != 0 {
				fpc = in.tgt
			}
		case xGuard1:
			a := R[in.ra]
			lo := a + uint64(in.imm)
			hi := a + uint64(in.imm2)
			if lo < nullGuard || hi > uint64(len(mem)) || lo > hi {
				fpc = in.tgt // checked clone re-runs the block per-access
			}
		case xGuard:
			gs := guardsAll[in.imm : in.imm+int64(in.cnt)]
			memLen := uint64(len(mem))
			for i := range gs {
				g := &gs[i]
				a := R[g.base]
				lo := a + uint64(g.lo)
				hi := a + uint64(g.hi)
				if lo < nullGuard || hi > memLen || lo > hi {
					fpc = in.tgt // checked clone re-runs the block per-access
					break
				}
			}
		case xJmp:
			fpc = in.tgt
		case xCmpBr:
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			if evalCond(in.cond, R[in.ra], R[in.rb]) {
				R[in.rd] = 1
				fpc = in.tgt
			} else {
				R[in.rd] = 0
			}

		// ---- control flow ----
		case uint8(vt.Br):
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			fpc = in.tgt
		case uint8(vt.BrCC):
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			if evalCond(in.cond, R[in.ra], R[in.rb]) {
				fpc = in.tgt
			}
		case uint8(vt.BrNZ):
			branches++
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			if R[in.ra] != 0 {
				fpc = in.tgt
			}
		case uint8(vt.Call):
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			m.callPCs = append(m.callPCs, in.pc0)
			m.fret = append(m.fret, int32(in.imm2))
			fpc = in.tgt
		case uint8(vt.CallInd):
			fpc = st.fuCallInd(in)
			mem = st.mem // a nested unfused run may have grown memory
		case uint8(vt.CallRT):
			fpc = st.fuCallRT(in, fpc)
			mem = st.mem // runtime call may have grown memory
		case uint8(vt.Ret):
			if sm != nil && m.Executed+count >= sm.next {
				sm.take(mod, offs[in.pc0+int32(in.n)-1], m.Executed+count)
			}
			if len(m.fret) == st.fretBase {
				return st.err
			}
			fpc = m.fret[len(m.fret)-1]
			m.fret = m.fret[:len(m.fret)-1]
			m.callPCs = m.callPCs[:len(m.callPCs)-1]
		case uint8(vt.Trap):
			fpc = st.trap(in.pc0, vt.TrapCode(in.imm), "")
		case uint8(vt.TrapNZ):
			if R[in.ra] != 0 {
				fpc = st.trap(in.pc0, vt.TrapCode(in.imm), "")
			}

		// ---- checked memory singles (no guard covered them) ----
		case uint8(vt.Load8):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 1)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "load8")
				continue
			}
			R[in.rd] = uint64(mem[a])
		case uint8(vt.Load8S):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 1)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "load8s")
				continue
			}
			R[in.rd] = uint64(int64(int8(mem[a])))
		case uint8(vt.Load16):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 2)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "load16")
				continue
			}
			R[in.rd] = uint64(mem[a]) | uint64(mem[a+1])<<8
		case uint8(vt.Load16S):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 2)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "load16s")
				continue
			}
			R[in.rd] = uint64(int64(int16(uint16(mem[a]) | uint16(mem[a+1])<<8)))
		case uint8(vt.Load32):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 4)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "load32")
				continue
			}
			R[in.rd] = uint64(le32(mem[a:]))
		case uint8(vt.Load32S):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 4)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "load32s")
				continue
			}
			R[in.rd] = uint64(int64(int32(le32(mem[a:]))))
		case uint8(vt.Load64):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 8)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "load64")
				continue
			}
			R[in.rd] = le64(mem[a:])
		case uint8(vt.Store8):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 1)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "store8")
				continue
			}
			mem[a] = byte(R[in.rb])
		case uint8(vt.Store16):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 2)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "store16")
				continue
			}
			v := R[in.rb]
			mem[a] = byte(v)
			mem[a+1] = byte(v >> 8)
		case uint8(vt.Store32):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 4)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "store32")
				continue
			}
			put32(mem[a:], uint32(R[in.rb]))
		case uint8(vt.Store64):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 8)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "store64")
				continue
			}
			put64(mem[a:], R[in.rb])
		case uint8(vt.FLoad):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 8)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "fload")
				continue
			}
			F[in.rd] = fromBits(le64(mem[a:]))
		case uint8(vt.FStore):
			a, ok := loadAddr(R[in.ra]+uint64(in.imm), 8)
			if !ok {
				fpc = st.trap(in.pc0, vt.TrapOOB, "fstore")
				continue
			}
			put64(mem[a:], toBits(F[in.rb]))

		// ---- guard-covered memory singles (flushed runs of one step) ----
		case uLoad8, uint8(vt.LoadU8):
			memops++
			R[in.rd] = uint64(mem[R[in.ra]+uint64(in.imm)])
		case uLoad8S, uint8(vt.LoadU8S):
			memops++
			R[in.rd] = uint64(int64(int8(mem[R[in.ra]+uint64(in.imm)])))
		case uLoad16, uint8(vt.LoadU16):
			memops++
			a := R[in.ra] + uint64(in.imm)
			R[in.rd] = uint64(mem[a]) | uint64(mem[a+1])<<8
		case uLoad16S, uint8(vt.LoadU16S):
			memops++
			a := R[in.ra] + uint64(in.imm)
			R[in.rd] = uint64(int64(int16(uint16(mem[a]) | uint16(mem[a+1])<<8)))
		case uLoad32, uint8(vt.LoadU32):
			memops++
			R[in.rd] = uint64(le32(mem[R[in.ra]+uint64(in.imm):]))
		case uLoad32S, uint8(vt.LoadU32S):
			memops++
			R[in.rd] = uint64(int64(int32(le32(mem[R[in.ra]+uint64(in.imm):]))))
		case uLoad64, uint8(vt.LoadU64):
			memops++
			R[in.rd] = le64(mem[R[in.ra]+uint64(in.imm):])
		case uStore8, uint8(vt.StoreU8):
			memops++
			mem[R[in.ra]+uint64(in.imm)] = byte(R[in.rb])
		case uStore16, uint8(vt.StoreU16):
			memops++
			a := R[in.ra] + uint64(in.imm)
			v := R[in.rb]
			mem[a] = byte(v)
			mem[a+1] = byte(v >> 8)
		case uStore32, uint8(vt.StoreU32):
			memops++
			put32(mem[R[in.ra]+uint64(in.imm):], uint32(R[in.rb]))
		case uStore64, uint8(vt.StoreU64):
			memops++
			put64(mem[R[in.ra]+uint64(in.imm):], R[in.rb])
		case uFLoad, uint8(vt.FLoadU):
			memops++
			F[in.rd] = fromBits(le64(mem[R[in.ra]+uint64(in.imm):]))
		case uFStore, uint8(vt.FStoreU):
			memops++
			put64(mem[R[in.ra]+uint64(in.imm):], toBits(F[in.rb]))

		// ---- combined steps emitted directly (short runs) ----
		// Same semantics as the stepRun cases; op1 is the second operation's
		// extra register, and each case charges its own memory accesses.
		case cMovSt64:
			memops++
			R[in.rd] = R[in.ra]
			put64(mem[R[in.rb]+uint64(in.imm):], R[in.rc])
		case cSt64Mov:
			memops++
			put64(mem[R[in.ra]+uint64(in.imm):], R[in.rb])
			R[in.rd] = R[in.rc]
		case cSt64Ld64:
			memops += 2
			put64(mem[R[in.ra]+uint64(in.imm):], R[in.rb])
			R[in.rd] = le64(mem[R[in.op1]+uint64(in.imm2):])
		case cLd64Mov:
			memops++
			R[in.rd] = le64(mem[R[in.ra]+uint64(in.imm):])
			R[in.rb] = R[in.rc]
		case cMovISt64:
			memops++
			R[in.rd] = uint64(in.imm)
			put64(mem[R[in.ra]+uint64(in.imm2):], R[in.rb])
		case cSt64MovI:
			memops++
			put64(mem[R[in.ra]+uint64(in.imm):], R[in.rb])
			R[in.rd] = uint64(in.imm2)
		case cMovAdd:
			R[in.rd] = R[in.ra]
			R[in.rb] = R[in.rc] + R[in.op1]
		case cAddSt64:
			memops++
			R[in.rd] = R[in.ra] + R[in.rb]
			put64(mem[R[in.rc]+uint64(in.imm):], R[in.op1])
		case cSetSt64:
			memops++
			if evalCond(in.cond, R[in.ra], R[in.rb]) {
				R[in.rd] = 1
			} else {
				R[in.rd] = 0
			}
			put64(mem[R[in.rc]+uint64(in.imm):], R[in.op1])
		case cLd64Set:
			memops++
			R[in.rd] = le64(mem[R[in.ra]+uint64(in.imm):])
			if evalCond(in.cond, R[in.rc], R[in.op1]) {
				R[in.rb] = 1
			} else {
				R[in.rb] = 0
			}
		case cSt64St64:
			memops += 2
			put64(mem[R[in.ra]+uint64(in.imm):], R[in.rb])
			put64(mem[R[in.rc]+uint64(in.imm2):], R[in.op1])
		case cLd64Ld64:
			memops += 2
			R[in.rd] = le64(mem[R[in.ra]+uint64(in.imm):])
			R[in.rb] = le64(mem[R[in.rc]+uint64(in.imm2):])
		case cMovMov:
			R[in.rd] = R[in.ra]
			R[in.rb] = R[in.rc]
		case cMovIMovI:
			R[in.rd] = uint64(in.imm)
			R[in.rb] = uint64(in.imm2)
		case c2MovMulI:
			R[in.rd] = R[in.ra]
			R[in.rb] = R[in.rc] * uint64(in.imm)
		case c2MulIAdd:
			R[in.rd] = R[in.ra] * uint64(in.imm)
			R[in.rb] = R[in.rc] + R[in.op1]
		case c2MovAddI:
			R[in.rd] = R[in.ra]
			R[in.rb] = R[in.rc] + uint64(in.imm)
		case c2AddIMov:
			R[in.rd] = R[in.ra] + uint64(in.imm)
			R[in.rb] = R[in.rc]
		case c2MovIMov:
			R[in.rd] = uint64(in.imm)
			R[in.rb] = R[in.rc]
		case c2MovCrc:
			R[in.rd] = R[in.ra]
			R[in.rb] = crc32c8(R[in.rc], R[in.op1])
		case c2MovLd64:
			memops++
			R[in.rd] = R[in.ra]
			R[in.rb] = le64(mem[R[in.rc]+uint64(in.imm):])
		case c2MovILd64:
			memops++
			R[in.rd] = uint64(in.imm)
			R[in.rb] = le64(mem[R[in.rc]+uint64(in.imm2):])
		case c2Ld64Lea:
			memops++
			R[in.rd] = le64(mem[R[in.ra]+uint64(in.imm):])
			R[in.rb] = R[in.rc] + uint64(in.imm2)
		case c2LeaSt64:
			memops++
			R[in.rd] = R[in.ra] + uint64(in.imm)
			put64(mem[R[in.rb]+uint64(in.imm2):], R[in.rc])

		// ---- plain singles (no fusion covered them) ----
		case uint8(vt.Nop):
		case uint8(vt.MovRR):
			R[in.rd] = R[in.ra]
		case uint8(vt.MovRI):
			R[in.rd] = uint64(in.imm)
		case uint8(vt.MovZ):
			R[in.rd] = uint64(uint16(in.imm)) << (16 * uint(in.cond))
		case uint8(vt.MovK):
			sh := 16 * uint(in.cond)
			R[in.rd] = R[in.rd]&^(uint64(0xFFFF)<<sh) | uint64(uint16(in.imm))<<sh
		case uint8(vt.Lea):
			R[in.rd] = R[in.ra] + uint64(in.imm)
		case uint8(vt.Add):
			R[in.rd] = R[in.ra] + R[in.rb]
		case uint8(vt.Sub):
			R[in.rd] = R[in.ra] - R[in.rb]
		case uint8(vt.Mul):
			R[in.rd] = R[in.ra] * R[in.rb]
		case uint8(vt.And):
			R[in.rd] = R[in.ra] & R[in.rb]
		case uint8(vt.Or):
			R[in.rd] = R[in.ra] | R[in.rb]
		case uint8(vt.Xor):
			R[in.rd] = R[in.ra] ^ R[in.rb]
		case uint8(vt.Shl):
			R[in.rd] = R[in.ra] << (R[in.rb] & 63)
		case uint8(vt.Shr):
			R[in.rd] = R[in.ra] >> (R[in.rb] & 63)
		case uint8(vt.Sar):
			R[in.rd] = uint64(int64(R[in.ra]) >> (R[in.rb] & 63))
		case uint8(vt.Rotr):
			R[in.rd] = bits.RotateLeft64(R[in.ra], -int(R[in.rb]&63))
		case uint8(vt.SDiv):
			d := int64(R[in.rb])
			if d == 0 {
				fpc = st.trap(in.pc0, vt.TrapDivZero, "")
				continue
			}
			n := int64(R[in.ra])
			if n == -1<<63 && d == -1 {
				R[in.rd] = uint64(n)
			} else {
				R[in.rd] = uint64(n / d)
			}
		case uint8(vt.SRem):
			d := int64(R[in.rb])
			if d == 0 {
				fpc = st.trap(in.pc0, vt.TrapDivZero, "")
				continue
			}
			n := int64(R[in.ra])
			if n == -1<<63 && d == -1 {
				R[in.rd] = 0
			} else {
				R[in.rd] = uint64(n % d)
			}
		case uint8(vt.UDiv):
			if R[in.rb] == 0 {
				fpc = st.trap(in.pc0, vt.TrapDivZero, "")
				continue
			}
			R[in.rd] = R[in.ra] / R[in.rb]
		case uint8(vt.URem):
			if R[in.rb] == 0 {
				fpc = st.trap(in.pc0, vt.TrapDivZero, "")
				continue
			}
			R[in.rd] = R[in.ra] % R[in.rb]
		case uint8(vt.AddI):
			R[in.rd] = R[in.ra] + uint64(in.imm)
		case uint8(vt.SubI):
			R[in.rd] = R[in.ra] - uint64(in.imm)
		case uint8(vt.MulI):
			R[in.rd] = R[in.ra] * uint64(in.imm)
		case uint8(vt.AndI):
			R[in.rd] = R[in.ra] & uint64(in.imm)
		case uint8(vt.OrI):
			R[in.rd] = R[in.ra] | uint64(in.imm)
		case uint8(vt.XorI):
			R[in.rd] = R[in.ra] ^ uint64(in.imm)
		case uint8(vt.ShlI):
			R[in.rd] = R[in.ra] << (uint64(in.imm) & 63)
		case uint8(vt.ShrI):
			R[in.rd] = R[in.ra] >> (uint64(in.imm) & 63)
		case uint8(vt.SarI):
			R[in.rd] = uint64(int64(R[in.ra]) >> (uint64(in.imm) & 63))
		case uint8(vt.RotrI):
			R[in.rd] = bits.RotateLeft64(R[in.ra], -int(uint64(in.imm)&63))
		case uint8(vt.Neg):
			R[in.rd] = -R[in.ra]
		case uint8(vt.Not):
			R[in.rd] = ^R[in.ra]
		case uint8(vt.MulWideU):
			hi, lo := bits.Mul64(R[in.ra], R[in.rb])
			R[in.rd] = lo
			R[in.rc] = hi
		case uint8(vt.MulWideS):
			a, b := int64(R[in.ra]), int64(R[in.rb])
			hi, lo := bits.Mul64(uint64(a), uint64(b))
			if a < 0 {
				hi -= uint64(b)
			}
			if b < 0 {
				hi -= uint64(a)
			}
			R[in.rd] = lo
			R[in.rc] = hi
		case uint8(vt.SetCC):
			if evalCond(in.cond, R[in.ra], R[in.rb]) {
				R[in.rd] = 1
			} else {
				R[in.rd] = 0
			}
		case uint8(vt.Crc32):
			R[in.rd] = crc32c8(R[in.ra], R[in.rb])
		case uint8(vt.FMovRR):
			F[in.rd] = F[in.ra]
		case uint8(vt.FMovRI):
			F[in.rd] = fromBits(uint64(in.imm))
		case uint8(vt.FAdd):
			F[in.rd] = F[in.ra] + F[in.rb]
		case uint8(vt.FSub):
			F[in.rd] = F[in.ra] - F[in.rb]
		case uint8(vt.FMul):
			F[in.rd] = F[in.ra] * F[in.rb]
		case uint8(vt.FDiv):
			F[in.rd] = F[in.ra] / F[in.rb]
		case uint8(vt.FCmp):
			if evalFCond(in.cond, F[in.ra], F[in.rb]) {
				R[in.rd] = 1
			} else {
				R[in.rd] = 0
			}
		case uint8(vt.CvtSI2F):
			F[in.rd] = float64(int64(R[in.ra]))
		case uint8(vt.CvtF2SI):
			R[in.rd] = uint64(int64(F[in.ra]))
		case uint8(vt.MovRF):
			R[in.rd] = toBits(F[in.ra])
		case uint8(vt.MovFR):
			F[in.rd] = fromBits(R[in.ra])
		default:
			fpc = st.trap(in.pc0, vt.TrapUnreachable, fmt.Sprintf("bad op %d", in.op))
		}
	}
	return st.err
}

// fuCallInd resolves and performs an indirect call. Mapped targets continue
// in the fused stream; unmapped targets (an address computed at run time
// from arithmetic the leader scan cannot see) execute in the unfused loop
// with their frames stitched to ours.
func (st *fstate) fuCallInd(in *finstr) int32 {
	m := st.m
	idx := st.mod.indexOf(int32(m.R[in.ra]))
	if idx < 0 {
		return st.trap(in.pc0, vt.TrapOOB, "indirect call target")
	}
	if f := st.fp.o2f[idx]; f >= 0 {
		m.callPCs = append(m.callPCs, in.pc0)
		m.fret = append(m.fret, int32(in.imm2))
		return f
	}
	err := m.run(st.mod, idx)
	st.mem = m.Mem
	if err == nil {
		return int32(in.imm2)
	}
	if t, ok := err.(*Trap); ok {
		offs := st.mod.Prog.Offsets
		t.Frames = append(t.Frames, st.mod.symbolize(offs[in.pc0]))
		for i := len(m.callPCs) - 1; i >= st.callBase; i-- {
			t.Frames = append(t.Frames, st.mod.symbolize(offs[m.callPCs[i]]))
		}
	}
	m.callPCs = m.callPCs[:st.callBase]
	m.fret = m.fret[:st.fretBase]
	st.err = err
	return -1
}

// fuCallRT invokes a runtime function; fpc is already the continuation.
func (st *fstate) fuCallRT(in *finstr, fpc int32) int32 {
	m := st.m
	id := int(in.imm)
	if id >= len(m.RT) || m.RT[id] == nil {
		return st.trap(in.pc0, vt.TrapUnreachable, fmt.Sprintf("runtime function %d", id))
	}
	if err := m.CallRT(id); err != nil {
		// A trap raised by the runtime function itself carries no frames
		// yet and is attributed here; a trap re-raised through nested
		// CallAt re-entry keeps its innermost location.
		if t, ok := err.(*Trap); ok && len(t.Frames) == 0 {
			t.PC = st.mod.Prog.Offsets[in.pc0]
			t.Frames = append(t.Frames, st.mod.symbolize(t.PC))
		}
		m.callPCs = m.callPCs[:st.callBase]
		m.fret = m.fret[:st.fretBase]
		st.err = err
		return -1
	}
	st.mem = m.Mem // runtime call may have grown memory
	return fpc
}
