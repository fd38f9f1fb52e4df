// Superinstruction fusion: a load-time peephole pass over the decoded
// program that rewrites hot idioms into fused micro-ops executed by the
// threaded dispatcher in dispatch.go.
//
// Fusion is a pure *view* of the decoded program. Module.Code, the decoded
// vt.Program, and every byte-identity comparison are untouched; the fused
// stream is built lazily on first Call so load time (measured by the
// compile-time benchmarks) is unaffected. The fused handlers charge the
// exact same Executed/Branches/MemOps counts and report the exact same trap
// PCs and frames as the unfused switch loop, so the architecture-neutral
// metrics stay comparable between the two dispatch strategies.
//
// The pass works on basic blocks (leader-to-leader ranges):
//
//   - Bounds-check hoisting: when a block performs two or more memory
//     accesses off base registers that are unmodified since block entry, a
//     single xGuard micro-op validates the block's whole static memory
//     footprint (one range per base register) and the accesses run
//     unchecked. If the guard fails, control enters a checked clone of the
//     block whose per-access checks reproduce the unfused trap exactly.
//   - Superinstruction runs: maximal sequences of trap-free operations
//     (plus guarded memory accesses) collapse into one xRun micro-op
//     executed by a compact step loop — one dispatch for the whole run.
//   - Compare-and-branch fusion: SetCC feeding BrNZ on the result register
//     becomes one xCmpBr micro-op.
//   - Immediate materialization: MovZ followed by MovK chains folds into a
//     single constant store; AddI/SubI/Lea address chains on one register
//     fold into a single add.
package vm

import (
	"math"
	"sync"

	"qcc/internal/obs"
	"qcc/internal/vt"
)

// Fusion-rate counters (fused micro-ops / original instructions), exported
// through the process-wide obs registry and per-module via FuseStats.
var (
	cntFuseModules = obs.NewCounter("vm_fuse_modules")
	cntFuseInstrs  = obs.NewCounter("vm_fuse_orig_instrs")
	cntFuseMicro   = obs.NewCounter("vm_fuse_micro_ops")
)

// FuseStats reports what the fusion pass did to one module.
type FuseStats struct {
	// Instrs is the decoded instruction count of the module.
	Instrs int
	// MicroOps is the primary-path micro-op count (guards included,
	// checked clones excluded); MicroOps/Instrs is the fusion rate.
	MicroOps int
	// CloneOps counts micro-ops in checked clones (guard slow paths).
	CloneOps int
	// GuardedBlocks counts blocks with a hoisted bounds check.
	GuardedBlocks int
}

// Extended micro-opcodes. Values below vt.NumOps are checked singles of the
// same operation; uLoad8..uFStore are memory operations whose bounds were
// established by a block guard; the x* values are fused superinstructions.
// The whole space is kept dense (0..xOpStore with no gaps) so the dispatch
// switches compile to single jump tables — the threaded-dispatch property.
const (
	uLoad8 uint8 = uint8(vt.NumOps) + iota
	uLoad8S
	uLoad16
	uLoad16S
	uLoad32
	uLoad32S
	uLoad64
	uStore8
	uStore16
	uStore32
	uStore64
	uFLoad
	uFStore
	// Combined step opcodes: one step executing two adjacent operations.
	// The pair set was chosen from dynamic frequency profiles of TPC-H
	// execution (register copies and 64-bit column stores/loads dominate
	// compiled query code); combineSteps performs the greedy matching. The
	// narrow ones, up to cWideFirst, fit the five-register/two-immediate
	// main-stream encoding and are inlined as direct micro-ops when a run
	// closes on one or two steps. From cWideFirst on a step only ever
	// executes inside a run: the t3* steps need the rf/rg fields, and the
	// narrow ones that lead that group close no one- or two-step run in any
	// corpus module, so runFused carries no copy of them (TestFuseCensus
	// keeps the split honest in both directions).
	cMovSt64    // MovRR + Store64u
	cSt64Mov    // Store64u + MovRR
	cSt64Ld64   // Store64u + Load64u (different address)
	cLd64Mov    // Load64u + MovRR
	cMovISt64   // MovRI + Store64u
	cSt64MovI   // Store64u + MovRI
	cMovAdd     // MovRR + Add
	cAddSt64    // Add + Store64u
	cSetSt64    // SetCC + Store64u
	cLd64Set    // Load64u + SetCC
	cSt64St64   // Store64u + Store64u
	cLd64Ld64   // Load64u + Load64u
	cMovMov     // MovRR + MovRR
	cMovIMovI   // MovRI + MovRI
	c2MovMulI   // MovRR + MulI:         rd←ra;         rb←rc*imm
	c2MulIAdd   // MulI + Add:           rd←ra*imm;     rb←rc+re
	c2MovAddI   // MovRR + AddI:         rd←ra;         rb←rc+imm
	c2AddIMov   // AddI + MovRR:         rd←ra+imm;     rb←rc
	c2MovIMov   // MovRI + MovRR:        rd←imm;        rb←rc
	c2MovCrc    // MovRR + Crc32:        rd←ra;         rb←crc(rc,re)
	c2MovLd64   // MovRR + Load64u:      rd←ra;         rb←[rc+imm]
	c2MovILd64  // MovRI + Load64u:      rd←imm;        rb←[rc+imm2]
	c2Ld64Lea   // Load64u + AddI:       rd←[ra+imm];   rb←rc+imm2
	c2LeaSt64   // AddI + Store64u:      rd←ra+imm;     [rb+imm2]←rc
	c2MovXor    // MovRR + Xor:          rd←ra;         rb←rc^re
	c2MovAnd    // MovRR + And:          rd←ra;         rb←rc&re
	c2XorMov    // Xor + MovRR:          rd←ra^rb;      rc←re
	c2AndMov    // And + MovRR:          rd←ra&rb;      rc←re
	c2MovIMulI  // MovRI + MulI:         rd←imm;        rb←rc*imm2
	c2AddMovI   // Add + MovRI:          rd←ra+rb;      rc←imm
	c2MovIMulwu // MovRI + MulWideU:     rd←imm;        ra,rb←lo,hi(rc*re)
	c2CrcMovI   // Crc32 + MovRI:        rd←crc(ra,rb); rc←imm
	t3SetSet    // SetCC + SetCC:        rd←ra?rb; (cond rg) rc←re?rf
	t3XorAnd    // Xor + And:            rd←ra^rb; rc←re&rf
	t3MulwuXor  // MulWideU + Xor:       rd,ra←lo,hi(rb*rc); re←rf^rg
	xGuard      // hoisted block bounds check (cnt ranges at guards[imm])
	xGuard1     // hoisted single-range bounds check (base ra, [imm, imm2))
	xJmp        // stream glue (clone fall-through), charges nothing
	xRun        // superinstruction: cnt steps at steps[imm]
	xRunBr      // run whose block ends in Br: steps, then jump tgt
	xRunBrCC    // run whose block ends in BrCC
	xRunBrNZ    // run whose block ends in BrNZ
	xCmpBr      // SetCC + BrNZ
)

// unchecked maps a memory operation (checked or statically unchecked) to its
// guard-covered step opcode.
func unchecked(op vt.Op) uint8 {
	switch {
	case op >= vt.Load8 && op <= vt.Store64:
		return uLoad8 + uint8(op-vt.Load8)
	case op >= vt.LoadU8 && op <= vt.StoreU64:
		return uLoad8 + uint8(op-vt.LoadU8)
	case op == vt.FLoad, op == vt.FLoadU:
		return uFLoad
	default:
		return uFStore
	}
}

// finstr is one fused micro-op.
type finstr struct {
	op   uint8 // micro-opcode (vt.Op, |uncheckedBit, or x*)
	n    uint8 // original instructions covered (0 for guard/jmp glue)
	cnt  uint8 // run step count / guard range count
	rc   uint8 // run mem-op count / RC register
	rd   uint8
	ra   uint8
	rb   uint8
	cond vt.Cond
	op1  uint8 // combined step's extra register (fstep.re)
	pc0  int32 // original instruction index of the first constituent
	tgt  int32 // fused branch/guard-fail/jmp target
	imm  int64
	imm2 int64 // call continuation
}

// cWideFirst is the first combined step opcode with no main-stream case in
// runFused; steps at or above it only execute inside runs.
const cWideFirst = c2MovXor

// fstep is one step of an xRun superinstruction. Combined steps (c*) hold
// two operations: re and imm2 carry the second operation's extra register
// and immediate; the wide ones (t3*) use rf and rg as well.
type fstep struct {
	op   uint8 // vt.Op, unchecked memory operation, or combined group
	rd   uint8
	ra   uint8
	rb   uint8
	rc   uint8
	re   uint8
	rf   uint8
	rg   uint8
	cond vt.Cond
	pc0  int32
	imm  int64
	imm2 int64
}

// combineSteps greedily replaces adjacent step pairs with single combined
// steps, in place, halving dispatch count for the patterns that dominate
// compiled query code (register copies feeding/following 64-bit stores and
// loads cover roughly two thirds of adjacent pairs on TPC-H). Combining is a
// pure re-encoding: each combined step performs both constituent operations in
// original order, so register/memory effects are identical, counters are
// unaffected (run memory-op counts are fixed at push time), and trap
// attribution is unaffected (all constituents are trap-free).
func combineSteps(steps []fstep) []fstep {
	out := steps[:0]
	for i := 0; i < len(steps); i++ {
		if i+1 < len(steps) {
			if c, ok := combinePair(&steps[i], &steps[i+1]); ok {
				out = append(out, c)
				i++
				continue
			}
		}
		out = append(out, steps[i])
	}
	return out
}

// combinePair encodes two adjacent steps as one combined step when the pair
// is in the profiled hot set and its operands fit the fstep fields.
func combinePair(a, b *fstep) (fstep, bool) {
	switch a.op {
	case uint8(vt.MovRR):
		switch b.op {
		case uStore64:
			return fstep{op: cMovSt64, rd: a.rd, ra: a.ra, rb: b.ra, rc: b.rb, imm: b.imm, pc0: a.pc0}, true
		case uint8(vt.Add):
			return fstep{op: cMovAdd, rd: a.rd, ra: a.ra, rb: b.rd, rc: b.ra, re: b.rb, pc0: a.pc0}, true
		case uint8(vt.MovRR):
			return fstep{op: cMovMov, rd: a.rd, ra: a.ra, rb: b.rd, rc: b.ra, pc0: a.pc0}, true
		case uint8(vt.Xor):
			return fstep{op: c2MovXor, rd: a.rd, ra: a.ra, rb: b.rd, rc: b.ra, re: b.rb, pc0: a.pc0}, true
		case uint8(vt.And):
			return fstep{op: c2MovAnd, rd: a.rd, ra: a.ra, rb: b.rd, rc: b.ra, re: b.rb, pc0: a.pc0}, true
		case uint8(vt.MulI):
			return fstep{op: c2MovMulI, rd: a.rd, ra: a.ra, rb: b.rd, rc: b.ra, imm: b.imm, pc0: a.pc0}, true
		case uint8(vt.AddI):
			return fstep{op: c2MovAddI, rd: a.rd, ra: a.ra, rb: b.rd, rc: b.ra, imm: b.imm, pc0: a.pc0}, true
		case uint8(vt.Crc32):
			return fstep{op: c2MovCrc, rd: a.rd, ra: a.ra, rb: b.rd, rc: b.ra, re: b.rb, pc0: a.pc0}, true
		case uLoad64:
			return fstep{op: c2MovLd64, rd: a.rd, ra: a.ra, rb: b.rd, rc: b.ra, imm: b.imm, pc0: a.pc0}, true
		}
	case uint8(vt.MovRI):
		switch b.op {
		case uStore64:
			return fstep{op: cMovISt64, rd: a.rd, imm: a.imm, ra: b.ra, rb: b.rb, imm2: b.imm, pc0: a.pc0}, true
		case uint8(vt.MovRI):
			return fstep{op: cMovIMovI, rd: a.rd, imm: a.imm, rb: b.rd, imm2: b.imm, pc0: a.pc0}, true
		case uint8(vt.MulI):
			return fstep{op: c2MovIMulI, rd: a.rd, imm: a.imm, rb: b.rd, rc: b.ra, imm2: b.imm, pc0: a.pc0}, true
		case uint8(vt.MovRR):
			return fstep{op: c2MovIMov, rd: a.rd, imm: a.imm, rb: b.rd, rc: b.ra, pc0: a.pc0}, true
		case uint8(vt.MulWideU):
			return fstep{op: c2MovIMulwu, rd: a.rd, imm: a.imm, ra: b.rd, rb: b.rc, rc: b.ra, re: b.rb, pc0: a.pc0}, true
		case uLoad64:
			return fstep{op: c2MovILd64, rd: a.rd, imm: a.imm, rb: b.rd, rc: b.ra, imm2: b.imm, pc0: a.pc0}, true
		}
	case uStore64:
		switch b.op {
		case uint8(vt.MovRR):
			return fstep{op: cSt64Mov, ra: a.ra, rb: a.rb, imm: a.imm, rd: b.rd, rc: b.ra, pc0: a.pc0}, true
		case uLoad64:
			return fstep{op: cSt64Ld64, ra: a.ra, rb: a.rb, imm: a.imm, rd: b.rd, re: b.ra, imm2: b.imm, pc0: a.pc0}, true
		case uint8(vt.MovRI):
			return fstep{op: cSt64MovI, ra: a.ra, rb: a.rb, imm: a.imm, rd: b.rd, imm2: b.imm, pc0: a.pc0}, true
		case uStore64:
			return fstep{op: cSt64St64, ra: a.ra, rb: a.rb, imm: a.imm, rc: b.ra, re: b.rb, imm2: b.imm, pc0: a.pc0}, true
		}
	case uLoad64:
		switch b.op {
		case uint8(vt.MovRR):
			return fstep{op: cLd64Mov, rd: a.rd, ra: a.ra, imm: a.imm, rb: b.rd, rc: b.ra, pc0: a.pc0}, true
		case uint8(vt.SetCC):
			return fstep{op: cLd64Set, rd: a.rd, ra: a.ra, imm: a.imm, cond: b.cond, rb: b.rd, rc: b.ra, re: b.rb, pc0: a.pc0}, true
		case uLoad64:
			return fstep{op: cLd64Ld64, rd: a.rd, ra: a.ra, imm: a.imm, rb: b.rd, rc: b.ra, imm2: b.imm, pc0: a.pc0}, true
		case uint8(vt.AddI):
			return fstep{op: c2Ld64Lea, rd: a.rd, ra: a.ra, imm: a.imm, rb: b.rd, rc: b.ra, imm2: b.imm, pc0: a.pc0}, true
		}
	case uint8(vt.Add):
		switch b.op {
		case uStore64:
			return fstep{op: cAddSt64, rd: a.rd, ra: a.ra, rb: a.rb, rc: b.ra, re: b.rb, imm: b.imm, pc0: a.pc0}, true
		case uint8(vt.MovRI):
			return fstep{op: c2AddMovI, rd: a.rd, ra: a.ra, rb: a.rb, rc: b.rd, imm: b.imm, pc0: a.pc0}, true
		}
	case uint8(vt.SetCC):
		switch b.op {
		case uStore64:
			return fstep{op: cSetSt64, cond: a.cond, rd: a.rd, ra: a.ra, rb: a.rb, rc: b.ra, re: b.rb, imm: b.imm, pc0: a.pc0}, true
		case uint8(vt.SetCC):
			return fstep{op: t3SetSet, cond: a.cond, rd: a.rd, ra: a.ra, rb: a.rb, rc: b.rd, re: b.ra, rf: b.rb, rg: uint8(b.cond), pc0: a.pc0}, true
		}
	case uint8(vt.AddI):
		switch b.op {
		case uint8(vt.MovRR):
			return fstep{op: c2AddIMov, rd: a.rd, ra: a.ra, imm: a.imm, rb: b.rd, rc: b.ra, pc0: a.pc0}, true
		case uStore64:
			return fstep{op: c2LeaSt64, rd: a.rd, ra: a.ra, imm: a.imm, rb: b.ra, rc: b.rb, imm2: b.imm, pc0: a.pc0}, true
		}
	case uint8(vt.MulI):
		if b.op == uint8(vt.Add) {
			return fstep{op: c2MulIAdd, rd: a.rd, ra: a.ra, imm: a.imm, rb: b.rd, rc: b.ra, re: b.rb, pc0: a.pc0}, true
		}
	case uint8(vt.Xor):
		switch b.op {
		case uint8(vt.MovRR):
			return fstep{op: c2XorMov, rd: a.rd, ra: a.ra, rb: a.rb, rc: b.rd, re: b.ra, pc0: a.pc0}, true
		case uint8(vt.And):
			return fstep{op: t3XorAnd, rd: a.rd, ra: a.ra, rb: a.rb, rc: b.rd, re: b.ra, rf: b.rb, pc0: a.pc0}, true
		}
	case uint8(vt.And):
		if b.op == uint8(vt.MovRR) {
			return fstep{op: c2AndMov, rd: a.rd, ra: a.ra, rb: a.rb, rc: b.rd, re: b.ra, pc0: a.pc0}, true
		}
	case uint8(vt.Crc32):
		if b.op == uint8(vt.MovRI) {
			return fstep{op: c2CrcMovI, rd: a.rd, ra: a.ra, rb: a.rb, rc: b.rd, imm: b.imm, pc0: a.pc0}, true
		}
	case uint8(vt.MulWideU):
		if b.op == uint8(vt.Xor) {
			return fstep{op: t3MulwuXor, rd: a.rd, ra: a.rc, rb: a.ra, rc: a.rb, re: b.rd, rf: b.ra, rg: b.rb, pc0: a.pc0}, true
		}
	}
	return fstep{}, false
}

// guardRange is one base register's static footprint within a block:
// every guarded access off base lies in [R[base]+lo, R[base]+hi).
type guardRange struct {
	base uint8
	lo   int64
	hi   int64
}

// fprog is the fused view of a module.
type fprog struct {
	ins    []finstr
	steps  []fstep
	guards []guardRange
	// o2f maps an original instruction index to the fused index of the
	// block starting there, or -1 for non-leaders.
	o2f   []int32
	stats FuseStats
}

// SetFuse enables or disables the fused dispatch view. It is a test hook:
// every back-end leaves fusion on, and the differential tests switch it off to
// run the plain decoded-switch loop as the reference. The decoded program and
// code bytes are unaffected either way.
func (mod *Module) SetFuse(on bool) { mod.noFuse = !on }

// FuseEnabled reports whether fused dispatch is active for this module.
func (mod *Module) FuseEnabled() bool { return !mod.noFuse }

// FuseStats returns the fusion statistics for the module, building the
// fused view if it does not exist yet. The zero value is returned when
// fusion is disabled.
func (mod *Module) FuseStats() FuseStats {
	if fp := mod.fused(); fp != nil {
		return fp.stats
	}
	return FuseStats{}
}

// fused returns the module's fused program, building it on first use, or
// nil when fusion is disabled.
func (mod *Module) fused() *fprog {
	if mod.noFuse {
		return nil
	}
	mod.fuseOnce.Do(func() { mod.fp = fuse(mod) })
	return mod.fp
}

type patch struct {
	idx  int32 // finstr to patch
	orig int32 // original instruction index the target resolves through
}

type cloneReq struct {
	s, e     int
	guardIdx int32
}

// Operation classes, one table lookup where the builder's inner loops would
// otherwise call the vt.Op predicates per instruction: the access width of a
// memory operation in the low bits, flags above.
const (
	opSize     = 0x0F
	opRunnable = 0x20 // may live inside an xRun: no trap, no control transfer
	opIntDst   = 0x40 // writes integer register RD (MulWide: and RC)
	opMem      = 0x80
)

var opClass = func() (t [256]uint8) {
	for op := vt.Op(0); op < vt.NumOps; op++ {
		if sz, _, isMem := op.MemRef(); isMem {
			t[op] = opMem | sz
		}
		if !op.CanTrap() && !op.IsBranch() && !op.IsCall() && op != vt.Ret {
			t[op] |= opRunnable
		}
		t[op] |= opIntDst
	}
	for _, op := range []vt.Op{vt.Nop, vt.Store8, vt.Store16, vt.Store32, vt.Store64,
		vt.StoreU8, vt.StoreU16, vt.StoreU32, vt.StoreU64,
		vt.FStore, vt.FStoreU, vt.FLoad, vt.FLoadU, vt.FMovRR, vt.FMovRI,
		vt.FAdd, vt.FSub, vt.FMul, vt.FDiv, vt.CvtSI2F, vt.MovFR,
		vt.Br, vt.BrCC, vt.BrNZ, vt.Call, vt.CallInd, vt.CallRT,
		vt.Ret, vt.Trap, vt.TrapNZ} {
		t[op] &^= opIntDst
	}
	return t
}()

// markLeader flags a block leader in fuseBuilder.marks. The bits below it
// hold, for a memory access a block guard may cover, its root register + 1.
const markLeader = 0x80

// fuseBuilder is the fuser's working state. Everything in it is scratch that
// one builder owns and the next fuse call reuses (fusePool): the dense
// per-instruction marks, the growing outputs, the pending run and the block
// analysis tables. Nothing is allocated per block; the finished view is
// copied out once at exact size.
type fuseBuilder struct {
	mod    *Module
	instrs []vt.Instr
	marks  []uint8 // per instruction, and one past the end
	ins    []finstr
	steps  []fstep
	guards []guardRange
	patchB []patch // tgt <- o2f[orig]
	patchC []patch // imm2 <- o2f[orig] (call continuations)
	clones []cloneReq

	// The pending run of the block being encoded.
	run    []fstep
	runN   int // original instructions covered by run
	runMem int // guarded (unchecked) memory steps in run

	// Block analysis. covered has bit r set when the current block's guard
	// covers root register r: an access marked r+1 is then unchecked.
	covered uint32
	ranges  [32]guardRange
	span    [32]struct {
		lo, hi int64
		n      int // accesses folded into the span
	}
	droot [32]uint8 // derivation of register r: entry value of droot[r] ...
	doff  [32]int64 // ... plus doff[r]
}

var fusePool = sync.Pool{New: func() any { return &fuseBuilder{run: make([]fstep, 0, 256)} }}

// exact returns a copy of s with no spare capacity.
func exact[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// fuse builds the fused view of a loaded module.
func fuse(mod *Module) *fprog {
	n := len(mod.Prog.Instrs)
	fp := &fprog{o2f: make([]int32, n+1)}
	for i := range fp.o2f {
		fp.o2f[i] = -1
	}
	if n == 0 {
		return fp
	}
	b := fusePool.Get().(*fuseBuilder)
	b.build(mod, fp)
	fp.ins, fp.steps, fp.guards = exact(b.ins), exact(b.steps), exact(b.guards)
	b.mod, b.instrs = nil, nil
	fusePool.Put(b)

	cntFuseModules.Inc()
	cntFuseInstrs.Add(int64(n))
	cntFuseMicro.Add(int64(fp.stats.MicroOps))
	return fp
}

// build runs the pass: leaders, every block in original order (so
// fall-through between consecutive blocks needs no glue), the checked clones,
// the patches. It fills fp.o2f and fp.stats; the streams stay in b.
func (b *fuseBuilder) build(mod *Module, fp *fprog) {
	instrs := mod.Prog.Instrs
	n := len(instrs)
	b.mod, b.instrs = mod, instrs
	b.ins, b.steps, b.guards = b.ins[:0], b.steps[:0], b.guards[:0]
	b.patchB, b.patchC, b.clones = b.patchB[:0], b.patchC[:0], b.clones[:0]
	if cap(b.marks) < n+1 {
		b.marks = make([]uint8, n+1)
	}
	marks := b.marks[:n+1]
	clear(marks)

	// Leaders: block entry points. Besides the usual (branch/call targets,
	// fall-throughs after control transfers), any instruction offset
	// materialized as a constant is a leader so indirect calls always land
	// on a block entry.
	marks[0] = markLeader
	for k := range instrs {
		in := &instrs[k]
		switch in.Op {
		case vt.Br, vt.BrCC, vt.BrNZ, vt.Call:
			marks[mod.branchIdx[k]] = markLeader
			marks[k+1] = markLeader
		case vt.CallInd, vt.CallRT, vt.Ret, vt.Trap:
			marks[k+1] = markLeader
		case vt.MovRI, vt.MovZ:
			v := uint64(in.Imm)
			if in.Op == vt.MovZ {
				v, _ = movChain(instrs, k, n)
			}
			if v <= math.MaxInt32 {
				if t := mod.indexOf(int32(v)); t >= 0 {
					marks[t] = markLeader
				}
			}
		}
	}
	for i := range mod.unwind {
		if t := mod.indexOf(mod.unwind[i].Start); t >= 0 {
			marks[t] = markLeader
		}
	}

	for s := 0; s < n; {
		e, mems := s+1, int(opClass[instrs[s].Op]>>7)
		for ; e < n && marks[e]&markLeader == 0; e++ {
			mems += int(opClass[instrs[e].Op] >> 7)
		}
		fp.o2f[s] = int32(len(b.ins))
		// A guard pays for itself with two or more hoisted checks; a block
		// with fewer memory operations cannot have them and skips analysis.
		gidx := int32(-1)
		b.covered = 0
		if mems >= 2 {
			if ranges := b.analyzeBlock(s, e); len(ranges) == 1 {
				// Single-footprint block (the common case): the range
				// lives inline in the micro-op, no guard-table walk.
				gidx = b.emit(finstr{
					op: xGuard1, ra: ranges[0].base,
					imm: ranges[0].lo, imm2: ranges[0].hi, pc0: int32(s),
				})
			} else if len(ranges) > 1 {
				gidx = b.emit(finstr{op: xGuard, cnt: uint8(len(ranges)), imm: int64(len(b.guards)), pc0: int32(s)})
				b.guards = append(b.guards, ranges...)
			}
			if gidx >= 0 {
				b.clones = append(b.clones, cloneReq{s: s, e: e, guardIdx: gidx})
				fp.stats.GuardedBlocks++
			}
		}
		b.encodeBody(s, e)
		s = e
	}
	fp.stats.Instrs, fp.stats.MicroOps = n, len(b.ins)

	// Checked clones: guard slow paths made of checked singles, reproducing
	// unfused per-access checks (and therefore unfused trap attribution)
	// exactly.
	for _, c := range b.clones {
		b.ins[c.guardIdx].tgt = int32(len(b.ins))
		for k := c.s; k < c.e; k++ {
			b.emitSingle(k)
		}
		switch instrs[c.e-1].Op {
		case vt.Br, vt.Ret, vt.Trap, vt.Call, vt.CallInd:
			// Block exits on its own; no glue.
		default:
			if c.e < n {
				idx := b.emit(finstr{op: xJmp, pc0: int32(c.e)})
				b.patchB = append(b.patchB, patch{idx: idx, orig: int32(c.e)})
			}
		}
	}

	fp.stats.CloneOps = len(b.ins) - fp.stats.MicroOps

	for _, p := range b.patchB {
		b.ins[p.idx].tgt = fp.o2f[p.orig]
	}
	for _, p := range b.patchC {
		b.ins[p.idx].imm2 = int64(fp.o2f[p.orig])
	}
}

// movChain folds the MovZ at k and the MovK instructions on the same register
// that follow it (before end) into the constant they build, and returns it
// with the index one past the chain.
func movChain(instrs []vt.Instr, k, end int) (uint64, int) {
	in := &instrs[k]
	v := uint64(uint16(in.Imm)) << (16 * uint(in.Cond))
	j := k + 1
	for ; j < end && instrs[j].Op == vt.MovK && instrs[j].RD == in.RD; j++ {
		sh := 16 * uint(instrs[j].Cond)
		v = v&^(uint64(0xFFFF)<<sh) | uint64(uint16(instrs[j].Imm))<<sh
	}
	return v, j
}

// analyzeBlock finds the accesses of block [s,e) a guard may cover and their
// per-base-register footprint ranges. Base registers derived in-block from
// an entry register by MovRR/Lea/AddI/SubI chains are folded back to that
// root register plus a constant offset, so address-computation-then-load
// sequences (the dominant compiled-code idiom) stay guardable: the guard
// range on the root covers the derived access exactly because the chain is
// modular arithmetic on the root's entry value.
//
// Every candidate access is marked with its root. When the accepted ranges
// hold two or more candidates they are returned (first-use order, backed by
// b.ranges) and b.covered names their roots; otherwise nothing is covered.
func (b *fuseBuilder) analyzeBlock(s, e int) []guardRange {
	// Register r holds entry-value(droot[r])+doff[r] when derived has bit r,
	// its own entry value when not; a non-foldable write sets its bit in
	// lost instead. seen has the roots with a span, order lists them.
	const offCap = 1 << 33
	var derived, lost, seen uint32
	var order [32]uint8
	norder := 0
	for k := s; k < e; k++ {
		in := &b.instrs[k]
		ra := in.RA & 31
		root, off := ra, int64(0)
		if derived>>ra&1 != 0 {
			root, off = b.droot[ra], b.doff[ra]
		}
		cls := opClass[in.Op]
		if cls&opMem != 0 && lost>>ra&1 == 0 && in.Imm > -offCap && in.Imm < offCap {
			lo := off + in.Imm
			hi := lo + int64(cls&opSize)
			if sp := &b.span[root]; seen>>root&1 == 0 {
				sp.lo, sp.hi, sp.n = lo, hi, 1
				seen |= 1 << root
				order[norder] = root
				norder++
			} else {
				sp.lo, sp.hi = min(sp.lo, lo), max(sp.hi, hi)
				sp.n++
			}
			b.marks[k] |= root + 1
		}
		delta := in.Imm
		switch in.Op {
		case vt.MovRR:
			delta = 0
		case vt.SubI:
			delta = -delta
		case vt.Lea, vt.AddI:
		case vt.MulWideU, vt.MulWideS:
			lost |= 1<<in.RD | 1<<in.RC
			continue
		default:
			if cls&opIntDst != 0 {
				lost |= 1 << in.RD
			}
			continue
		}
		// RD now holds RA's derivation moved by delta (lost if RA's was).
		rd := in.RD & 31
		off += delta
		b.droot[rd], b.doff[rd] = root, off
		derived |= 1 << rd
		lost = lost&^(1<<rd) | lost>>ra&1<<rd
		if off <= -offCap || off >= offCap || delta <= -offCap || delta >= offCap {
			lost |= 1 << rd
		}
	}
	nr, ncand := 0, 0
	for _, base := range order[:norder] {
		// The guard's wrap reasoning requires a bounded footprint; huge or
		// overflowing spans keep their accesses individually checked.
		if sp := &b.span[base]; sp.hi >= sp.lo && sp.hi-sp.lo <= 1<<32 {
			b.ranges[nr] = guardRange{base: base, lo: sp.lo, hi: sp.hi}
			nr++
			ncand += sp.n
			b.covered |= 1 << base
		}
	}
	if ncand < 2 {
		b.covered = 0
		return nil
	}
	return b.ranges[:nr]
}

// guarded reports whether the access at k is covered by its block's guard.
func (b *fuseBuilder) guarded(k int) bool {
	r := b.marks[k] &^ markLeader
	return r != 0 && b.covered>>(r-1)&1 != 0
}

func (b *fuseBuilder) emit(fi finstr) int32 {
	b.ins = append(b.ins, fi)
	return int32(len(b.ins) - 1)
}

// emitSingle emits instruction k as a checked single micro-op: the fused
// engine's exact transliteration of one unfused dispatch.
func (b *fuseBuilder) emitSingle(k int) {
	in := &b.instrs[k]
	idx := b.emit(finstr{
		op: uint8(in.Op), n: 1, cond: in.Cond,
		rd: in.RD, ra: in.RA, rb: in.RB, rc: in.RC,
		imm: in.Imm, pc0: int32(k),
	})
	switch in.Op {
	case vt.Br, vt.BrCC, vt.BrNZ:
		b.patchB = append(b.patchB, patch{idx: idx, orig: b.mod.branchIdx[k]})
	case vt.Call:
		b.patchB = append(b.patchB, patch{idx: idx, orig: b.mod.branchIdx[k]})
		b.patchC = append(b.patchC, patch{idx: idx, orig: int32(k + 1)})
	case vt.CallInd:
		b.patchC = append(b.patchC, patch{idx: idx, orig: int32(k + 1)})
	}
}

// stepOf is instruction k as a run step.
func stepOf(in *vt.Instr, k int) fstep {
	return fstep{op: uint8(in.Op), cond: in.Cond, rd: in.RD, ra: in.RA, rb: in.RB, rc: in.RC, imm: in.Imm, pc0: int32(k)}
}

// push appends a step covering orig original instructions to the pending
// run, flushing first when the run's one-byte counts would overflow.
func (b *fuseBuilder) push(st fstep, orig int) {
	if len(b.run) >= 255 || b.runN+orig > 255 {
		b.flush()
	}
	b.run = append(b.run, st)
	b.runN += orig
	if st.op >= uLoad8 {
		b.runMem++
	}
}

// closeRun combines the pending steps and reports whether they are to become
// a run micro-op. One or two narrow steps cost more as a run (run dispatch +
// stepRun call) than as direct micro-ops: closeRun emits those into the main
// stream, the first carrying the whole run's instruction count, and reports
// false with nothing left pending.
func (b *fuseBuilder) closeRun() bool {
	b.run = combineSteps(b.run)
	if len(b.run) > 2 {
		return true
	}
	for i := range b.run {
		if b.run[i].op >= cWideFirst {
			return true
		}
	}
	nn := uint8(b.runN)
	for i := range b.run {
		st := &b.run[i]
		b.emit(finstr{
			op: st.op, n: nn, cond: st.cond,
			rd: st.rd, ra: st.ra, rb: st.rb, rc: st.rc, op1: st.re,
			imm: st.imm, imm2: st.imm2, pc0: st.pc0,
		})
		nn = 0
	}
	b.run, b.runN, b.runMem = b.run[:0], 0, 0
	return false
}

// flush drains the pending steps into the stream.
func (b *fuseBuilder) flush() { b.flushBr(xRun, 0) }

// flushBr drains the pending steps: inline when tiny (closeRun), else into
// the step array behind one run micro-op of kind xop. For xop other than xRun
// the run executes the block-terminating branch at k itself — one dispatch
// for body and branch. It reports false, leaving a branch to emitSingle, when
// nothing is pending, the branch's count has no headroom (the steps then stay
// pending) or the run went inline.
func (b *fuseBuilder) flushBr(xop uint8, k int) bool {
	if len(b.run) == 0 || xop != xRun && b.runN >= 255 || !b.closeRun() {
		return false
	}
	fi := finstr{
		op: xop, n: uint8(b.runN), cnt: uint8(len(b.run)),
		rc: uint8(b.runMem), imm: int64(len(b.steps)), pc0: b.run[0].pc0,
	}
	b.steps = append(b.steps, b.run...)
	if xop != xRun {
		in := &b.instrs[k]
		fi.n++
		fi.cond, fi.ra, fi.rb = in.Cond, in.RA, in.RB
		b.patchB = append(b.patchB, patch{idx: int32(len(b.ins)), orig: b.mod.branchIdx[k]})
	}
	b.emit(fi)
	b.run, b.runN, b.runMem = b.run[:0], 0, 0
	return true
}

// encodeBody encodes block [s,e) with every fusion applied: covered accesses
// unchecked, runs, folds, compare-and-branch.
func (b *fuseBuilder) encodeBody(s, e int) {
	instrs := b.instrs
	for k := s; k < e; {
		in := &instrs[k]
		op := in.Op
		cls := opClass[op]

		// Compare-and-branch fusion: SetCC feeding BrNZ on the result
		// register. The 0/1 result is still written, so register state
		// matches the unfused loop exactly. (An FCmp feeding BrNZ is a run
		// step and its branch an xRunBrNZ: one dispatch as well.)
		if op == vt.SetCC && k+1 < e && instrs[k+1].Op == vt.BrNZ && instrs[k+1].RA == in.RD {
			b.flush()
			idx := b.emit(finstr{
				op: xCmpBr, n: 2, cond: in.Cond,
				rd: in.RD, ra: in.RA, rb: in.RB, pc0: int32(k),
			})
			b.patchB = append(b.patchB, patch{idx: idx, orig: b.mod.branchIdx[k+1]})
			k += 2
			continue
		}

		// Immediate materialization: MovZ followed by MovK on the same
		// register folds into one constant store.
		if op == vt.MovZ && k+1 < e && instrs[k+1].Op == vt.MovK && instrs[k+1].RD == in.RD {
			v, j := movChain(instrs, k, e)
			b.push(fstep{op: uint8(vt.MovRI), rd: in.RD, imm: int64(v), pc0: int32(k)}, j-k)
			k = j
			continue
		}

		// Address chains: AddI/SubI/Lea accumulation on one register folds
		// into a single add (modular arithmetic makes the fold exact).
		if op == vt.AddI || op == vt.SubI || op == vt.Lea {
			acc := in.Imm
			if op == vt.SubI {
				acc = -in.Imm
			}
			j := k + 1
			for ; j < e; j++ {
				nx := &instrs[j]
				if nx.RA != in.RD || nx.RD != in.RD {
					break
				}
				if nx.Op == vt.AddI || nx.Op == vt.Lea {
					acc += nx.Imm
				} else if nx.Op == vt.SubI {
					acc -= nx.Imm
				} else {
					break
				}
			}
			if j > k+1 {
				b.push(fstep{op: uint8(vt.AddI), rd: in.RD, ra: in.RA, imm: acc, pc0: int32(k)}, j-k)
				k = j
				continue
			}
		}

		// Statically unchecked accesses take the same unchecked-step path
		// as guard-covered ones: the compile-time proof replaces the guard.
		if cls&opMem != 0 && (op.UncheckedMem() || b.guarded(k)) {
			// Bounds hoisted into the block guard: unchecked step.
			b.push(fstep{
				op: unchecked(op), cond: in.Cond,
				rd: in.RD, ra: in.RA, rb: in.RB, imm: in.Imm, pc0: int32(k),
			}, 1)
			k++
			continue
		}

		if cls&opRunnable != 0 {
			b.push(stepOf(in, k), 1)
			k++
			continue
		}

		// A block-terminating branch executes inline at the end of the
		// pending run (xRunBr* mirror Br, BrCC, BrNZ in order).
		if op.IsBranch() && b.flushBr(xRunBr+uint8(op-vt.Br), k) {
			k++
			continue
		}

		// Non-runnable: flush the pending run.
		b.flush()
		b.emitSingle(k)
		k++
	}
	b.flush()
}
