package vm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"qcc/internal/vt"
)

// Test-only windows onto the fused view for the external tests in this
// directory (loadfuse_test.go), which compile real plans through the
// back-ends and so cannot live inside the package.

// Refuse builds mod's fused view from scratch, past fuseOnce, and returns its
// statistics: one fuse call per invocation, for benchmarks and allocation
// counts.
func Refuse(mod *Module) FuseStats { return fuse(mod).stats }

// CheckFused runs the structural verifier over mod's fused view.
func CheckFused(mod *Module) error { return mod.fused().check() }

// FusedDigest fingerprints everything the dispatcher reads of mod's fused
// view: every field of every micro-op, step and guard range, the
// leader-to-micro-op map and the statistics.
func FusedDigest(mod *Module) string {
	fp := mod.fused()
	var b []byte
	u32 := func(v int32) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	u64 := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	u64(int64(len(fp.ins)))
	for i := range fp.ins {
		in := &fp.ins[i]
		b = append(b, in.op, in.n, in.cnt, in.rc, in.rd, in.ra, in.rb, uint8(in.cond), in.op1)
		u32(in.pc0)
		u32(in.tgt)
		u64(in.imm)
		u64(in.imm2)
	}
	u64(int64(len(fp.steps)))
	for i := range fp.steps {
		s := &fp.steps[i]
		b = append(b, s.op, s.rd, s.ra, s.rb, s.rc, s.re, s.rf, s.rg, uint8(s.cond))
		u32(s.pc0)
		u64(s.imm)
		u64(s.imm2)
	}
	u64(int64(len(fp.guards)))
	for _, g := range fp.guards {
		b = append(b, g.base)
		u64(g.lo)
		u64(g.hi)
	}
	u64(int64(len(fp.o2f)))
	for _, f := range fp.o2f {
		u32(f)
	}
	for _, v := range []int{fp.stats.Instrs, fp.stats.MicroOps, fp.stats.CloneOps, fp.stats.GuardedBlocks} {
		u64(int64(v))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:24]
}

// The combined step opcodes are [CombinedFirst, CombinedEnd); from RunOnlyFirst
// on they have no main-stream case in runFused.
const (
	CombinedFirst = cMovSt64
	RunOnlyFirst  = cWideFirst
	CombinedEnd   = xGuard
)

// Census adds the run steps and the micro-ops of mod's fused view to steps and
// main, by opcode.
func Census(mod *Module, steps, main *[256]int) {
	fp := mod.fused()
	for i := range fp.steps {
		steps[fp.steps[i].op]++
	}
	for i := range fp.ins {
		main[fp.ins[i].op]++
	}
}

// CheckWithOp is the structural verifier's verdict on mod's fused view with
// the opcode of micro-op i replaced by op.
func CheckWithOp(mod *Module, i int, op uint8) error {
	fp := *mod.fused()
	fp.ins = append([]finstr(nil), fp.ins...)
	fp.ins[i].op = op
	return fp.check()
}

// check verifies what runFused takes on trust from the builder: every branch,
// guard-fail and call-continuation patch resolved to a micro-op index in
// range, every run's step range and every guard's range table inside their
// arrays, no run-only step in the main stream, and the primary stream covering
// each decoded instruction once.
func (fp *fprog) check() error {
	n := len(fp.o2f) - 1
	nins, primary := int32(len(fp.ins)), int32(fp.stats.MicroOps)
	if n <= 0 {
		if nins != 0 {
			return fmt.Errorf("%d micro-ops for an empty program", nins)
		}
		return nil
	}
	if fp.stats.Instrs != n || int(primary)+fp.stats.CloneOps != int(nins) {
		return fmt.Errorf("stats %+v over %d instructions, %d micro-ops", fp.stats, n, nins)
	}
	last := int32(-1)
	for k, f := range fp.o2f {
		if f < 0 {
			continue
		}
		if k == n || f >= primary || f < last {
			return fmt.Errorf("o2f[%d] = %d (primary stream %d, previous leader at %d)", k, f, primary, last)
		}
		last = f
	}
	inIns := func(t int32) bool { return t >= 0 && t < nins }
	covered := 0
	for i := range fp.ins {
		in := &fp.ins[i]
		bad := func(what string) error {
			return fmt.Errorf("micro-op %d (op %d, pc0 %d): %s", i, in.op, in.pc0, what)
		}
		if int32(i) < primary {
			covered += int(in.n)
		}
		if in.pc0 < 0 || int(in.pc0) >= n {
			return bad("pc0 out of range")
		}
		if in.op >= cWideFirst && in.op < xGuard {
			return bad("run-only step in the main stream")
		}
		switch op := in.op; {
		case op == uint8(vt.Br), op == uint8(vt.BrCC), op == uint8(vt.BrNZ),
			op == xCmpBr, op == xJmp:
			if !inIns(in.tgt) || in.tgt >= primary {
				return bad(fmt.Sprintf("branch target %d", in.tgt))
			}
		case op == uint8(vt.Call), op == uint8(vt.CallInd):
			if op == uint8(vt.Call) && (!inIns(in.tgt) || in.tgt >= primary) {
				return bad(fmt.Sprintf("call target %d", in.tgt))
			}
			// A call in the last slot has nowhere to return to; both loops
			// fault alike when it does.
			if c := int32(in.imm2); !(inIns(c) && c < primary) && !(c == -1 && int(in.pc0) == n-1) {
				return bad(fmt.Sprintf("call continuation %d", in.imm2))
			}
		case op == xGuard, op == xGuard1:
			if in.tgt < primary || !inIns(in.tgt) {
				return bad(fmt.Sprintf("guard-fail target %d", in.tgt))
			}
			if op == xGuard && (in.cnt < 2 || in.imm < 0 || in.imm+int64(in.cnt) > int64(len(fp.guards))) {
				return bad(fmt.Sprintf("guard ranges [%d,+%d) of %d", in.imm, in.cnt, len(fp.guards)))
			}
		case op >= xRun && op <= xRunBrNZ:
			if in.cnt == 0 || in.imm < 0 || in.imm+int64(in.cnt) > int64(len(fp.steps)) {
				return bad(fmt.Sprintf("run steps [%d,+%d) of %d", in.imm, in.cnt, len(fp.steps)))
			}
			if op != xRun && (!inIns(in.tgt) || in.tgt >= primary) {
				return bad(fmt.Sprintf("run branch target %d", in.tgt))
			}
		}
	}
	if covered != n {
		return fmt.Errorf("primary stream covers %d of %d instructions", covered, n)
	}
	return nil
}
