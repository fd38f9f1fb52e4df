// Package clift implements the Cranelift-like back-end studied in the
// paper: a compiler framework designed for fast compilation that is
// nonetheless outperformed 16x by the single-pass DirectEmit approach.
//
// The pipeline mirrors the phases of the paper's Figure 4:
//
//	IRGen       two-pass translation from QIR into CIR, mapping values
//	            through a hash map and lowering getelementptr, 128-bit
//	            values and aggregates to plain integer arithmetic
//	IRPasses    CFG/dominator-tree computation on the IR
//	ISelPrepare three passes over the IR: virtual-register assignment with
//	            register classes, side-effect partitioning, and a
//	            depth-first use-count analysis
//	ISel        tree-matching instruction selection into VCode
//	RegAlloc    live-range construction, bundle merging, and a linear-scan
//	            assignment tracking occupancy in per-register B-trees
//	Emit        clobber-scan, branch-size estimation, encoding
//	Link        relocation patching
//
// CIR itself follows Cranelift's data-structure choices: instructions are
// fixed-size entries in one flat array whose order is an array-backed linked
// list, blocks use block parameters instead of phis, and external function
// addresses are hard-wired into the IR.
package clift

import (
	"fmt"

	"qcc/internal/vt"
)

// Val is a CIR value id.
type Val = int32

// noVal marks absent operands.
const noVal Val = -1

// Op is a CIR operation. All integer values are 64-bit (the translator
// legalizes narrow and 128-bit QIR types); loads and stores carry their
// memory width.
type Op uint8

// CIR operations.
const (
	OpNop    Op = iota
	OpIconst    // Imm
	OpF64const
	OpFuncAddr // Aux = function index (relocated at link time)

	OpIadd
	OpIsub
	OpImul
	OpSdiv
	OpSrem
	OpUdiv
	OpUrem
	OpBand
	OpBor
	OpBxor
	OpIshl
	OpUshr
	OpSshr
	OpRotr
	OpBnot
	OpIneg
	OpUmulhi // high 64 bits of unsigned product (no-custom-mulwide path)
	OpSmulhi

	// Custom instructions added by the paper (Table II); translation
	// falls back to runtime helper calls when disabled.
	OpCrc32
	OpIaddOv // traps on signed overflow
	OpIsubOv
	OpImulOv
	OpMulWide // two results: lo, hi (unsigned)

	OpIcmp   // Aux = cond
	OpSelect // Args: cond, a, b

	OpLoad8U
	OpLoad8S
	OpLoad16S
	OpLoad32S
	OpLoad64
	OpStore8
	OpStore16
	OpStore32
	OpStore64
	OpFload
	OpFstore

	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFcmp // Aux = cond
	OpFcvtFromSint
	OpFcvtToSint
	OpBitcastIF // int -> float bits
	OpBitcastFI // float -> int bits

	// OpCallExt calls runtime function Aux with args in
	// Extra[ExtraAt:ExtraAt+NArgs]; up to two results.
	OpCallExt

	// Terminators. OpJump: Aux = target block, branch args in extra.
	// OpBrif: Aux = then-block, Imm = else-block; extra holds
	// [nthen, thenArgs..., nelse, elseArgs...] after the condition arg.
	OpJump
	OpBrif
	OpRet    // Args[0], Args[1] optional results
	OpTrap   // Imm = trap code
	OpTrapnz // Args[0], Imm = trap code

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpIconst: "iconst", OpF64const: "f64const", OpFuncAddr: "func_addr",
	OpIadd: "iadd", OpIsub: "isub", OpImul: "imul", OpSdiv: "sdiv", OpSrem: "srem",
	OpUdiv: "udiv", OpUrem: "urem", OpBand: "band", OpBor: "bor", OpBxor: "bxor",
	OpIshl: "ishl", OpUshr: "ushr", OpSshr: "sshr", OpRotr: "rotr", OpBnot: "bnot",
	OpIneg: "ineg", OpUmulhi: "umulhi", OpSmulhi: "smulhi",
	OpCrc32: "crc32", OpIaddOv: "iadd_ov", OpIsubOv: "isub_ov", OpImulOv: "imul_ov",
	OpMulWide: "mul_wide", OpIcmp: "icmp", OpSelect: "select",
	OpLoad8U: "uload8", OpLoad8S: "sload8", OpLoad16S: "sload16", OpLoad32S: "sload32",
	OpLoad64: "load", OpStore8: "istore8", OpStore16: "istore16", OpStore32: "istore32",
	OpStore64: "store", OpFload: "fload", OpFstore: "fstore",
	OpFadd: "fadd", OpFsub: "fsub", OpFmul: "fmul", OpFdiv: "fdiv", OpFcmp: "fcmp",
	OpFcvtFromSint: "fcvt_from_sint", OpFcvtToSint: "fcvt_to_sint",
	OpBitcastIF: "bitcast_if", OpBitcastFI: "bitcast_fi",
	OpCallExt: "call", OpJump: "jump", OpBrif: "brif", OpRet: "return",
	OpTrap: "trap", OpTrapnz: "trapnz",
}

func (o Op) String() string {
	if o < numOps && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("cirop(%d)", uint8(o))
}

// isTerminator reports whether the op ends a block.
func (o Op) isTerminator() bool {
	switch o {
	case OpJump, OpBrif, OpRet, OpTrap:
		return true
	}
	return false
}

// hasSideEffects reports operations the instruction selector must not
// duplicate, sink, or eliminate.
func (o Op) hasSideEffects() bool {
	switch o {
	case OpStore8, OpStore16, OpStore32, OpStore64, OpFstore,
		OpCallExt, OpJump, OpBrif, OpRet, OpTrap, OpTrapnz,
		OpIaddOv, OpIsubOv, OpImulOv,
		OpSdiv, OpSrem, OpUdiv, OpUrem,
		OpLoad8U, OpLoad8S, OpLoad16S, OpLoad32S, OpLoad64, OpFload:
		return true
	}
	return false
}

// Inst is one fixed-size CIR instruction.
type Inst struct {
	Op   Op
	Args [3]Val
	Imm  int64
	// Aux is the condition code on Icmp, the callee on calls — and on
	// memory operations the check-elimination flag (1 = lower to the
	// unchecked vt op).
	Aux     uint32
	Res     [2]Val
	ExtraAt int32
	NArgs   int32
}

// Block is one CIR basic block; instructions are linked through the
// function's Next/Prev arrays from Head to Tail.
type Block struct {
	Params     []Val
	Head, Tail int32
	Preds      []int32
}

// Func is one CIR function.
type Func struct {
	Name   string
	Insts  []Inst
	Next   []int32 // array-backed linked list: following instruction
	Prev   []int32
	Blocks []Block
	Extra  []Val

	// Per-value metadata (values are dense ids).
	ValClass []vt.RegClass
	ValDef   []int32 // defining instruction (-1 for block params)
	NumVals  int

	// Params are the function's entry block parameter values, one per
	// 64-bit register slot.
	Params []Val

	// Rets is the number of return values (0..2).
	Rets int
}

// newVal allocates a value id of the given class.
func (f *Func) newVal(class vt.RegClass, def int32) Val {
	v := Val(f.NumVals)
	f.NumVals++
	f.ValClass = append(f.ValClass, class)
	f.ValDef = append(f.ValDef, def)
	return v
}

// appendInst adds an instruction to the end of block b and returns its
// index.
func (f *Func) appendInst(b int32, in Inst) int32 {
	idx := int32(len(f.Insts))
	f.Insts = append(f.Insts, in)
	f.Next = append(f.Next, -1)
	f.Prev = append(f.Prev, -1)
	blk := &f.Blocks[b]
	if blk.Tail == -1 {
		blk.Head, blk.Tail = idx, idx
	} else {
		f.Next[blk.Tail] = idx
		f.Prev[idx] = blk.Tail
		blk.Tail = idx
	}
	return idx
}

// newBlock adds an empty block.
func (f *Func) newBlock() int32 {
	f.Blocks = append(f.Blocks, Block{Head: -1, Tail: -1})
	return int32(len(f.Blocks) - 1)
}

// addBlockParam declares a parameter value on block b.
func (f *Func) addBlockParam(b int32, class vt.RegClass) Val {
	v := f.newVal(class, -1)
	f.Blocks[b].Params = append(f.Blocks[b].Params, v)
	return v
}

// succs appends the successor blocks of block b's terminator.
func (f *Func) succs(b int32, dst []int32) []int32 {
	t := f.Blocks[b].Tail
	if t == -1 {
		return dst
	}
	in := &f.Insts[t]
	switch in.Op {
	case OpJump:
		return append(dst, int32(in.Aux))
	case OpBrif:
		return append(dst, int32(in.Aux), int32(in.Imm))
	}
	return dst
}

// forEachInst walks the instructions of block b in order.
func (f *Func) forEachInst(b int32, fn func(idx int32, in *Inst)) {
	for idx := f.Blocks[b].Head; idx != -1; idx = f.Next[idx] {
		fn(idx, &f.Insts[idx])
	}
}

// numResults returns how many results an instruction defines.
func (in *Inst) numResults() int {
	n := 0
	if in.Res[0] != noVal {
		n++
	}
	if in.Res[1] != noVal {
		n++
	}
	return n
}
