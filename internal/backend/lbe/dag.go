package lbe

import (
	"fmt"

	"qcc/internal/qir"
	"qcc/internal/sem"
	"qcc/internal/vt"
)

// selectionDAG is the graph-based instruction selector. For each lowered
// range (a whole block in optimized mode; fallback ranges in cheap mode) it
// builds a DAG of generic operation nodes, runs the combiner (with the
// recursive known-bits analysis the paper highlights as expensive),
// legalizes 128-bit and struct-typed nodes into 64-bit pairs, selects
// machine operations, and schedules the result into linear MIR.
type selectionDAG struct {
	*isel
	// Phase timings are accumulated by the engine through these counters.
	nodesBuilt int64
	kbQueries  int64
	// flags holds the overflow flag registers of expanded 128-bit
	// overflow intrinsics.
	flags map[*dnode]mreg
}

const (
	specNone uint8 = iota
	specCopyFromReg
	// specProj extracts one 64-bit half (imm = 0 lo, 1 hi) of a wide node
	// whose value materializes only at emission (loads, calls, wide
	// intrinsic results).
	specProj
)

// dnode is one DAG node.
type dnode struct {
	op      Opcode
	special uint8
	ty      *Type
	ops     []*dnode
	chain   *dnode
	pred    uint8
	imm     int64
	imm2    int64
	scale   int64
	rtid    uint32
	intr    IntrinsicID
	sym     int32
	thenB   int32
	elseB   int32
	vr      mval // copyFromReg source
	nuses   int

	// legalized halves for wide nodes.
	lo, hi *dnode

	// unchecked carries the LIR check-elimination mark for loads/stores.
	unchecked bool

	// emission state.
	visited bool
	res     mval
}

// lowerRange runs the full DAG pipeline over instrs [from, to) of block b.
func (dag *selectionDAG) lowerRange(b *Block, from, to int, mb int32) error {
	dag.cur = mb
	if dag.flags == nil {
		dag.flags = map[*dnode]mreg{}
	}
	nodes := map[*Instr]*dnode{}
	var order []*dnode
	var chain *dnode
	var roots []*dnode
	inRange := func(x *Instr) bool {
		if x.Block != b {
			return false
		}
		for i := from; i < to; i++ {
			if b.Instrs[i] == x {
				return true
			}
		}
		return false
	}

	// Phase 1: build.
	getOp := func(v *Instr) *dnode {
		if n, ok := nodes[v]; ok {
			return n
		}
		// External value: CopyFromReg leaf.
		n := &dnode{special: specCopyFromReg, ty: v.Typ, vr: dag.getVal(v)}
		nodes[v] = n
		order = append(order, n)
		dag.nodesBuilt++
		return n
	}
	for i := from; i < to; i++ {
		in := b.Instrs[i]
		if in.Op == LOpPhi {
			dag.lowerPhi(in)
			continue
		}
		n := &dnode{
			op: in.Op, ty: in.Typ, pred: in.Pred, imm: in.Imm, imm2: in.Imm2,
			scale: in.Scale, rtid: in.RTID, intr: in.Intr, unchecked: in.Unchecked,
		}
		if in.Op == LOpFuncAddr {
			n.sym = int32(in.Imm)
		}
		for _, op := range in.Ops {
			o := getOp(op)
			o.nuses++
			n.ops = append(n.ops, o)
		}
		if in.Then != nil {
			n.thenB = dag.blockID(in.Then)
		}
		if in.Else != nil {
			n.elseB = dag.blockID(in.Else)
		}
		if in.Op.HasSideEffects() || in.Op == LOpLoad {
			n.chain = chain
			chain = n
		}
		nodes[in] = n
		order = append(order, n)
		dag.nodesBuilt++
		// Values used outside the range are copied to their vregs.
		needCopy := false
		for _, u := range in.Uses {
			if !inRange(u) {
				needCopy = true
				break
			}
		}
		if needCopy && in.Typ != TVoid {
			roots = append(roots, n)
			n.nuses++
			// Ensure a stable vreg exists.
			dag.getVal(in)
		}
	}
	if chain != nil {
		roots = append(roots, chain)
	}

	// Phase 2: combine, iterated to a fixpoint (LLVM re-queues combined
	// nodes on a worklist until quiescent).
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			if dag.combine(n) {
				changed = true
			}
		}
	}

	// Phase 3: legalize wide nodes reachable from roots.
	for _, n := range order {
		if wideType(n.ty) || n.ty != nil && n.ty.Kind == KStruct {
			if err := dag.legalize(n); err != nil {
				return err
			}
		}
	}

	// Phase 4+5: select and schedule (DFS emission in dependency order).
	// Chained side effects first, then copies of externally-used values
	// into their stable vregs, and the terminator last.
	var term *dnode
	for i := from; i < to; i++ {
		in := b.Instrs[i]
		if in.Op == LOpPhi {
			continue
		}
		if in.Op.IsTerminator() {
			term = nodes[in]
		}
	}
	if chain != nil && chain != term {
		if err := dag.emitNode(chain); err != nil {
			return err
		}
	}
	for i := from; i < to; i++ {
		in := b.Instrs[i]
		if in.Op == LOpPhi || in.Op.IsTerminator() {
			continue
		}
		n := nodes[in]
		isRoot := false
		for _, r := range roots {
			if r == n && n.ty != TVoid {
				isRoot = true
				break
			}
		}
		if !isRoot {
			continue
		}
		if err := dag.emitNode(n); err != nil {
			return err
		}
		mv := dag.vals[in]
		if n.res.a != mv.a && n.res.a != mnone {
			if n.ty.Kind == KDouble {
				dag.emit3(vt.FMovRR, mv.a, n.res.a, mnone)
			} else {
				dag.emit3(vt.MovRR, mv.a, n.res.a, mnone)
			}
		}
		if mv.b != mnone && n.res.b != mv.b && n.res.b != mnone {
			dag.emit3(vt.MovRR, mv.b, n.res.b, mnone)
		}
	}
	if term != nil {
		if err := dag.emitNode(term); err != nil {
			return err
		}
	}
	return nil
}

// isConst reports a constant node and its value (≤64-bit only).
func isConst(n *dnode) (int64, bool) {
	if n.op == LOpConst && n.special == specNone && !wideType(n.ty) {
		return n.imm, true
	}
	return 0, false
}

// combine applies local simplifications and reports whether the node
// changed; the recursive known-bits analysis backs the demanded-bits rules
// and runs for every integer operation, as in LLVM's combiner.
func (dag *selectionDAG) combine(n *dnode) bool {
	if n.special != specNone {
		return false
	}
	switch n.op {
	case LOpAdd, LOpSub, LOpMul, LOpAnd, LOpOr, LOpXor, LOpShl, LOpLShr, LOpAShr:
		if len(n.ops) != 2 || wideType(n.ty) {
			return false
		}
		dag.knownBits(n, 0)
		a, aok := isConst(n.ops[0])
		b, bok := isConst(n.ops[1])
		if aok && bok {
			n.op, n.imm, n.ops = LOpConst, fold(n.op, n.ty, a, b), nil
			return true
		}
		if bok {
			switch {
			case b == 0 && (n.op == LOpAdd || n.op == LOpSub || n.op == LOpOr ||
				n.op == LOpXor || n.op == LOpShl || n.op == LOpLShr || n.op == LOpAShr):
				*n = *n.ops[0]
				return true
			case b == 1 && n.op == LOpMul:
				*n = *n.ops[0]
				return true
			case n.op == LOpAnd:
				// Known-bits: drop masks that clear only bits already
				// known to be zero.
				zeros, _ := dag.knownBits(n.ops[0], 0)
				if ^zeros&^uint64(b) == 0 {
					*n = *n.ops[0]
					return true
				}
			}
		}
		// Reassociate add(add(x, c1), c2).
		if n.op == LOpAdd && bok {
			inner := n.ops[0]
			if inner.op == LOpAdd && len(inner.ops) == 2 {
				if c1, ok := isConst(inner.ops[1]); ok {
					n.ops[0] = inner.ops[0]
					n.ops[1] = &dnode{op: LOpConst, ty: n.ty, imm: c1 + b}
					return true
				}
			}
		}
	case LOpICmp:
		a, aok := isConst(n.ops[0])
		b, bok := isConst(n.ops[1])
		if aok && bok {
			n.op, n.ty, n.imm, n.ops = LOpConst, TI1, foldCmp(n.pred, a, b), nil
			return true
		}
	case LOpSelect:
		if c, ok := isConst(n.ops[0]); ok {
			if c != 0 {
				*n = *n.ops[1]
			} else {
				*n = *n.ops[2]
			}
			return true
		}
	case LOpZExt, LOpSExt:
		// zext(const)/sext(const) folding.
		if c, ok := isConst(n.ops[0]); ok && !wideType(n.ty) {
			if n.op == LOpZExt {
				c = int64(sem.ZExt(semType(n.ops[0].ty), uint64(c)))
			}
			n.op = LOpConst
			n.imm = c
			n.ops = nil
			return true
		}
	}
	return false
}

// semOps maps each opcode the combiners fold to the QIR operation it
// implements, whose meaning internal/sem defines.
var semOps = [...]qir.Op{
	LOpAdd: qir.OpAdd, LOpSub: qir.OpSub, LOpMul: qir.OpMul, LOpAnd: qir.OpAnd, LOpOr: qir.OpOr,
	LOpXor: qir.OpXor, LOpShl: qir.OpShl, LOpLShr: qir.OpShr, LOpAShr: qir.OpSar,
}

// fold evaluates a foldable operation on constant operands of type t.
func fold(op Opcode, t *Type, a, b int64) int64 {
	r, _, _ := sem.Eval(semOps[op], semType(t), uint64(a), uint64(b))
	return int64(r)
}

// foldCmp evaluates an integer comparison of constants to 0 or 1.
func foldCmp(pred uint8, a, b int64) int64 {
	if sem.ICmp(qir.Cmp(pred), uint64(a), uint64(b)) {
		return 1
	}
	return 0
}

// semType is the QIR type of a scalar LIR type; a pointer is a word.
func semType(t *Type) qir.Type {
	switch t.Bits {
	case 1:
		return qir.I1
	case 8:
		return qir.I8
	case 16:
		return qir.I16
	case 32:
		return qir.I32
	}
	return qir.I64
}

// knownBits computes which bits of a node are known zero/one, by recursive
// traversal (the analysis the paper identifies as a substantial part of
// DAG-combine time).
func (dag *selectionDAG) knownBits(n *dnode, depth int) (zeros, ones uint64) {
	dag.kbQueries++
	if depth > 6 || n.ty == nil || n.ty.Kind != KInt || n.ty.Bits > 64 {
		return 0, 0
	}
	switch {
	case n.op == LOpConst && n.special == specNone:
		return ^uint64(n.imm), uint64(n.imm)
	case n.special != specNone:
		return 0, 0
	}
	switch n.op {
	case LOpAnd:
		z0, o0 := dag.knownBits(n.ops[0], depth+1)
		z1, o1 := dag.knownBits(n.ops[1], depth+1)
		return z0 | z1, o0 & o1
	case LOpOr:
		z0, o0 := dag.knownBits(n.ops[0], depth+1)
		z1, o1 := dag.knownBits(n.ops[1], depth+1)
		return z0 & z1, o0 | o1
	case LOpXor:
		z0, o0 := dag.knownBits(n.ops[0], depth+1)
		z1, o1 := dag.knownBits(n.ops[1], depth+1)
		return z0&z1 | o0&o1, z0&o1 | o0&z1
	case LOpZExt:
		src := n.ops[0]
		z, o := dag.knownBits(src, depth+1)
		hiMask := ^sem.ZExt(semType(src.ty), ^uint64(0))
		return z&^hiMask | hiMask, o &^ hiMask
	case LOpShl:
		if c, ok := isConst(n.ops[1]); ok {
			z, o := dag.knownBits(n.ops[0], depth+1)
			sh := uint(c) & 63
			return z<<sh | (1<<sh - 1), o << sh
		}
	case LOpLShr:
		if c, ok := isConst(n.ops[1]); ok {
			z, o := dag.knownBits(n.ops[0], depth+1)
			sh := uint(c) & 63
			return z>>sh | ^(^uint64(0) >> sh), o >> sh
		}
	case LOpICmp:
		return ^uint64(1), 0
	}
	return 0, 0
}

func dnodeBin(op Opcode, t *Type, a, b *dnode) *dnode {
	return &dnode{op: op, ty: t, ops: []*dnode{a, b}}
}

func dnodeCmp(p vt.Cond, a, b *dnode) *dnode {
	return &dnode{op: LOpICmp, ty: TI1, pred: uint8(p), ops: []*dnode{a, b}}
}

func dconst(t *Type, v int64) *dnode { return &dnode{op: LOpConst, ty: t, imm: v} }

// legalize expands a wide node into lo/hi 64-bit generic nodes.
func (dag *selectionDAG) legalize(n *dnode) error {
	if n.lo != nil || n.ty == nil {
		return nil
	}
	if !wideType(n.ty) {
		return nil
	}
	switch {
	case n.special == specCopyFromReg:
		n.lo = &dnode{special: specCopyFromReg, ty: TI64, vr: mval{a: n.vr.a, b: mnone}}
		n.hi = &dnode{special: specCopyFromReg, ty: TI64, vr: mval{a: n.vr.b, b: mnone}}
		return nil
	}
	switch n.op {
	case LOpConst:
		if n.ty.Kind == KStruct {
			// Undef aggregate shell (insertvalue fills it).
			n.lo = dconst(TI64, 0)
			n.hi = dconst(TI64, 0)
			return nil
		}
		n.lo = dconst(TI64, n.imm)
		n.hi = dconst(TI64, n.imm2)
	case LOpAdd, LOpSub:
		alo, ahi, err := dag.pairOps(n)
		if err != nil {
			return err
		}
		blo, bhi := n.ops[1].lo, n.ops[1].hi
		if n.op == LOpAdd {
			lo := dnodeBin(LOpAdd, TI64, alo, blo)
			carry := dnodeCmp(vt.CondULT, lo, alo)
			carryExt := &dnode{op: LOpZExt, ty: TI64, ops: []*dnode{carry}}
			hi := dnodeBin(LOpAdd, TI64, dnodeBin(LOpAdd, TI64, ahi, bhi), carryExt)
			n.lo, n.hi = lo, hi
		} else {
			borrow := dnodeCmp(vt.CondULT, alo, blo)
			borrowExt := &dnode{op: LOpZExt, ty: TI64, ops: []*dnode{borrow}}
			lo := dnodeBin(LOpSub, TI64, alo, blo)
			hi := dnodeBin(LOpSub, TI64, dnodeBin(LOpSub, TI64, ahi, bhi), borrowExt)
			n.lo, n.hi = lo, hi
		}
	case LOpMul:
		alo, ahi, err := dag.pairOps(n)
		if err != nil {
			return err
		}
		blo, bhi := n.ops[1].lo, n.ops[1].hi
		mw := &dnode{op: LOpIntrinsic, intr: intrMulWide, ty: TPair, ops: []*dnode{alo, blo}}
		lo := &dnode{op: LOpExtractVal, ty: TI64, imm: 0, ops: []*dnode{mw}}
		hi0 := &dnode{op: LOpExtractVal, ty: TI64, imm: 1, ops: []*dnode{mw}}
		cross1 := dnodeBin(LOpMul, TI64, alo, bhi)
		cross2 := dnodeBin(LOpMul, TI64, ahi, blo)
		hi := dnodeBin(LOpAdd, TI64, dnodeBin(LOpAdd, TI64, hi0, cross1), cross2)
		n.lo, n.hi = lo, hi
	case LOpAnd, LOpOr, LOpXor:
		alo, ahi, err := dag.pairOps(n)
		if err != nil {
			return err
		}
		blo, bhi := n.ops[1].lo, n.ops[1].hi
		n.lo = dnodeBin(n.op, TI64, alo, blo)
		n.hi = dnodeBin(n.op, TI64, ahi, bhi)
	case LOpShl, LOpLShr, LOpAShr:
		if err := dag.legalizeOperand(n.ops[0]); err != nil {
			return err
		}
		if k, ok := constShift(n.ops[1]); ok {
			lo, hi := legalShift(n.op, n.ops[0].lo, n.ops[0].hi, k)
			n.lo, n.hi = lo, hi
			return nil
		}
		// Dynamic amount: branch-free expansion over selects.
		var amt *dnode
		if wideType(n.ops[1].ty) {
			if err := dag.legalizeOperand(n.ops[1]); err != nil {
				return err
			}
			amt = n.ops[1].lo
		} else {
			amt = n.ops[1]
		}
		n.lo, n.hi = dynShift128(n.op, n.ops[0].lo, n.ops[0].hi, amt)
	case LOpZExt:
		n.lo = n.ops[0]
		if n.ops[0].ty.Bits < 64 {
			n.lo = &dnode{op: LOpZExt, ty: TI64, ops: []*dnode{n.ops[0]}}
		}
		n.hi = dconst(TI64, 0)
	case LOpSExt:
		n.lo = n.ops[0]
		n.hi = dnodeBin(LOpAShr, TI64, n.ops[0], dconst(TI64, 63))
	case LOpSelect:
		if err := dag.legalizeOperand(n.ops[1]); err != nil {
			return err
		}
		if err := dag.legalizeOperand(n.ops[2]); err != nil {
			return err
		}
		c := n.ops[0]
		n.lo = &dnode{op: LOpSelect, ty: TI64, ops: []*dnode{c, n.ops[1].lo, n.ops[2].lo}}
		n.hi = &dnode{op: LOpSelect, ty: TI64, ops: []*dnode{c, n.ops[1].hi, n.ops[2].hi}}
	case LOpLoad, LOpCallRT, LOpExtractVal:
		// These materialize their pair at emission; consumers reference
		// the halves through projection nodes.
		n.lo = &dnode{special: specProj, ty: TI64, ops: []*dnode{n}, imm: 0}
		n.hi = &dnode{special: specProj, ty: TI64, ops: []*dnode{n}, imm: 1}
		return nil
	case LOpICmp:
		return nil // handled in emitNode via operand pairs
	case LOpInsertVal:
		if err := dag.legalizeOperand(n.ops[0]); err != nil {
			return err
		}
		if n.imm == 0 {
			n.lo, n.hi = n.ops[1], n.ops[0].hi
		} else {
			n.lo, n.hi = n.ops[0].lo, n.ops[1]
		}
	case LOpBuildPair:
		n.lo, n.hi = n.ops[0], n.ops[1]
	case LOpIntrinsic:
		return nil // overflow intrinsics handled in emitNode
	case LOpTrunc, LOpPhi:
		return nil // handled in emitNode
	default:
		return fmt.Errorf("lbe: cannot legalize wide %s", n.op)
	}
	return nil
}

// intrMulWide is an internal post-legalization intrinsic: full 64x64
// multiplication producing {lo, hi}.
const intrMulWide = IntrinsicID(200)

func (dag *selectionDAG) pairOps(n *dnode) (alo, ahi *dnode, err error) {
	if err := dag.legalizeOperand(n.ops[0]); err != nil {
		return nil, nil, err
	}
	if err := dag.legalizeOperand(n.ops[1]); err != nil {
		return nil, nil, err
	}
	return n.ops[0].lo, n.ops[0].hi, nil
}

func (dag *selectionDAG) legalizeOperand(n *dnode) error {
	if n.lo != nil || !wideType(n.ty) {
		return nil
	}
	return dag.legalize(n)
}

func constShift(n *dnode) (uint, bool) {
	if n.op == LOpConst && n.special == specNone {
		return uint(n.imm) & 127, true
	}
	return 0, false
}

// dynShift128 expands a 128-bit shift by a runtime amount n (0..127) into
// branch-free 64-bit nodes. The double-shift `(x<<1)<<(63-n)` computes
// x<<(64-n) correctly for n==0 under the target's shift-count masking.
func dynShift128(op Opcode, alo, ahi, amt *dnode) (*dnode, *dnode) {
	c := func(v int64) *dnode { return dconst(TI64, v) }
	b := func(o Opcode, x, y *dnode) *dnode { return dnodeBin(o, TI64, x, y) }
	sel := func(cond, x, y *dnode) *dnode {
		return &dnode{op: LOpSelect, ty: TI64, ops: []*dnode{cond, x, y}}
	}
	n := b(LOpAnd, amt, c(127))
	big := dnodeCmp(vt.CondUGE, n, c(64)) // n >= 64
	nm := b(LOpAnd, n, c(63))
	inv := b(LOpSub, c(63), nm)
	nBig := b(LOpSub, n, c(64))
	switch op {
	case LOpLShr:
		loS := b(LOpOr, b(LOpLShr, alo, nm), b(LOpShl, b(LOpShl, ahi, c(1)), inv))
		hiS := b(LOpLShr, ahi, nm)
		loB := b(LOpLShr, ahi, nBig)
		return sel(big, loB, loS), sel(big, c(0), hiS)
	case LOpAShr:
		loS := b(LOpOr, b(LOpLShr, alo, nm), b(LOpShl, b(LOpShl, ahi, c(1)), inv))
		hiS := b(LOpAShr, ahi, nm)
		loB := b(LOpAShr, ahi, nBig)
		hiB := b(LOpAShr, ahi, c(63))
		return sel(big, loB, loS), sel(big, hiB, hiS)
	default: // LOpShl
		hiS := b(LOpOr, b(LOpShl, ahi, nm), b(LOpLShr, b(LOpLShr, alo, c(1)), inv))
		loS := b(LOpShl, alo, nm)
		hiB := b(LOpShl, alo, nBig)
		return sel(big, c(0), loS), sel(big, hiB, hiS)
	}
}

// legalShift builds the narrow nodes of a constant 128-bit shift.
func legalShift(op Opcode, alo, ahi *dnode, k uint) (*dnode, *dnode) {
	c := func(v int64) *dnode { return dconst(TI64, v) }
	switch {
	case k == 0:
		return alo, ahi
	case op == LOpLShr && k == 64:
		return ahi, c(0)
	case op == LOpAShr && k == 64:
		return ahi, dnodeBin(LOpAShr, TI64, ahi, c(63))
	case op == LOpShl && k == 64:
		return c(0), alo
	case op == LOpShl && k < 64:
		hi := dnodeBin(LOpOr, TI64,
			dnodeBin(LOpShl, TI64, ahi, c(int64(k))),
			dnodeBin(LOpLShr, TI64, alo, c(int64(64-k))))
		return dnodeBin(LOpShl, TI64, alo, c(int64(k))), hi
	case k < 64:
		lo := dnodeBin(LOpOr, TI64,
			dnodeBin(LOpLShr, TI64, alo, c(int64(k))),
			dnodeBin(LOpShl, TI64, ahi, c(int64(64-k))))
		sh := LOpLShr
		if op == LOpAShr {
			sh = LOpAShr
		}
		return lo, dnodeBin(sh, TI64, ahi, c(int64(k)))
	case op == LOpShl:
		return c(0), dnodeBin(LOpShl, TI64, alo, c(int64(k-64)))
	case op == LOpLShr:
		return dnodeBin(LOpLShr, TI64, ahi, c(int64(k-64))), c(0)
	default:
		return dnodeBin(LOpAShr, TI64, ahi, c(int64(k-64))),
			dnodeBin(LOpAShr, TI64, ahi, c(63))
	}
}
