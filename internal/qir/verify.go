package qir

import "fmt"

// Verify checks structural and SSA invariants of a function:
//
//   - every block ends in exactly one terminator and has no terminator
//     mid-block;
//   - phis form a prefix of their block's instruction list and have exactly
//     one incoming value per predecessor;
//   - every operand is defined in a block that dominates the use (for phis,
//     the incoming value's definition must dominate the predecessor);
//   - operand and result types are consistent;
//   - params appear only at the head of the entry block;
//   - CFG edges and Preds lists agree.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	defBlock := make([]BlockID, len(f.Instrs))
	defPos := make([]int32, len(f.Instrs)) // position within the block list
	for i := range defBlock {
		defBlock[i] = -1
	}
	for b := range f.Blocks {
		for i, v := range f.Blocks[b].List {
			if v < 0 || int(v) >= len(f.Instrs) {
				return fmt.Errorf("%s b%d: bad instruction id %d", f.Name, b, v)
			}
			if defBlock[v] != -1 {
				return fmt.Errorf("%s: instruction %d listed twice", f.Name, v)
			}
			defBlock[v] = BlockID(b)
			defPos[v] = int32(i)
		}
	}

	// Terminator payloads. Branch targets live in Aux (and in B for the
	// false arm of OpCondBr); they must name valid blocks before the CFG
	// walk below dereferences them.
	for b := range f.Blocks {
		t := f.Blocks[b].Terminator()
		if t == NoValue {
			continue
		}
		in := &f.Instrs[t]
		switch in.Op {
		case OpBr:
			if int(in.Aux) >= len(f.Blocks) {
				return fmt.Errorf("%s b%d: br target %d is not a block id (%d blocks)",
					f.Name, b, in.Aux, len(f.Blocks))
			}
		case OpCondBr:
			if int(in.Aux) >= len(f.Blocks) {
				return fmt.Errorf("%s b%d: condbr true-successor %d is not a block id (%d blocks)",
					f.Name, b, in.Aux, len(f.Blocks))
			}
			if in.B < 0 || int(in.B) >= len(f.Blocks) {
				return fmt.Errorf("%s b%d: condbr false-successor %d is not a block id (%d blocks)",
					f.Name, b, in.B, len(f.Blocks))
			}
		}
	}

	// CFG edge consistency.
	predCount := make(map[[2]BlockID]int)
	var succBuf []BlockID
	for b := range f.Blocks {
		succBuf = f.Succs(BlockID(b), succBuf[:0])
		for _, s := range succBuf {
			if s < 0 || int(s) >= len(f.Blocks) {
				return fmt.Errorf("%s b%d: branch to invalid block %d", f.Name, b, s)
			}
			predCount[[2]BlockID{BlockID(b), s}]++
		}
	}
	for b := range f.Blocks {
		for _, p := range f.Blocks[b].Preds {
			key := [2]BlockID{p, BlockID(b)}
			if predCount[key] == 0 {
				return fmt.Errorf("%s b%d: pred b%d has no matching edge", f.Name, b, p)
			}
			predCount[key]--
		}
	}
	for k, c := range predCount {
		if c > 0 {
			return fmt.Errorf("%s: edge b%d->b%d missing from Preds", f.Name, k[0], k[1])
		}
	}

	// Block structure.
	for b := range f.Blocks {
		blk := &f.Blocks[b]
		if len(blk.List) == 0 {
			return fmt.Errorf("%s b%d: empty block", f.Name, b)
		}
		phiDone := false
		for i, v := range blk.List {
			in := &f.Instrs[v]
			isLast := i == len(blk.List)-1
			if in.Op.IsTerminator() != isLast {
				return fmt.Errorf("%s b%d: misplaced terminator at %d (%s)", f.Name, b, v, in.Op)
			}
			switch in.Op {
			case OpPhi:
				if b == 0 {
					// The entry block has no predecessors, so a phi there
					// has nothing to select between.
					return fmt.Errorf("%s: phi %d in entry block", f.Name, v)
				}
				if phiDone {
					return fmt.Errorf("%s b%d: phi %d after non-phi", f.Name, b, v)
				}
				pairs := f.PhiPairs(v)
				if len(pairs) != 2*len(blk.Preds) {
					return fmt.Errorf("%s b%d: phi %d has %d pairs, block has %d preds",
						f.Name, b, v, len(pairs)/2, len(blk.Preds))
				}
			case OpParam:
				if b != 0 || Value(i) != v || int(in.Aux) != i {
					return fmt.Errorf("%s: param %d not at entry head", f.Name, v)
				}
			default:
				phiDone = true
			}
		}
	}

	// Type and dominance checks.
	dom := f.Dominators()
	var ops []Value
	for b := range f.Blocks {
		for _, v := range f.Blocks[b].List {
			in := &f.Instrs[v]
			if in.Op == OpPhi {
				pairs := f.PhiPairs(v)
				for i := 0; i < len(pairs); i += 2 {
					pred, val := pairs[i], pairs[i+1]
					if val == NoValue {
						continue
					}
					if val < 0 || int(val) >= len(f.Instrs) {
						return fmt.Errorf("%s: phi %d uses invalid value %d", f.Name, v, val)
					}
					db := defBlock[val]
					if db == -1 {
						return fmt.Errorf("%s: phi %d uses unlisted value %d", f.Name, v, val)
					}
					// A phi may name itself (or any value of its own block)
					// only through a back edge: the phi's block must
					// dominate the predecessor. Through an unreachable pred
					// no dominance justification exists at all, so a
					// self-reference there is always malformed.
					if val == v && !dom.Dominates(BlockID(b), pred) {
						return fmt.Errorf("%s: phi %d references itself through non-back-edge pred b%d",
							f.Name, v, pred)
					}
					if dom.Num[pred] >= 0 && !dom.Dominates(db, pred) {
						return fmt.Errorf("%s: phi %d incoming %d does not dominate pred b%d",
							f.Name, v, val, pred)
					}
				}
				continue
			}
			ops = f.Operands(v, ops[:0])
			for _, u := range ops {
				if u < 0 || int(u) >= len(f.Instrs) {
					return fmt.Errorf("%s: instr %d uses invalid value %d", f.Name, v, u)
				}
				db := defBlock[u]
				if db == -1 {
					return fmt.Errorf("%s: instr %d uses unlisted value %d", f.Name, v, u)
				}
				if db == BlockID(b) {
					// In-block ordering is a local property: it holds (or
					// not) independent of reachability, so unreachable
					// blocks are checked too. The operand must be listed
					// strictly before its use.
					if defPos[u] >= defPos[v] {
						return fmt.Errorf("%s b%d: instr %d uses later value %d", f.Name, b, v, u)
					}
					continue
				}
				if dom.Num[BlockID(b)] < 0 {
					continue // cross-block dominance is undefined in unreachable code
				}
				if !dom.Dominates(db, BlockID(b)) {
					return fmt.Errorf("%s: instr %d (b%d) uses %d (b%d) without dominance",
						f.Name, v, b, u, db)
				}
			}
			if err := f.checkTypes(v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *Func) checkTypes(v Value) error {
	in := &f.Instrs[v]
	ty := func(x Value) Type { return f.ValueType(x) }
	fail := func(msg string) error {
		return fmt.Errorf("%s: instr %d (%s): %s", f.Name, v, in.Op, msg)
	}
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpUDiv, OpURem,
		OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar, OpRotr,
		OpSAddTrap, OpSSubTrap, OpSMulTrap:
		if !in.Type.IsInt() {
			return fail("integer op on " + in.Type.String())
		}
		if ty(in.A) != in.Type || ty(in.B) != in.Type {
			return fail(fmt.Sprintf("operand types %s/%s vs result %s", ty(in.A), ty(in.B), in.Type))
		}
	case OpNeg, OpNot:
		if ty(in.A) != in.Type {
			return fail("operand type mismatch")
		}
	case OpICmp:
		if in.Type != I1 {
			return fail("icmp result must be i1")
		}
		if ty(in.A) != ty(in.B) {
			return fail(fmt.Sprintf("icmp on %s vs %s", ty(in.A), ty(in.B)))
		}
	case OpFCmp:
		if in.Type != I1 || ty(in.A) != F64 || ty(in.B) != F64 {
			return fail("fcmp types")
		}
	case OpZExt, OpSExt:
		if !in.Type.IsInt() || !ty(in.A).IsInt() || in.Type.Size() < ty(in.A).Size() {
			return fail(fmt.Sprintf("widening %s -> %s", ty(in.A), in.Type))
		}
	case OpTrunc:
		if !in.Type.IsInt() || !ty(in.A).IsInt() || in.Type.Size() > ty(in.A).Size() {
			return fail(fmt.Sprintf("truncating %s -> %s", ty(in.A), in.Type))
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if in.Type != F64 || ty(in.A) != F64 || ty(in.B) != F64 {
			return fail("float op types")
		}
	case OpSIToFP:
		if in.Type != F64 || !ty(in.A).IsInt() {
			return fail("sitofp types")
		}
	case OpFPToSI:
		if !in.Type.IsInt() || ty(in.A) != F64 {
			return fail("fptosi types")
		}
	case OpFBits:
		if in.Type != I64 || ty(in.A) != F64 {
			return fail("fbits types")
		}
	case OpBitsF:
		if in.Type != F64 || ty(in.A) != I64 {
			return fail("bitsf types")
		}
	case OpCrc32, OpLMulFold:
		if in.Type != I64 || ty(in.A) != I64 || ty(in.B) != I64 {
			return fail("hash op types")
		}
	case OpGEP:
		if in.Type != Ptr || ty(in.A) != Ptr {
			return fail("gep types")
		}
		if in.B != NoValue && !ty(in.B).IsInt() {
			return fail("gep index must be integer")
		}
	case OpConstPool:
		if f.mod == nil || in.Imm < 0 || int(in.Imm) >= len(f.mod.Pool) {
			return fail("const-pool slot out of range")
		}
		if f.mod.Pool[in.Imm].Type != in.Type {
			return fail(fmt.Sprintf("const-pool slot type %s vs result %s",
				f.mod.Pool[in.Imm].Type, in.Type))
		}
	case OpLoad:
		if ty(in.A) != Ptr {
			return fail("load address not a pointer")
		}
	case OpStore:
		if ty(in.A) != Ptr {
			return fail("store address not a pointer")
		}
	case OpSelect:
		if ty(in.A) != I1 || ty(in.B) != in.Type || ty(in.C) != in.Type {
			return fail("select types")
		}
	case OpCondBr:
		if ty(in.A) != I1 {
			return fail("condbr on non-i1")
		}
	case OpRet:
		if f.Ret == Void {
			if in.A != NoValue {
				return fail("value returned from void function")
			}
		} else if in.A == NoValue || ty(in.A) != f.Ret {
			return fail("return type mismatch")
		}
	}
	return nil
}

// VerifyModule verifies all functions of a module.
func (m *Module) VerifyModule() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return err
		}
	}
	return nil
}
