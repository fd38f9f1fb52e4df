package cbe

import "qcc/internal/vt"

// The clean-ups between the classic scalar passes and code generation: they
// shape the TAC for the target (address modes, compare-and-branch) and undo
// what printing SSA as C left behind (phi copies, a label and two gotos per
// block).

// eachUse calls f with every variable t reads.
func (t *tac) eachUse(f func(v int32)) {
	if t.a >= 0 {
		f(t.a)
	}
	if t.b >= 0 {
		f(t.b)
	}
	for _, a := range t.args {
		f(a)
	}
}

// useCounts returns how often each variable is read.
func useCounts(gf *gimpleFunc) []int32 {
	uses := make([]int32, len(gf.vars))
	for i := range gf.code {
		gf.code[i].eachUse(func(v int32) { uses[v]++ })
	}
	return uses
}

// isJump reports the instructions that end or begin a straight-line run.
func (t *tac) isJump() bool {
	switch t.op {
	case gLabel, gGoto, gIfGoto, gRet, gTrap:
		return true
	}
	return false
}

// refers reports whether t reads or writes v.
func (t *tac) refers(v int32) bool {
	found := t.dst == v
	t.eachUse(func(u int32) { found = found || u == v })
	return found
}

// foldWindow bounds how far the folding passes look back for a definition.
const foldWindow = 32

// foldAddresses moves the constant term of an address computation into the
// access's displacement: a = x + c; *(a + d) becomes *(x + (c + d)), and
// likewise through a = x. x must still hold at the access what it held when
// a was computed.
func foldAddresses(gf *gimpleFunc, tgt *vt.Target) bool {
	counts := defCounts(gf)
	def := make([]int32, len(gf.vars)) // index of a variable's last definition
	for i := range def {
		def[i] = -1
	}
	for i := range gf.code {
		if d := gf.code[i].dst; d >= 0 {
			def[d] = int32(i)
		}
	}
	changed := false
	for i := range gf.code {
		t := &gf.code[i]
		if t.op != gLoad && t.op != gStore || counts[t.a] != 1 || def[t.a] < 0 {
			continue
		}
		at := int(def[t.a])
		d := &gf.code[at]
		// A copy is an addition of zero. A wide access also touches
		// displacement + 8.
		add := d.op == gBin && d.bin == bAdd && d.b < 0 || d.op == gMov && widens(gf.vars[d.dst], gf.vars[d.a])
		if !add || !fitsImm(tgt, t.imm+d.imm+8) {
			continue
		}
		if counts[d.a] != 1 {
			same := at < i && i-at <= foldWindow
			for k := at + 1; same && k < i; k++ {
				same = gf.code[k].op != gLabel && gf.code[k].dst != d.a
			}
			if !same {
				continue
			}
		}
		t.a, t.imm = d.a, t.imm+d.imm
		changed = true
	}
	return changed
}

// coalesceMoves computes a value where its only reader, a move, would copy
// it: x = op ...; y = x becomes y = op ... (phi copies, call results). The
// move is left as y = y for dead code elimination.
func coalesceMoves(gf *gimpleFunc) bool {
	counts, uses := defCounts(gf), useCounts(gf)
	changed := false
	for j := range gf.code {
		m := &gf.code[j]
		x, y := m.a, m.dst
		if m.op != gMov || x == y || counts[x] != 1 || uses[x] != 1 || gf.vars[x] != gf.vars[y] {
			continue
		}
		for i := j - 1; i >= 0 && j-i <= foldWindow; i-- {
			t := &gf.code[i]
			if t.dst == x {
				t.dst, m.a = y, y
				changed = true
				break
			}
			if t.isJump() || t.refers(y) {
				break
			}
		}
	}
	return changed
}

var negPred = map[string]string{"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}

// labelsAt reports whether label l is among the labels that start at code[i].
func labelsAt(code []tac, i int, l int32) bool {
	for ; i < len(code) && code[i].op == gLabel; i++ {
		if code[i].label == l {
			return true
		}
	}
	return false
}

// cleanBranches folds an integer compare into the branch that alone reads it,
// turns "if c goto L1; goto L2; L1:" into "if !c goto L2", and drops branches
// to the next instruction, unreachable code and labels nothing branches to,
// so that a block reached from one place merges with it.
func cleanBranches(gf *gimpleFunc) bool {
	code := gf.code
	changed := false
	counts, uses := defCounts(gf), useCounts(gf)
	out := code[:0]
	for i := 0; i < len(code); i++ {
		t := code[i]
		switch t.op {
		case gIfGoto:
			if t.pred == "" && len(out) > 0 {
				c := &out[len(out)-1]
				if c.op == gCmp && c.dst == t.a && counts[c.dst] == 1 && uses[c.dst] == 1 && gf.vars[c.a].isInt() {
					t.a, t.b, t.pred, t.unsig = c.a, c.b, c.pred, c.unsig
					out = out[:len(out)-1]
					changed = true
				}
			}
			if t.pred != "" && i+1 < len(code) && code[i+1].op == gGoto && labelsAt(code, i+2, t.label) {
				t.pred, t.label = negPred[t.pred], code[i+1].label
				i++
				changed = true
			}
		case gGoto:
			if labelsAt(code, i+1, t.label) {
				changed = true
				continue
			}
		}
		out = append(out, t)
		if t.op == gGoto || t.op == gRet || t.op == gTrap {
			for i+1 < len(code) && code[i+1].op != gLabel {
				i++
				changed = true
			}
		}
	}

	referenced := make([]bool, gf.nlabels)
	for i := range out {
		if out[i].op == gGoto || out[i].op == gIfGoto {
			referenced[out[i].label] = true
		}
	}
	code, out = out, out[:0]
	for _, t := range code {
		if t.op == gLabel && !referenced[t.label] {
			changed = true
			continue
		}
		out = append(out, t)
	}
	gf.code = out
	return changed
}
