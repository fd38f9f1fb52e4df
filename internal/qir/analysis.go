package qir

// This file provides the CFG analyses shared by back-ends: reverse postorder,
// dominator tree (Cooper–Harvey–Kennedy), natural-loop detection, and
// block-granularity liveness — the same analyses the paper's DirectEmit
// back-end computes in its single analysis pass.

// RPO returns the blocks reachable from entry in reverse postorder.
func (f *Func) RPO() []BlockID {
	seen := make([]bool, len(f.Blocks))
	post := make([]BlockID, 0, len(f.Blocks))
	// Iterative DFS; succs buffer reused.
	type frame struct {
		b    BlockID
		next int
	}
	stack := append(make([]frame, 0, len(f.Blocks)), frame{b: 0})
	seen[0] = true
	var succArr [2]BlockID // a terminator has at most two successors
	succBuf := succArr[:0]
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succBuf = f.Succs(fr.b, succBuf[:0])
		if fr.next < len(succBuf) {
			s := succBuf[fr.next]
			fr.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	// Reverse.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// DomTree holds immediate dominators indexed by block id; Idom[entry] is the
// entry itself, and unreachable blocks have Idom -1.
type DomTree struct {
	Idom []BlockID
	// RPO is the reverse postorder used during construction.
	RPO []BlockID
	// Num maps a block id to its RPO position (or -1 if unreachable).
	Num []int32
}

// Dominators computes the dominator tree with the Cooper–Harvey–Kennedy
// iterative algorithm.
func (f *Func) Dominators() *DomTree {
	rpo := f.RPO()
	num := make([]int32, len(f.Blocks))
	for i := range num {
		num[i] = -1
	}
	for i, b := range rpo {
		num[b] = int32(i)
	}
	idom := make([]BlockID, len(f.Blocks))
	for i := range idom {
		idom[i] = -1
	}
	idom[rpo[0]] = rpo[0]
	intersect := func(a, b BlockID) BlockID {
		for a != b {
			for num[a] > num[b] {
				a = idom[a]
			}
			for num[b] > num[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom BlockID = -1
			for _, p := range f.Blocks[b].Preds {
				if num[p] < 0 || idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return &DomTree{Idom: idom, RPO: rpo, Num: num}
}

// Dominates reports whether block a dominates block b.
func (d *DomTree) Dominates(a, b BlockID) bool {
	if d.Num[b] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := d.Idom[b]
		if next == b || next == -1 {
			return false
		}
		b = next
	}
}

// LoopInfo describes the natural loops of a function.
type LoopInfo struct {
	// Depth[b] is the loop nesting depth of block b (0 = not in a loop).
	Depth []int32
	// Headers lists the loop header blocks.
	Headers []BlockID
}

// Loops finds natural loops from back edges (an edge whose target dominates
// its source). Irreducible control flow is not produced by the query
// compiler, matching the DirectEmit restriction described in the paper.
func (f *Func) Loops(dom *DomTree) *LoopInfo {
	li := &LoopInfo{Depth: make([]int32, len(f.Blocks))}
	var succBuf []BlockID
	for _, b := range dom.RPO {
		succBuf = f.Succs(b, succBuf[:0])
		for _, s := range succBuf {
			if !dom.Dominates(s, b) {
				continue
			}
			// Back edge b -> s: collect the loop body by walking
			// predecessors from b until s.
			li.Headers = append(li.Headers, s)
			inLoop := make(map[BlockID]bool, 8)
			inLoop[s] = true
			work := []BlockID{b}
			for len(work) > 0 {
				n := work[len(work)-1]
				work = work[:len(work)-1]
				if inLoop[n] {
					continue
				}
				inLoop[n] = true
				work = append(work, f.Blocks[n].Preds...)
			}
			for blk := range inLoop {
				li.Depth[blk]++
			}
		}
	}
	return li
}

// Liveness holds block-granularity liveness: LiveIn[b] and LiveOut[b] are
// bitsets over value ids.
type Liveness struct {
	LiveIn  []BitSet
	LiveOut []BitSet
	nvals   int
}

// BitSet is a simple dense bitset over value ids.
type BitSet []uint64

// NewBitSet returns a bitset able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (s BitSet) Set(i int32) { s[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (s BitSet) Clear(i int32) { s[i/64] &^= 1 << (uint(i) % 64) }

// Get reports bit i.
func (s BitSet) Get(i int32) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// OrWith ors other into s and reports whether s changed.
func (s BitSet) OrWith(other BitSet) bool {
	changed := false
	for i := range s {
		n := s[i] | other[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Copy copies other into s.
func (s BitSet) Copy(other BitSet) { copy(s, other) }

// Count returns the number of set bits.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// LivenessAnalysis computes block-granularity liveness by backward data-flow
// iteration. Phi operands are treated as live-out of the corresponding
// predecessor, matching SSA semantics.
func (f *Func) LivenessAnalysis() *Liveness {
	n := len(f.Instrs)
	nb := len(f.Blocks)
	lv := &Liveness{nvals: n}
	// Five bitsets per block — LiveIn, LiveOut, gen (upward-exposed uses),
	// kill (definitions) and phiUses (values used by phis in successors of p
	// along edge p->s) — carved out of one allocation.
	words := (n + 63) / 64
	store := make([]uint64, 5*nb*words)
	sets := make([]BitSet, 5*nb)
	for i := range sets {
		sets[i] = store[i*words : (i+1)*words]
	}
	lv.LiveIn, lv.LiveOut = sets[:nb], sets[nb:2*nb]
	gen, kill, phiUses := sets[2*nb:3*nb], sets[3*nb:4*nb], sets[4*nb:]
	var opsArr [8]Value // most instructions have fewer operands; longer calls grow it
	ops := opsArr[:0]
	for b := 0; b < nb; b++ {
		blk := &f.Blocks[b]
		for _, v := range blk.List {
			in := &f.Instrs[v]
			if in.Op == OpPhi {
				pairs := f.PhiPairs(v)
				for i := 0; i < len(pairs); i += 2 {
					phiUses[pairs[i]].Set(pairs[i+1])
				}
				kill[b].Set(v)
				continue
			}
			ops = f.Operands(v, ops[:0])
			for _, u := range ops {
				if !kill[b].Get(u) {
					gen[b].Set(u)
				}
			}
			if in.Type != Void {
				kill[b].Set(v)
			}
		}
	}
	// Iterate to fixpoint, blocks in reverse order for fast convergence.
	var succArr [2]BlockID
	succBuf := succArr[:0]
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			out := lv.LiveOut[b]
			succBuf = f.Succs(BlockID(b), succBuf[:0])
			for _, s := range succBuf {
				if out.OrWith(lv.LiveIn[s]) {
					changed = true
				}
			}
			if out.OrWith(phiUses[b]) {
				changed = true
			}
			// in = gen | (out &^ kill)
			in := lv.LiveIn[b]
			for i := range in {
				n := gen[b][i] | out[i]&^kill[b][i]
				if n != in[i] {
					in[i] = n
					changed = true
				}
			}
		}
	}
	return lv
}

// LiveAtInstr refines block-granularity liveness to instruction granularity
// for one block: the returned slice holds, for each position i in the
// block's instruction list, the set of values live immediately after the
// i-th instruction executes. Phi operands are charged to predecessor edges
// (they are in the predecessors' LiveOut), so they do not appear in the
// in-block sets unless also used by a non-phi instruction.
func (f *Func) LiveAtInstr(lv *Liveness, b BlockID) []BitSet {
	list := f.Blocks[b].List
	n := lv.nvals
	after := make([]BitSet, len(list))
	cur := NewBitSet(n)
	cur.Copy(lv.LiveOut[b])
	var ops []Value
	for i := len(list) - 1; i >= 0; i-- {
		after[i] = NewBitSet(n)
		after[i].Copy(cur)
		v := list[i]
		in := &f.Instrs[v]
		if in.Type != Void || in.Op == OpPhi {
			cur.Clear(v)
		}
		if in.Op != OpPhi {
			ops = f.Operands(v, ops[:0])
			for _, u := range ops {
				cur.Set(u)
			}
		}
	}
	return after
}

// MaxLiveValues returns the maximum number of simultaneously live SSA values
// at any instruction boundary — the function's register-pressure estimate,
// computed from per-instruction liveness.
func (f *Func) MaxLiveValues(lv *Liveness) int {
	n := lv.nvals
	cur := NewBitSet(n)
	maxLive := 0
	var opsArr [8]Value
	ops := opsArr[:0]
	for b := range f.Blocks {
		cur.Copy(lv.LiveOut[b])
		live := cur.Count()
		if live > maxLive {
			maxLive = live
		}
		list := f.Blocks[b].List
		for i := len(list) - 1; i >= 0; i-- {
			v := list[i]
			in := &f.Instrs[v]
			if (in.Type != Void || in.Op == OpPhi) && cur.Get(v) {
				cur.Clear(v)
				live--
			}
			if in.Op != OpPhi {
				ops = f.Operands(v, ops[:0])
				for _, u := range ops {
					if !cur.Get(u) {
						cur.Set(u)
						live++
					}
				}
			}
			if live > maxLive {
				maxLive = live
			}
		}
	}
	return maxLive
}
