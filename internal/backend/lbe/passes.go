package lbe

import (
	"fmt"

	"qcc/internal/backend"
)

// The pass manager mirrors LLVM's legacy pass manager: passes declare
// analysis dependencies that the manager tracks in per-function bookkeeping
// maps (the overhead the paper measures at ~5% of cheap compile time), and
// many back-end preparation passes scan the whole function for constructs
// the query compiler never generates — the "always run, rarely needed"
// problem discussed in Sec. V-B2.

type passContext struct {
	stats *backend.Stats
	// available mimics the legacy PM's analysis availability tracking.
	available map[string]any
	dt        *lDomTree
	loops     *lLoopInfo
}

type irPass struct {
	name     string
	analyses []string // analyses required (forces bookkeeping lookups)
	run      func(fn *Fn, ctx *passContext)
}

type passManager struct {
	passes []irPass
}

func (pm *passManager) add(p irPass) { pm.passes = append(pm.passes, p) }

// run executes the pipeline on one function. Pass time is charged to the
// phase span the caller has open (the old Lap scheme charged it twice:
// once here via AddPhase and once by the enclosing lap); with tracing on,
// each individual pass additionally gets a nested trace span.
func (pm *passManager) run(fn *Fn, ph *backend.Phaser, stats *backend.Stats) {
	ctx := &passContext{stats: stats, available: map[string]any{}}
	tr := ph.Tracer()
	for _, p := range pm.passes {
		psp := tr.BeginCat(p.name, "pass")
		// Legacy pass-manager bookkeeping: look up required analyses,
		// recompute if unavailable, invalidate afterwards.
		for _, a := range p.analyses {
			if _, ok := ctx.available[a]; !ok {
				computeAnalysis(fn, ctx, a)
				ctx.available[a] = struct{}{}
			}
		}
		p.run(fn, ctx)
		// Transformation passes conservatively invalidate analyses.
		if len(p.analyses) == 0 {
			for k := range ctx.available {
				delete(ctx.available, k)
			}
			ctx.dt, ctx.loops = nil, nil
		}
		psp.End()
		stats.Count("passes_run", 1)
	}
}

func computeAnalysis(fn *Fn, ctx *passContext, name string) {
	switch name {
	case "domtree":
		ctx.dt = buildDomTree(fn)
	case "loops":
		if ctx.dt == nil {
			ctx.dt = buildDomTree(fn)
		}
		ctx.loops = buildLoopInfo(fn, ctx.dt)
	}
}

// scanPass builds a pass that iterates every instruction checking a
// predicate that (for query workloads) never fires — the paper's "passes
// always run even though Umbra never generates the handled constructs".
func scanPass(name string, match func(*Instr) bool) irPass {
	return irPass{name: name, analyses: []string{"none"}, run: func(fn *Fn, ctx *passContext) {
		hits := 0
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if match(in) {
					hits++
				}
			}
		}
		if hits > 0 {
			ctx.stats.Count("scanpass_hits_"+name, int64(hits))
		}
	}}
}

// backendPrepPasses are the pre-ISel IR passes both modes run.
func backendPrepPasses() []irPass {
	return []irPass{
		scanPass("expand-large-divrem", func(in *Instr) bool {
			return (in.Op == LOpSDiv || in.Op == LOpUDiv || in.Op == LOpSRem || in.Op == LOpURem) &&
				in.Typ.Kind == KInt && in.Typ.Bits > 128
		}),
		scanPass("lower-constant-intrinsics", func(in *Instr) bool {
			return in.Op == LOpIntrinsic && in.Intr >= NumIntrinsics
		}),
		scanPass("expand-vector-predication", func(in *Instr) bool { return false }),
		scanPass("scalarize-masked-mem-intrin", func(in *Instr) bool { return false }),
		scanPass("expand-reductions", func(in *Instr) bool { return false }),
		scanPass("lower-amx-type", func(in *Instr) bool { return false }),
		scanPass("indirectbr-expand", func(in *Instr) bool { return false }),
		scanPass("callbr-prepare", func(in *Instr) bool { return false }),
		scanPass("safe-stack", func(in *Instr) bool { return false }),
		scanPass("stack-protector", func(in *Instr) bool { return false }),
		scanPass("expand-memcmp", func(in *Instr) bool { return false }),
		scanPass("interleaved-access", func(in *Instr) bool { return false }),
	}
}

// optPasses is the optimized-mode midend: CSE, CFG simplification,
// instruction combining, LICM and DCE (the set listed in Sec. V-A1). Like
// LLVM's -O2 pipeline, the scalar passes run in several rounds (early and
// late simplification), each with its own analysis bookkeeping.
func optPasses() []irPass {
	var ps []irPass
	for round := 0; round < 3; round++ {
		tag := fmt.Sprintf("%d", round+1)
		ps = append(ps,
			irPass{name: "early-cse" + tag, run: func(fn *Fn, ctx *passContext) { earlyCSE(fn) }},
			irPass{name: "simplifycfg" + tag, run: func(fn *Fn, ctx *passContext) { simplifyCFG(fn) }},
			irPass{name: "instcombine" + tag, run: func(fn *Fn, ctx *passContext) { instCombine(fn) }},
			irPass{name: "licm" + tag, analyses: []string{"domtree", "loops"}, run: func(fn *Fn, ctx *passContext) {
				licm(fn, ctx.dt, ctx.loops)
			}},
			irPass{name: "dce" + tag, run: func(fn *Fn, ctx *passContext) { dce(fn) }},
		)
	}
	// CodeGenPrepare recomputes the dominator tree and loop info once
	// more (the double computation the paper observes).
	ps = append(ps, irPass{name: "codegenprepare", analyses: []string{"domtree", "loops"},
		run: func(fn *Fn, ctx *passContext) {}})
	return ps
}

// --------------------------------------------------------------------------
// LIR analyses.
// --------------------------------------------------------------------------

type lDomTree struct {
	idom map[*Block]*Block
	num  map[*Block]int
	rpo  []*Block
}

func buildDomTree(fn *Fn) *lDomTree {
	// Reverse postorder over reachable blocks.
	seen := map[*Block]bool{}
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(fn.Blocks[0])
	dt := &lDomTree{idom: map[*Block]*Block{}, num: map[*Block]int{}}
	for i := len(post) - 1; i >= 0; i-- {
		dt.rpo = append(dt.rpo, post[i])
	}
	for i, b := range dt.rpo {
		dt.num[b] = i
	}
	entry := dt.rpo[0]
	dt.idom[entry] = entry
	intersect := func(a, b *Block) *Block {
		for a != b {
			for dt.num[a] > dt.num[b] {
				a = dt.idom[a]
			}
			for dt.num[b] > dt.num[a] {
				b = dt.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range dt.rpo[1:] {
			var ni *Block
			for _, p := range b.Preds {
				if _, ok := dt.idom[p]; !ok {
					continue
				}
				if ni == nil {
					ni = p
				} else {
					ni = intersect(ni, p)
				}
			}
			if ni != nil && dt.idom[b] != ni {
				dt.idom[b] = ni
				changed = true
			}
		}
	}
	return dt
}

func (dt *lDomTree) dominates(a, b *Block) bool {
	if _, ok := dt.num[b]; !ok {
		return false
	}
	for {
		if a == b {
			return true
		}
		n := dt.idom[b]
		if n == nil || n == b {
			return false
		}
		b = n
	}
}

type lLoop struct {
	header *Block
	blocks map[*Block]bool
}

type lLoopInfo struct {
	loops []*lLoop
	depth map[*Block]int
}

func buildLoopInfo(fn *Fn, dt *lDomTree) *lLoopInfo {
	li := &lLoopInfo{depth: map[*Block]int{}}
	for _, b := range dt.rpo {
		for _, s := range b.Succs() {
			if !dt.dominates(s, b) {
				continue
			}
			l := &lLoop{header: s, blocks: map[*Block]bool{s: true}}
			work := []*Block{b}
			for len(work) > 0 {
				n := work[len(work)-1]
				work = work[:len(work)-1]
				if l.blocks[n] {
					continue
				}
				l.blocks[n] = true
				work = append(work, n.Preds...)
			}
			li.loops = append(li.loops, l)
			for blk := range l.blocks {
				li.depth[blk]++
			}
		}
	}
	return li
}

// --------------------------------------------------------------------------
// Transformations.
// --------------------------------------------------------------------------

// cseKey identifies structurally-equal pure instructions.
type cseKey struct {
	op        Opcode
	a, b, c   *Instr
	imm, imm2 int64
	pred      uint8
	scale     int64
	intr      IntrinsicID
}

func keyOf(in *Instr) (cseKey, bool) {
	// Constants are not CSE'd or hoisted: like LLVM's uniqued constants,
	// they are rematerialized by instruction selection, so keeping them
	// near their uses avoids long live ranges.
	if in.Op.HasSideEffects() || in.Op == LOpPhi || in.Op == LOpLoad || in.Op.IsTerminator() ||
		in.Op == LOpConst || in.Op == LOpConstF || in.Op == LOpNull {
		return cseKey{}, false
	}
	k := cseKey{op: in.Op, imm: in.Imm, imm2: in.Imm2, pred: in.Pred, scale: in.Scale, intr: in.Intr}
	if len(in.Ops) > 0 {
		k.a = in.Ops[0]
	}
	if len(in.Ops) > 1 {
		k.b = in.Ops[1]
	}
	if len(in.Ops) > 2 {
		k.c = in.Ops[2]
	}
	return k, true
}

// earlyCSE eliminates redundant pure computations with dominance-scoped
// hashing (per dominator-tree walk over RPO; a block may reuse values from
// dominating blocks).
func earlyCSE(fn *Fn) {
	dt := buildDomTree(fn)
	avail := map[cseKey]*Instr{}
	for _, b := range dt.rpo {
		for _, in := range append([]*Instr(nil), b.Instrs...) {
			k, ok := keyOf(in)
			if !ok {
				continue
			}
			if prev, ok := avail[k]; ok && dt.dominates(prev.Block, b) {
				in.ReplaceAllUses(prev)
				in.eraseDead()
				continue
			}
			avail[k] = in
		}
	}
}

// simplifyCFG folds constant conditional branches, merges straight-line
// block pairs, and drops unreachable blocks.
func simplifyCFG(fn *Fn) {
	changed := true
	for changed {
		changed = false
		// Fold condbr on constants.
		for _, b := range fn.Blocks {
			t := b.Term()
			if t == nil || t.Op != LOpCondBr {
				continue
			}
			c := t.Ops[0]
			if c.Op != LOpConst {
				continue
			}
			keep, drop := t.Then, t.Else
			if c.Imm == 0 {
				keep, drop = t.Else, t.Then
			}
			t.Op = LOpBr
			t.Ops[0].RemoveUse(t)
			t.Ops = nil
			t.Then, t.Else = keep, nil
			removePhiEdge(drop, b)
			changed = true
		}
		recomputePreds(fn)
		// Merge B -> S when S is B's unique successor and B is S's
		// unique predecessor.
		for _, b := range fn.Blocks {
			t := b.Term()
			if t == nil || t.Op != LOpBr {
				continue
			}
			s := t.Then
			if s == b || s == fn.Blocks[0] || len(s.Preds) != 1 {
				continue
			}
			// Replace phis in S (single incoming).
			for len(s.Instrs) > 0 && s.Instrs[0].Op == LOpPhi {
				phi := s.Instrs[0]
				phi.ReplaceAllUses(phi.Ops[0])
				for _, op := range phi.Ops {
					op.RemoveUse(phi)
				}
				s.Instrs = s.Instrs[1:]
			}
			// Splice.
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			for _, in := range s.Instrs {
				in.Block = b
				b.Instrs = append(b.Instrs, in)
			}
			// Successor phi incoming blocks now come from b.
			for _, ss := range b.Succs() {
				for _, in := range ss.Instrs {
					if in.Op != LOpPhi {
						break
					}
					for i, inc := range in.Inc {
						if inc == s {
							in.Inc[i] = b
						}
					}
				}
			}
			s.Instrs = nil
			changed = true
			recomputePreds(fn)
		}
		// Drop unreachable blocks.
		reachable := map[*Block]bool{}
		var mark func(*Block)
		mark = func(b *Block) {
			if reachable[b] {
				return
			}
			reachable[b] = true
			for _, s := range b.Succs() {
				mark(s)
			}
		}
		mark(fn.Blocks[0])
		var kept []*Block
		for _, b := range fn.Blocks {
			if reachable[b] {
				kept = append(kept, b)
				continue
			}
			if len(b.Instrs) > 0 {
				changed = true
			}
			for _, in := range b.Instrs {
				for _, op := range in.Ops {
					op.RemoveUse(in)
				}
			}
			b.Instrs = nil
		}
		if len(kept) != len(fn.Blocks) {
			// Remove phi edges from deleted preds.
			for _, b := range kept {
				for _, in := range b.Instrs {
					if in.Op != LOpPhi {
						break
					}
					for i := len(in.Inc) - 1; i >= 0; i-- {
						if !reachable[in.Inc[i]] {
							in.Ops[i].RemoveUse(in)
							in.Ops = append(in.Ops[:i], in.Ops[i+1:]...)
							in.Inc = append(in.Inc[:i], in.Inc[i+1:]...)
						}
					}
				}
			}
			fn.Blocks = kept
			for i, b := range fn.Blocks {
				b.id = int32(i)
			}
		}
		recomputePreds(fn)
	}
}

func removePhiEdge(b *Block, pred *Block) {
	for _, in := range b.Instrs {
		if in.Op != LOpPhi {
			break
		}
		for i, inc := range in.Inc {
			if inc == pred {
				in.Ops[i].RemoveUse(in)
				in.Ops = append(in.Ops[:i], in.Ops[i+1:]...)
				in.Inc = append(in.Inc[:i], in.Inc[i+1:]...)
				break
			}
		}
	}
}

func recomputePreds(fn *Fn) {
	for _, b := range fn.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// instCombine applies local algebraic rewrites until fixpoint.
func instCombine(fn *Fn) {
	changed := true
	for changed {
		changed = false
		for _, b := range fn.Blocks {
			for _, in := range append([]*Instr(nil), b.Instrs...) {
				if combineOne(in) {
					changed = true
				}
			}
		}
	}
}

func constOf(in *Instr) (int64, bool) {
	if in.Op == LOpConst && in.Typ.Kind == KInt && in.Typ.Bits <= 64 {
		return in.Imm, true
	}
	return 0, false
}

func combineOne(in *Instr) bool {
	replaceWith := func(w *Instr) bool {
		in.ReplaceAllUses(w)
		return in.eraseDead()
	}
	switch in.Op {
	case LOpAdd, LOpSub, LOpMul, LOpAnd, LOpOr, LOpXor, LOpShl, LOpLShr, LOpAShr:
		if in.Typ.Bits > 64 {
			return false
		}
		a, aok := constOf(in.Ops[0])
		b, bok := constOf(in.Ops[1])
		if aok && bok {
			op0 := in.Ops[0]
			in.Op, in.Imm = LOpConst, fold(in.Op, in.Typ, a, b)
			op0.RemoveUse(in)
			in.Ops[1].RemoveUse(in)
			in.Ops = nil
			return true
		}
		if bok {
			identity := b == 0 && (in.Op == LOpAdd || in.Op == LOpSub || in.Op == LOpOr ||
				in.Op == LOpXor || in.Op == LOpShl || in.Op == LOpLShr || in.Op == LOpAShr) ||
				b == 1 && in.Op == LOpMul
			if identity {
				return replaceWith(in.Ops[0])
			}
		}
	case LOpICmp:
		a, aok := constOf(in.Ops[0])
		b, bok := constOf(in.Ops[1])
		if aok && bok {
			in.Ops[0].RemoveUse(in)
			in.Ops[1].RemoveUse(in)
			in.Op, in.Typ, in.Imm, in.Ops = LOpConst, TI1, foldCmp(in.Pred, a, b), nil
			return true
		}
	case LOpSelect:
		if c, ok := constOf(in.Ops[0]); ok {
			if c != 0 {
				return replaceWith(in.Ops[1])
			}
			return replaceWith(in.Ops[2])
		}
	case LOpZExt, LOpSExt, LOpTrunc:
		if in.Ops[0].Typ == in.Typ {
			return replaceWith(in.Ops[0])
		}
	}
	return false
}

// licm hoists loop-invariant pure instructions into the preheader.
func licm(fn *Fn, dt *lDomTree, li *lLoopInfo) {
	for _, l := range li.loops {
		// Preheader: unique predecessor of the header outside the loop.
		var pre *Block
		for _, p := range l.header.Preds {
			if l.blocks[p] {
				continue
			}
			if pre != nil {
				pre = nil
				break
			}
			pre = p
		}
		if pre == nil || pre.Term() == nil || pre.Term().Op != LOpBr {
			continue
		}
		invariant := func(in *Instr) bool {
			if in.Op.HasSideEffects() || in.Op == LOpPhi || in.Op == LOpLoad ||
				in.Op.IsTerminator() || in.Op == LOpInvalid ||
				in.Op == LOpConst || in.Op == LOpConstF || in.Op == LOpNull {
				return false
			}
			for _, op := range in.Ops {
				if op.Block != nil && l.blocks[op.Block] {
					return false
				}
			}
			return true
		}
		// Walk the loop body in fn.Blocks order, not map order: the hoist
		// order decides the preheader instruction sequence and must be
		// deterministic for byte-identical recompiles.
		var body []*Block
		for _, b := range fn.Blocks {
			if l.blocks[b] {
				body = append(body, b)
			}
		}
		for changed := true; changed; {
			changed = false
			for _, blk := range body {
				for _, in := range append([]*Instr(nil), blk.Instrs...) {
					if !invariant(in) {
						continue
					}
					// Move before the preheader terminator.
					for i, x := range blk.Instrs {
						if x == in {
							blk.Instrs = append(blk.Instrs[:i], blk.Instrs[i+1:]...)
							break
						}
					}
					in.Block = pre
					pre.Instrs = append(pre.Instrs[:len(pre.Instrs)-1],
						in, pre.Instrs[len(pre.Instrs)-1])
					changed = true
				}
			}
		}
	}
}

// dce removes dead pure instructions, iterating to a fixpoint.
func dce(fn *Fn) {
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				if b.Instrs[i].eraseDead() {
					changed = true
				}
			}
		}
	}
}
