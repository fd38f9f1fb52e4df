package sa

import "qcc/internal/qir"

// Region is an absolute address range [Base, Base+Size) known valid for the
// whole function activation — e.g. a catalog column baked into the module as
// a constant base address.
type Region struct {
	Base, Size int64
}

// PtrFact declares a runtime contract about one SSA pointer value: when it
// is non-null it points into a region with Pre valid bytes before it and
// Post valid bytes from it on ([v-Pre, v+Post) is accessible). MaybeNull
// says whether the value can also be null — accesses through a maybe-null
// anchor are only proven where a dominating branch established non-null.
type PtrFact struct {
	Pre, Post int64
	MaybeNull bool
}

// Facts is the environment the analysis assumes about a function's inputs.
// All entries are optional; missing facts only lose precision, never
// soundness.
type Facts struct {
	// Regions are absolute valid memory ranges (catalog columns).
	Regions []Region
	// ParamRegion[i] > 0 declares that pointer parameter i points at a
	// valid region of at least that many bytes (e.g. the state block).
	ParamRegion []int64
	// ParamRange[i] constrains integer parameter i (e.g. morsel bounds
	// lo/hi in [0, rows]). A zero-value Interval{} entry means "no fact"
	// (use Top explicitly if a parameter is truly unconstrained but later
	// entries carry facts).
	ParamRange []Interval
	// ValFacts attaches pointer contracts to individual SSA values —
	// typically runtime-call results (hash-table entry pointers, vector
	// slots) whose validity the runtime guarantees but the IR cannot
	// express. The producer of the IR is responsible for the contract
	// being true.
	ValFacts map[qir.Value]PtrFact
	// MinValid is the size of the guard page: addresses below it always
	// trap. Defaults to 4096 (the VM null guard) via NewFacts.
	MinValid int64
	// WideConsts lists OpConst values whose literal must be treated as
	// unknown (widened to the type's load bounds) — exactly the transfer
	// function of the OpConstPool the constant-hoisting pass would put in
	// their place, so analysing f with its hoist candidates listed here is
	// analysing f in its hoisted form before the rewrite happens.
	WideConsts []qir.Value
}

// NewFacts returns an empty fact set with the VM's default null-guard size.
func NewFacts() *Facts { return &Facts{MinValid: 4096} }

func (ft *Facts) paramRegion(i int) int64 {
	if ft == nil || i >= len(ft.ParamRegion) {
		return 0
	}
	return ft.ParamRegion[i]
}

func (ft *Facts) paramRange(i int) (Interval, bool) {
	if ft == nil || i >= len(ft.ParamRange) {
		return Top(), false
	}
	r := ft.ParamRange[i]
	if r == (Interval{}) {
		return Top(), false
	}
	return r, true
}

// absVal is the abstract value of one SSA value: an absolute integer range
// (doubling as the absolute address range for pointers), an optional pointer
// derivation (anchor parameter + offset interval), and a nullness bit.
type absVal struct {
	r       Interval
	off     Interval  // offset from anchor; meaningful iff anchor != NoValue
	anchor  qir.Value // anchoring parameter value, or NoValue
	nonNull bool
	def     bool // visited by the fixpoint at least once
}

// undefVal is the not-yet-visited lattice bottom. Its range is Top, not the
// zero interval, so a value that somehow escapes evaluation is treated as
// unknown rather than as the constant zero.
func undefVal() absVal { return absVal{r: Top(), off: Top(), anchor: qir.NoValue} }

func topVal() absVal { return absVal{r: Top(), off: Top(), anchor: qir.NoValue, def: true} }

// join is the lattice union used at phi/select merge points.
func (a absVal) join(b absVal) absVal {
	if !a.def {
		return b
	}
	if !b.def {
		return a
	}
	out := absVal{r: a.r.Union(b.r), def: true, anchor: qir.NoValue, off: Top()}
	if a.anchor != qir.NoValue && a.anchor == b.anchor {
		out.anchor = a.anchor
		out.off = a.off.Union(b.off)
	}
	out.nonNull = a.nonNull && b.nonNull
	return out
}

// widenAfter is the per-value update budget before unstable bounds are
// widened to infinity; it bounds fixpoint iteration on loops.
const widenAfter = 4

// maxRefineDepth bounds the recursive re-evaluation performed by the
// block-contextual queries (RangeAt and friends).
const maxRefineDepth = 8

// Analysis holds the fixpoint results for one function plus the per-block
// branch-condition refinements, and answers contextual range, derivation,
// and access-safety queries.
//
// All working storage is dense and indexed by value or block id, and an
// Analysis can be Run again on another function: the arrays are resized in
// place, so a compile that analyses a module's functions one after the other
// allocates for the largest of them once. Results of the previous Run are
// overwritten.
type Analysis struct {
	F     *qir.Func
	Facts *Facts
	Dom   *qir.DomTree

	vals []absVal

	// Structure of F, built once per Run and shared by both fixpoint
	// rounds: where each instruction sits (block -1 for
	// instructions not listed in any block), and the def-use chains in CSR
	// form — the users of v are useList[useOff[v]:useOff[v+1]], ascending.
	posBlock []qir.BlockID
	posIdx   []int32
	useOff   []int32
	useList  []qir.Value

	// hasFact and wide resolve Facts.ValFacts and Facts.WideConsts to one
	// bit per value before the fixpoint starts.
	hasFact, wide qir.BitSet

	// Branch constraints. Block b contributes consEnt[consLo[b]:consHi[b]];
	// the constraints in force at any point b dominates are the entries of
	// every block on b's dominator-tree path, met. constrained has a bit for
	// each value with an entry anywhere, so the common miss is one bit test.
	consEnt        []consEntry
	consLo, consHi []int32
	constrained    qir.BitSet

	// Fixpoint work-list storage, also lent to ReachesAddress.
	work    []qir.Value
	inWork  qir.BitSet
	updates []uint8

	// addrVals memoizes the contextual value of each load's and store's
	// address (entries marked in addrKnown), which Accesses and Lint both
	// need. Accesses returns accs; keys holds the redundancy key of each.
	addrVals  []absVal
	addrKnown qir.BitSet
	accs      []Access
	keys      []accessKey
}

// consEntry is one fact a conditional branch proves about v for the region
// its block dominates: v lies in iv, or (nonNull) v is not null.
type consEntry struct {
	v       qir.Value
	nonNull bool
	iv      Interval
}

// Analyze runs the sparse conditional fixpoint over f under the given facts
// (nil is allowed and means "no facts, guard page 4096").
func Analyze(f *qir.Func, facts *Facts) *Analysis {
	a := new(Analysis)
	a.Run(f, facts)
	return a
}

// Run analyses f under facts, reusing a's storage from earlier runs.
func (a *Analysis) Run(f *qir.Func, facts *Facts) {
	a.prepare(f)
	if facts == nil {
		facts = NewFacts()
	}
	if facts.MinValid == 0 {
		facts.MinValid = 4096
	}
	a.Facts = facts
	a.hasFact = a.bits(a.hasFact)
	for v := range facts.ValFacts {
		a.hasFact.Set(v)
	}
	a.wide = a.bits(a.wide)
	for _, v := range facts.WideConsts {
		a.wide.Set(v)
	}
	a.addrVals = resized(a.addrVals, len(a.F.Instrs))
	a.addrKnown = a.bits(a.addrKnown)
	// Two rounds in the e-SSA style: the first fixpoint is context-free
	// (loop phis widen to infinity), the derived branch constraints then
	// feed a second fixpoint whose operand reads are met with the
	// constraints active at the use site — recovering finite ranges for
	// guarded induction variables (i < hi keeps i+1 from wrapping to Top).
	// Constraints are rebuilt once more from the tightened ranges.
	a.resetConstraints()
	a.fixpoint()
	a.buildConstraints()
	a.fixpoint()
	a.buildConstraints()
}

// resized returns s with length n and every element zero, in s's own
// storage when that is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bits returns s cleared and sized to one bit per value of F.
func (a *Analysis) bits(s qir.BitSet) qir.BitSet {
	return resized(s, (len(a.F.Instrs)+63)/64)
}

// prepare records f's structure: dominators, instruction positions and the
// def-use chains.
func (a *Analysis) prepare(f *qir.Func) {
	a.F, a.Dom = f, f.Dominators()
	n := len(f.Instrs)
	a.posBlock = resized(a.posBlock, n)
	a.posIdx = resized(a.posIdx, n)
	for i := range a.posBlock {
		a.posBlock[i] = -1
	}
	for b := range f.Blocks {
		for i, v := range f.Blocks[b].List {
			a.posBlock[v] = qir.BlockID(b)
			a.posIdx[v] = int32(i)
		}
	}
	// Count each value's uses into useOff[u+1], turn the counts into start
	// offsets, then fill with useOff[u] as the cursor — which leaves every
	// offset one slot ahead, undone by the final shift.
	a.useOff = resized(a.useOff, n+1)
	ops := a.work[:0]
	for v := 0; v < n; v++ {
		ops = f.Operands(qir.Value(v), ops[:0])
		for _, u := range ops {
			a.useOff[u+1]++
		}
	}
	for u := 0; u < n; u++ {
		a.useOff[u+1] += a.useOff[u]
	}
	a.useList = resized(a.useList, int(a.useOff[n]))
	for v := 0; v < n; v++ {
		ops = f.Operands(qir.Value(v), ops[:0])
		for _, u := range ops {
			a.useList[a.useOff[u]] = qir.Value(v)
			a.useOff[u]++
		}
	}
	copy(a.useOff[1:], a.useOff[:n])
	a.useOff[0] = 0
	a.work = ops[:0]
}

// users returns the instructions that read v.
func (a *Analysis) users(v qir.Value) []qir.Value {
	return a.useList[a.useOff[v]:a.useOff[v+1]]
}

// fixpoint runs the global sparse worklist iteration with widening.
func (a *Analysis) fixpoint() {
	f := a.F
	n := len(f.Instrs)
	a.vals = resized(a.vals, n)
	for i := range a.vals {
		a.vals[i] = undefVal()
	}
	a.updates = resized(a.updates, n)
	a.inWork = a.bits(a.inWork)

	// Seed with every value-producing instruction of every reachable block,
	// in RPO. Stores, branches and void calls have no abstract value anyone
	// reads; leaving their inWork bit set for the whole run keeps the user
	// loop below from queueing them. The list is never compacted: widening
	// bounds total pushes to O(n * widenAfter * fanout).
	work := a.work[:0]
	for _, b := range a.Dom.RPO {
		for _, v := range f.Blocks[b].List {
			a.inWork.Set(v)
			if f.Instrs[v].Type != qir.Void {
				work = append(work, v)
			}
		}
	}
	for i := 0; i < len(work); i++ {
		v := work[i]
		a.inWork.Clear(v)
		old := a.vals[v]
		nv := a.evalAt(v)
		if nv == old {
			continue
		}
		if a.updates[v] >= widenAfter {
			nv = widen(old, nv)
		}
		if nv == old {
			continue
		}
		if a.updates[v] < 255 {
			a.updates[v]++
		}
		a.vals[v] = nv
		for _, u := range a.users(v) {
			if a.inWork.Get(u) {
				continue
			}
			a.inWork.Set(u)
			work = append(work, u)
		}
	}
	a.work = work[:0]
}

// consVal reads the current abstract value of u as observed in block b,
// meeting its range with the branch constraints active there (none during
// the first fixpoint round).
func (a *Analysis) consVal(b qir.BlockID, u qir.Value) absVal {
	av := a.vals[u]
	if a.constrained.Get(u) { // tested here too: most reads end at this bit, without the call
		c, _ := a.constraint(b, u)
		av.r = av.r.Meet(c)
	}
	return av
}

// constraint returns what the branches on the dominator-tree path to block b
// prove about v: the interval it lies in (Top when they say nothing) and
// whether it is non-null.
func (a *Analysis) constraint(b qir.BlockID, v qir.Value) (iv Interval, nonNull bool) {
	iv = Top()
	if !a.constrained.Get(v) {
		return iv, false
	}
	for b >= 0 {
		for _, e := range a.consEnt[a.consLo[b]:a.consHi[b]] {
			switch {
			case e.v != v:
			case e.nonNull:
				nonNull = true
			default:
				iv = iv.Meet(e.iv)
			}
		}
		up := a.Dom.Idom[b]
		if up == b {
			break
		}
		b = up
	}
	return iv, nonNull
}

// evalAt evaluates instruction v in its defining block's context. Phi
// incomings are observed under the corresponding predecessor's constraints
// (the value flows along that edge); all other operands under the
// constraints of v's own block.
func (a *Analysis) evalAt(v qir.Value) absVal {
	in := &a.F.Instrs[v]
	if a.hasFact.Get(v) {
		return a.factVal(v, a.Facts.ValFacts[v])
	}
	if in.Op == qir.OpPhi {
		pairs := a.F.PhiPairs(v)
		out := undefVal()
		for i := 0; i < len(pairs); i += 2 {
			pred := qir.BlockID(pairs[i])
			if a.Dom.Num[pred] < 0 {
				continue // value from an unreachable predecessor never flows
			}
			out = out.join(a.consVal(pred, pairs[i+1]))
		}
		return out
	}
	return a.eval(v, a.posBlock[v], -1)
}

// widen blows unstable bounds of the new value out to infinity so loops
// converge.
func widen(old, nv absVal) absVal {
	if !old.def {
		return nv
	}
	if nv.r.Lo < old.r.Lo {
		nv.r.Lo = NegInf
	}
	if nv.r.Hi > old.r.Hi {
		nv.r.Hi = PosInf
	}
	if nv.anchor != qir.NoValue {
		if nv.off.Lo < old.off.Lo {
			nv.off.Lo = NegInf
		}
		if nv.off.Hi > old.off.Hi {
			nv.off.Hi = PosInf
		}
	}
	return nv
}

// factVal builds the abstract value of a value carrying a PtrFact: anchored
// at itself with point offset zero. Its integer range stays unknown (VM
// addresses are opaque); nullness comes from the contract.
func (a *Analysis) factVal(v qir.Value, ft PtrFact) absVal {
	out := topVal()
	out.anchor = v
	out.off = Point(0)
	out.nonNull = !ft.MaybeNull
	if !ft.MaybeNull {
		out.r = Interval{a.Facts.MinValid, PosInf}
	} else {
		out.r = Interval{0, PosInf}
	}
	return out
}

// eval is the transfer function: the abstract value of instruction v given
// its operands as seen from block b. It is shared between the global fixpoint
// (depth < 0: operands are the current state under b's constraints) and the
// contextual refinement queries (depth >= 0: operands are re-evaluated
// recursively, depth levels deep).
func (a *Analysis) eval(v qir.Value, b qir.BlockID, depth int) absVal {
	f := a.F
	in := &f.Instrs[v]
	if a.hasFact.Get(v) {
		return a.factVal(v, a.Facts.ValFacts[v])
	}
	switch in.Op {
	case qir.OpParam:
		out := topVal()
		idx := int(in.Aux)
		if in.Type == qir.Ptr {
			if sz := a.Facts.paramRegion(idx); sz > 0 {
				out.anchor = v
				out.off = Point(0)
				out.nonNull = true
			}
		} else if r, ok := a.Facts.paramRange(idx); ok {
			out.r = r
		}
		return out

	case qir.OpConst:
		out := topVal()
		if a.wide.Get(v) {
			// Hoisted, or about to be: the value is bound at execution time,
			// so only the type width is known.
			out.r = loadBounds(in.Type)
			return out
		}
		out.r = Point(in.Imm)
		out.nonNull = in.Type == qir.Ptr && in.Imm >= a.Facts.MinValid
		return out

	case qir.OpConstPool:
		// The slot value is bound per execution; only the type width is
		// known (slots hold canonical sign-extended values, so the typed
		// load bounds are exact).
		out := topVal()
		out.r = loadBounds(in.Type)
		return out

	case qir.OpNull:
		out := topVal()
		out.r = Point(0)
		return out

	case qir.OpConstF, qir.OpConst128, qir.OpConstStr, qir.OpFuncAddr,
		qir.OpCrc32, qir.OpLMulFold, qir.OpFBits,
		qir.OpFAdd, qir.OpFSub, qir.OpFMul, qir.OpFDiv,
		qir.OpBitsF, qir.OpSIToFP, qir.OpCall:
		return topVal()

	case qir.OpAdd:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := a.derivePtr(x, y.r)
		out.r = x.r.Add(y.r)
		out.def = x.def && y.def
		return out

	case qir.OpSub:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := a.derivePtr(x, y.r.Neg())
		out.r = x.r.Sub(y.r)
		out.def = x.def && y.def
		return out

	case qir.OpMul:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.r = x.r.Mul(y.r)
		out.def = x.def && y.def
		return out

	case qir.OpSAddTrap:
		// Traps instead of wrapping, so saturating endpoints are sound.
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.r = x.r.AddSat(y.r)
		out.def = x.def && y.def
		return out
	case qir.OpSSubTrap:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.r = x.r.SubSat(y.r)
		out.def = x.def && y.def
		return out
	case qir.OpSMulTrap:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.r = x.r.MulSat(y.r)
		out.def = x.def && y.def
		return out

	case qir.OpSDiv, qir.OpUDiv:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.def = x.def && y.def
		// Only the easy, common shape: positive divisor, non-negative (or
		// any finite, for sdiv) dividend. Division truncates toward zero
		// and is monotone in the dividend for fixed positive divisor.
		if y.r.Lo >= 1 && !x.r.IsTop() && x.r.Lo != NegInf && x.r.Hi != PosInf && y.r.Hi != PosInf {
			c := [4]int64{x.r.Lo / y.r.Lo, x.r.Lo / y.r.Hi, x.r.Hi / y.r.Lo, x.r.Hi / y.r.Hi}
			lo, hi := c[0], c[0]
			for _, q := range c[1:] {
				lo, hi = min64(lo, q), max64(hi, q)
			}
			if in.Op == qir.OpUDiv && x.r.Lo < 0 {
				// Negative dividend reinterpreted unsigned: give up.
				return out
			}
			out.r = Interval{lo, hi}
		}
		return out

	case qir.OpSRem, qir.OpURem:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.def = x.def && y.def
		if y.r.Lo >= 1 && y.r.Hi != PosInf {
			if x.r.Lo >= 0 {
				out.r = Interval{0, y.r.Hi - 1}
			} else if in.Op == qir.OpSRem {
				out.r = Interval{-(y.r.Hi - 1), y.r.Hi - 1}
			}
		}
		return out

	case qir.OpAnd:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.def = x.def && y.def
		if x.r.Lo >= 0 || y.r.Lo >= 0 {
			// A non-negative operand bounds the AND: 0 <= x&y <= x.
			hi := int64(PosInf)
			if x.r.Lo >= 0 {
				hi = x.r.Hi
			}
			if y.r.Lo >= 0 {
				hi = min64(hi, y.r.Hi)
			}
			out.r = Interval{0, hi}
		}
		return out

	case qir.OpOr, qir.OpXor:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.def = x.def && y.def
		if x.r.Lo >= 0 && y.r.Lo >= 0 && x.r.Hi != PosInf && y.r.Hi != PosInf {
			out.r = Interval{0, nextPow2Minus1(max64(x.r.Hi, y.r.Hi))}
		}
		return out

	case qir.OpShl:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.def = x.def && y.def
		if y.r.IsPoint() && y.r.Lo >= 0 && y.r.Lo < 63 {
			out.r = x.r.Mul(Point(int64(1) << uint(y.r.Lo)))
		}
		return out

	case qir.OpShr:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.def = x.def && y.def
		if x.r.Lo >= 0 && y.r.Lo >= 0 {
			sh := min64(y.r.Lo, 63)
			hi := x.r.Hi
			if hi != PosInf {
				hi >>= uint(sh)
			}
			out.r = Interval{0, hi}
		}
		return out

	case qir.OpSar:
		x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
		out := topVal()
		out.def = x.def && y.def
		if y.r.Lo >= 0 && y.r.Hi <= 63 {
			c := [4]int64{
				sar(x.r.Lo, y.r.Lo), sar(x.r.Lo, y.r.Hi),
				sar(x.r.Hi, y.r.Lo), sar(x.r.Hi, y.r.Hi),
			}
			lo, hi := c[0], c[0]
			for _, q := range c[1:] {
				lo, hi = min64(lo, q), max64(hi, q)
			}
			out.r = Interval{lo, hi}
		}
		return out

	case qir.OpNeg:
		x := a.operand(b, depth, in.A)
		out := topVal()
		out.r = x.r.Neg()
		out.def = x.def
		return out

	case qir.OpNot:
		// ^x == -x-1.
		x := a.operand(b, depth, in.A)
		out := topVal()
		out.r = x.r.Neg().Sub(Point(1))
		out.def = x.def
		return out

	case qir.OpICmp, qir.OpFCmp:
		out := topVal()
		out.r = Interval{0, 1}
		if in.Op == qir.OpICmp {
			x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B)
			out.def = x.def && y.def
			if val, known := cmpEval(in.Cmp(), x.r, y.r); known {
				if val {
					out.r = Point(1)
				} else {
					out.r = Point(0)
				}
			}
		}
		return out

	case qir.OpZExt:
		// Result is the low source-width bits zero-extended; if the operand
		// is already a canonical unsigned value of that width the range
		// passes through unchanged.
		x := a.operand(b, depth, in.A)
		out := topVal()
		out.def = x.def
		ub := unsignedBounds(f.ValueType(in.A))
		if x.r.Lo >= 0 && x.r.Hi <= ub.Hi {
			out.r = x.r
		} else {
			out.r = ub
		}
		return out

	case qir.OpSExt:
		x := a.operand(b, depth, in.A)
		out := topVal()
		out.def = x.def
		st := f.ValueType(in.A)
		if st == qir.I1 {
			// Back-ends differ on whether i1 sign-extends the low bit
			// (0/-1) or passes 0/1; cover both.
			out.r = Interval{-1, 1}
			if x.r.Hi <= 0 && x.r.Lo >= 0 {
				out.r = Point(0)
			}
			return out
		}
		tb := TypeBounds(st.Size())
		if tb.IsTop() || (x.r.Lo >= tb.Lo && x.r.Hi <= tb.Hi) {
			out.r = x.r
		} else {
			out.r = tb
		}
		return out

	case qir.OpTrunc:
		x := a.operand(b, depth, in.A)
		out := topVal()
		out.def = x.def
		if in.Type.Size() >= 8 {
			out.r = x.r
		} else if x.r.Lo >= 0 && x.r.Hi <= TypeBounds(in.Type.Size()).Hi {
			// Fits the narrow width with the sign bit clear: identical
			// under both truncation conventions.
			out.r = x.r
		} else {
			out.r = loadBounds(in.Type)
		}
		return out

	case qir.OpFPToSI:
		out := topVal()
		out.r = TypeBounds(in.Type.Size())
		return out

	case qir.OpGEP:
		x := a.operand(b, depth, in.A)
		delta := Point(in.Imm)
		var idxDef = true
		if in.B != qir.NoValue {
			y := a.operand(b, depth, in.B)
			idxDef = y.def
			delta = delta.Add(y.r.Mul(Point(int64(in.Aux))))
		}
		out := a.derivePtr(x, delta)
		out.r = x.r.Add(delta)
		out.def = x.def && idxDef
		return out

	case qir.OpLoad:
		out := topVal()
		// Width-limited result; loads may zero- or sign-extend depending
		// on the back-end, so cover both interpretations.
		out.r = loadBounds(in.Type)
		return out

	case qir.OpSelect:
		c, x, y := a.operand(b, depth, in.A), a.operand(b, depth, in.B), a.operand(b, depth, in.C)
		out := x.join(y)
		out.def = out.def && c.def
		return out

	case qir.OpPhi:
		// Handled by evalAt (incomings need per-predecessor context) and
		// deliberately not re-evaluated by the contextual queries.
		return a.vals[v]

	default:
		// Terminators, stores and anything unhandled produce no value.
		return topVal()
	}
}

// operand reads u for eval: the fixpoint's view of it or the contextual one.
func (a *Analysis) operand(b qir.BlockID, depth int, u qir.Value) absVal {
	if depth < 0 {
		return a.consVal(b, u)
	}
	return a.valAt(b, u, depth)
}

// derivePtr propagates a pointer derivation through an offset adjustment.
func (a *Analysis) derivePtr(base absVal, delta Interval) absVal {
	out := topVal()
	if base.anchor != qir.NoValue {
		out.anchor = base.anchor
		out.off = base.off.Add(delta)
		out.nonNull = base.nonNull
	}
	return out
}

func sar(v, sh int64) int64 {
	if v == NegInf || v == PosInf {
		return v
	}
	return v >> uint(sh)
}

func nextPow2Minus1(v int64) int64 {
	if v <= 0 {
		return 0
	}
	r := int64(1)
	for r-1 < v {
		if r > PosInf/2 {
			return PosInf
		}
		r <<= 1
	}
	return r - 1
}

// unsignedBounds is the value range of a zero-extended t-typed quantity.
func unsignedBounds(t qir.Type) Interval {
	switch t {
	case qir.I1:
		return Interval{0, 1}
	case qir.I8:
		return Interval{0, 0xFF}
	case qir.I16:
		return Interval{0, 0xFFFF}
	case qir.I32:
		return Interval{0, 0xFFFFFFFF}
	}
	return Top()
}

// loadBounds covers both sign- and zero-extending interpretations of a load.
func loadBounds(t qir.Type) Interval {
	switch t {
	case qir.I1:
		return Interval{0, 1}
	case qir.I8:
		return Interval{-0x80, 0xFF}
	case qir.I16:
		return Interval{-0x8000, 0xFFFF}
	case qir.I32:
		return Interval{-0x80000000, 0xFFFFFFFF}
	}
	return Top()
}

// cmpEval decides an integer comparison over intervals when possible.
func cmpEval(p qir.Cmp, x, y Interval) (val, known bool) {
	if x.Empty() || y.Empty() {
		return false, false
	}
	unsignedOK := x.Lo >= 0 && y.Lo >= 0
	switch p {
	case qir.CmpEQ:
		if x.IsPoint() && y.IsPoint() && x.Lo == y.Lo {
			return true, true
		}
		if x.Meet(y).Empty() {
			return false, true
		}
	case qir.CmpNE:
		if v, k := cmpEval(qir.CmpEQ, x, y); k {
			return !v, true
		}
	case qir.CmpSLT:
		if x.Hi < y.Lo {
			return true, true
		}
		if x.Lo >= y.Hi {
			return false, true
		}
	case qir.CmpSLE:
		if x.Hi <= y.Lo {
			return true, true
		}
		if x.Lo > y.Hi {
			return false, true
		}
	case qir.CmpSGT:
		return cmpEval(qir.CmpSLT, y, x)
	case qir.CmpSGE:
		return cmpEval(qir.CmpSLE, y, x)
	case qir.CmpULT:
		if unsignedOK {
			return cmpEval(qir.CmpSLT, x, y)
		}
	case qir.CmpULE:
		if unsignedOK {
			return cmpEval(qir.CmpSLE, x, y)
		}
	case qir.CmpUGT:
		if unsignedOK {
			return cmpEval(qir.CmpSGT, x, y)
		}
	case qir.CmpUGE:
		if unsignedOK {
			return cmpEval(qir.CmpSGE, x, y)
		}
	}
	return false, false
}

// buildConstraints derives the per-block branch-condition refinements: for
// every conditional edge p->b where b has p as its only predecessor, the
// branch condition (or its negation) holds throughout the region b
// dominates. Constraints compose down the dominator tree; processing in RPO
// guarantees the unique predecessor (== idom) is finished first.
func (a *Analysis) buildConstraints() {
	a.resetConstraints()
	for _, b := range a.Dom.RPO {
		a.consLo[b] = int32(len(a.consEnt))
		a.branchConstraints(b)
		a.consHi[b] = int32(len(a.consEnt))
	}
}

func (a *Analysis) resetConstraints() {
	a.consEnt = a.consEnt[:0]
	a.consLo = resized(a.consLo, len(a.F.Blocks))
	a.consHi = resized(a.consHi, len(a.F.Blocks))
	a.constrained = a.bits(a.constrained)
}

func (a *Analysis) addConstraint(e consEntry) {
	if !e.nonNull && e.iv.IsTop() {
		return
	}
	a.consEnt = append(a.consEnt, e)
	a.constrained.Set(e.v)
}

// branchConstraints appends the entries block b itself contributes.
func (a *Analysis) branchConstraints(b qir.BlockID) {
	f := a.F
	preds := f.Blocks[b].Preds
	if len(preds) != 1 {
		return
	}
	p := preds[0]
	if a.Dom.Num[p] < 0 || a.Dom.Num[p] > a.Dom.Num[b] {
		return // unreachable pred or back edge
	}
	t := f.Blocks[p].Terminator()
	if t == qir.NoValue {
		return
	}
	term := &f.Instrs[t]
	if term.Op != qir.OpCondBr {
		return
	}
	tTgt, fTgt := qir.BlockID(term.Aux), term.B
	if tTgt == fTgt {
		return // both arms reach b: the condition tells us nothing
	}
	taken := tTgt == b
	cond := term.A
	// The condition value itself is pinned on each arm.
	if taken {
		a.addConstraint(consEntry{v: cond, iv: Point(1)})
	} else {
		a.addConstraint(consEntry{v: cond, iv: Point(0)})
	}
	ci := &f.Instrs[cond]
	if ci.Op != qir.OpICmp {
		return
	}
	pred := ci.Cmp()
	if !taken {
		pred = negateCmp(pred)
	}
	xr := a.rangeWithCons(p, ci.A)
	yr := a.rangeWithCons(p, ci.B)
	nx, ny := refineByCmp(pred, xr, yr)
	a.addConstraint(consEntry{v: ci.A, iv: nx})
	a.addConstraint(consEntry{v: ci.B, iv: ny})
	// `p != null` (the negation of an `p == null` guard) proves
	// non-nullness for the region b dominates.
	if pred == qir.CmpNE {
		if yr.IsPoint() && yr.Lo == 0 {
			a.addConstraint(consEntry{v: ci.A, nonNull: true})
		}
		if xr.IsPoint() && xr.Lo == 0 {
			a.addConstraint(consEntry{v: ci.B, nonNull: true})
		}
	}
}

// rangeWithCons is the global range of v met with the constraints active at
// block b (no recursive refinement; used while constraints are being built).
func (a *Analysis) rangeWithCons(b qir.BlockID, v qir.Value) Interval {
	c, _ := a.constraint(b, v)
	return a.vals[v].r.Meet(c)
}

func negateCmp(p qir.Cmp) qir.Cmp {
	switch p {
	case qir.CmpEQ:
		return qir.CmpNE
	case qir.CmpNE:
		return qir.CmpEQ
	case qir.CmpSLT:
		return qir.CmpSGE
	case qir.CmpSLE:
		return qir.CmpSGT
	case qir.CmpSGT:
		return qir.CmpSLE
	case qir.CmpSGE:
		return qir.CmpSLT
	case qir.CmpULT:
		return qir.CmpUGE
	case qir.CmpULE:
		return qir.CmpUGT
	case qir.CmpUGT:
		return qir.CmpULE
	case qir.CmpUGE:
		return qir.CmpULT
	}
	return p
}

// refineByCmp narrows both operand ranges under the assumption "x p y".
func refineByCmp(p qir.Cmp, x, y Interval) (nx, ny Interval) {
	nx, ny = x, y
	switch p {
	case qir.CmpEQ:
		nx = x.Meet(y)
		ny = nx
	case qir.CmpNE:
		if y.IsPoint() {
			if x.Lo == y.Lo {
				nx.Lo = SatAdd(nx.Lo, 1)
			}
			if x.Hi == y.Lo {
				nx.Hi = SatAdd(nx.Hi, -1)
			}
		}
		if x.IsPoint() {
			if y.Lo == x.Lo {
				ny.Lo = SatAdd(ny.Lo, 1)
			}
			if y.Hi == x.Lo {
				ny.Hi = SatAdd(ny.Hi, -1)
			}
		}
	case qir.CmpSLT:
		nx.Hi = min64(nx.Hi, SatAdd(y.Hi, -1))
		ny.Lo = max64(ny.Lo, SatAdd(x.Lo, 1))
	case qir.CmpSLE:
		nx.Hi = min64(nx.Hi, y.Hi)
		ny.Lo = max64(ny.Lo, x.Lo)
	case qir.CmpSGT:
		ny, nx = refineByCmp(qir.CmpSLT, y, x)
	case qir.CmpSGE:
		ny, nx = refineByCmp(qir.CmpSLE, y, x)
	case qir.CmpULT:
		// x u< y with y >= 0 pins x into [0, y.Hi-1] — the canonical
		// bounds-check shape. Refining y upward requires knowing x >= 0.
		if y.Lo >= 0 {
			nx = nx.Meet(Interval{0, SatAdd(y.Hi, -1)})
		}
		if x.Lo >= 0 {
			ny.Lo = max64(ny.Lo, SatAdd(x.Lo, 1))
		}
	case qir.CmpULE:
		if y.Lo >= 0 {
			nx = nx.Meet(Interval{0, y.Hi})
		}
		if x.Lo >= 0 {
			ny.Lo = max64(ny.Lo, x.Lo)
		}
	case qir.CmpUGT:
		ny, nx = refineByCmp(qir.CmpULT, y, x)
	case qir.CmpUGE:
		ny, nx = refineByCmp(qir.CmpULE, y, x)
	}
	return nx, ny
}

// valAt is the block-contextual abstract value: the global result met with
// branch constraints, sharpened by depth-bounded re-evaluation through the
// operand chain. Phi nodes are deliberately not re-evaluated recursively —
// their precision comes from constraints attached to the phi value itself —
// which keeps the refinement sound without iteration.
func (a *Analysis) valAt(b qir.BlockID, v qir.Value, depth int) absVal {
	av := a.vals[v]
	c, nn := a.constraint(b, v)
	av.r = av.r.Meet(c)
	av.nonNull = av.nonNull || nn
	if depth <= 0 || !av.def {
		return av
	}
	in := &a.F.Instrs[v]
	if in.Op == qir.OpPhi || in.Op == qir.OpParam || in.Op.IsConst() {
		return av
	}
	re := a.eval(v, b, depth-1)
	av.r = av.r.Meet(re.r)
	if av.anchor == qir.NoValue && re.anchor != qir.NoValue {
		av.anchor, av.off = re.anchor, re.off
	} else if av.anchor != qir.NoValue && av.anchor == re.anchor {
		av.off = av.off.Meet(re.off)
	}
	av.nonNull = av.nonNull || re.nonNull
	return av
}

// Range returns the context-free value range of v.
func (a *Analysis) Range(v qir.Value) Interval { return a.vals[v].r }

// RangeAt returns the value range of v at any point dominated by block b's
// entry, refined by the branch conditions proven on the path to b.
func (a *Analysis) RangeAt(b qir.BlockID, v qir.Value) Interval {
	return a.valAt(b, v, maxRefineDepth).r
}

// NonNull reports whether v is proven non-null.
func (a *Analysis) NonNull(v qir.Value) bool { return a.vals[v].nonNull }

// Derivation returns the pointer derivation of v: the anchoring parameter
// and the byte-offset interval from it. ok is false for unanchored values.
func (a *Analysis) Derivation(v qir.Value) (anchor qir.Value, off Interval, ok bool) {
	av := a.vals[v]
	return av.anchor, av.off, av.anchor != qir.NoValue
}

// accessSafe reports whether a size-byte access through an address whose
// contextual value is av, executed in block b, is statically proven
// in-bounds. reason describes the proof.
func (a *Analysis) accessSafe(b qir.BlockID, av absVal, size int64) (bool, string) {
	if size <= 0 {
		return false, ""
	}
	if av.anchor != qir.NoValue {
		if lo, hi, ok := a.anchorRegion(av.anchor); ok &&
			av.off.Lo >= lo && av.off.Hi != PosInf && av.off.Hi <= hi-size &&
			a.nonNullAt(b, av.anchor) {
			return true, "region"
		}
	}
	if av.r.Lo > 0 && av.r.Hi != PosInf {
		for _, reg := range a.Facts.Regions {
			if av.r.Lo >= reg.Base && av.r.Hi+size <= reg.Base+reg.Size {
				return true, "absolute"
			}
		}
	}
	return false, ""
}

// anchorRegion returns the valid byte range [lo, hi) around an anchor value
// (relative to the anchor itself): [0, size) for parameters with a declared
// region, [-Pre, Post) for values carrying a PtrFact.
func (a *Analysis) anchorRegion(anchor qir.Value) (lo, hi int64, ok bool) {
	if a.hasFact.Get(anchor) {
		ft := a.Facts.ValFacts[anchor]
		return -ft.Pre, ft.Post, true
	}
	in := &a.F.Instrs[anchor]
	if in.Op == qir.OpParam {
		if sz := a.Facts.paramRegion(int(in.Aux)); sz > 0 {
			return 0, sz, true
		}
	}
	return 0, 0, false
}

// nonNullAt reports whether v is proven non-null at any point dominated by
// block b's entry (globally, or by a dominating null-check branch).
func (a *Analysis) nonNullAt(b qir.BlockID, v qir.Value) bool {
	if a.vals[v].nonNull {
		return true
	}
	_, nn := a.constraint(b, v)
	return nn
}

// Access describes one memory instruction and the analysis verdict on it.
type Access struct {
	V     qir.Value
	Block qir.BlockID
	Size  int64
	Store bool
	// Safe means the runtime bounds/null check is provably redundant.
	Safe bool
	// Reason is "region", "absolute" or "redundant" when Safe.
	Reason string
}

// accessKey names the bytes an access touches, for the redundancy tier: a
// point offset from an anchor (kind 0), a point absolute address (kind 1),
// or failing both the address's SSA value (kind 2). invariant says the
// address is the same on every execution within one activation, so coverage
// carries across blocks; equal keys agree on it.
type accessKey struct {
	anchor    qir.Value // NoValue for absolute or ssa-value keys
	base      int64     // offset (anchored), address (absolute), value id (ssa)
	kind      uint8
	invariant bool
}

// addrVal is the contextual value of the address of load/store v in block b.
func (a *Analysis) addrVal(b qir.BlockID, v qir.Value) absVal {
	if !a.addrKnown.Get(v) {
		a.addrKnown.Set(v)
		a.addrVals[v] = a.valAt(b, a.F.Instrs[v].A, maxRefineDepth)
	}
	return a.addrVals[v]
}

func (a *Analysis) addrKey(addr qir.Value, av absVal) accessKey {
	if av.anchor != qir.NoValue && av.off.IsPoint() {
		// Only parameter anchors are activation-invariant: a call-result or
		// phi anchor (PtrFact) can take a new value on every loop iteration.
		return accessKey{av.anchor, av.off.Lo, 0, a.F.Instrs[av.anchor].Op == qir.OpParam}
	}
	if av.r.IsPoint() {
		return accessKey{qir.NoValue, av.r.Lo, 1, true}
	}
	return accessKey{qir.NoValue, int64(addr), 2, false}
}

// Accesses classifies every load and store in reachable blocks. Beyond the
// range/region proofs it applies a dominance-based redundancy tier: an
// access whose bytes are covered by a dominating access at the same
// activation-invariant address needs no check, because VM memory validity is
// monotone (the arena never shrinks) and the dominating access either
// checked or proved the same bytes. The slice is a's own and is overwritten
// by the next call.
func (a *Analysis) Accesses() []Access {
	f := a.F
	out, keys := a.accs[:0], a.keys[:0]
	unproven := 0
	for _, b := range a.Dom.RPO {
		for _, v := range f.Blocks[b].List {
			in := &f.Instrs[v]
			if in.Op != qir.OpLoad && in.Op != qir.OpStore {
				continue
			}
			acc := Access{V: v, Block: b, Store: in.Op == qir.OpStore}
			if acc.Store {
				acc.Size = f.ValueType(in.B).Size()
			} else {
				acc.Size = in.Type.Size()
			}
			av := a.addrVal(b, v)
			acc.Safe, acc.Reason = a.accessSafe(b, av, acc.Size)
			if !acc.Safe {
				unproven++
			}
			keys = append(keys, a.addrKey(in.A, av))
			out = append(out, acc)
		}
	}
	a.accs, a.keys = out, keys
	// Redundancy tier: an unproven access y is covered by any other access x
	// of the same key that is at least as wide and runs first — earlier in
	// y's block, or in a dominating block when the address is invariant
	// (same-SSA keys may be loop-variant).
	for i := 0; i < len(out) && unproven > 0; i++ {
		ya := &out[i]
		if ya.Safe {
			continue
		}
		unproven--
		for j := range out {
			xa := &out[j]
			if j == i || xa.Size < ya.Size || keys[j] != keys[i] {
				continue
			}
			if xa.Block == ya.Block {
				if a.posIdx[xa.V] >= a.posIdx[ya.V] {
					continue
				}
			} else if !keys[i].invariant || !a.Dom.Dominates(xa.Block, ya.Block) {
				continue
			}
			ya.Safe, ya.Reason = true, "redundant"
			break
		}
	}
	return out
}

// ReachesAddress reports whether the abstract value of any load or store
// address can depend on the abstract value of one of srcs. It over-
// approximates the dependence as the forward def-use closure of srcs, through
// phis and everything else that reads a value, extended at each integer
// comparison it meets to both of the comparison's operands: a branch on the
// comparison constrains each operand by the range of the other, so both may
// change with srcs wherever the branch dominates. Values carrying a PtrFact
// stop the walk; their abstract value is the contract's, whatever they read.
//
// When it returns false, two analyses of F that differ only in the abstract
// values of srcs agree on everything outside the closure — a value out there
// reads, and is constrained against, only values out there, and the work list
// visits them in the same order — and so on every access's contextual address
// value, verdict, reason and redundancy key. It reads the structure of F and
// which values carry a PtrFact, not the results of the last run.
func (a *Analysis) ReachesAddress(srcs []qir.Value) bool {
	f := a.F
	a.inWork = a.bits(a.inWork)
	seen, work := a.inWork, a.work[:0]
	defer func() { a.work = work[:0] }()
	push := func(v qir.Value) {
		if !seen.Get(v) {
			seen.Set(v)
			work = append(work, v)
		}
	}
	for _, v := range srcs {
		push(v)
	}
	for i := 0; i < len(work); i++ {
		v := work[i]
		for _, u := range a.users(v) {
			in := &f.Instrs[u]
			if (in.Op == qir.OpLoad || in.Op == qir.OpStore) && in.A == v {
				return true
			}
			if a.hasFact.Get(u) {
				continue
			}
			if in.Op == qir.OpICmp {
				push(in.A)
				push(in.B)
			}
			push(u)
		}
	}
	return false
}
