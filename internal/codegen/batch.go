package codegen

import (
	"fmt"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// Batch-mode lowering: when Options.Batch is set, scan-heavy pipelines that
// end in an aggregation or join-build sink compile to a main function that
// calls the runtime's vectorized kernel once per morsel instead of a
// tuple-at-a-time loop. The pipeline may probe one hash join on the way (a
// probe kernel): the kernel then also walks the join's bucket chains and
// evaluates the sink over the matching (row, build entry) pairs. The kernel
// must reproduce tuple semantics bit-for-bit, including trap order, so
// anything with short-circuit evaluation, narrow-width trapping arithmetic,
// a second probe, a predicate after the join, or expressions the kernel does
// not vectorize falls back to the tuple loop (the per-operator mode choice
// from the hybrid-engine literature: Q1/Q6-style scans and their join probes
// go batch, point-lookup shapes stay tuple).
//
// One walk decides and lowers (batchKernel): it keeps the rules that keep a
// kernel equal to the tuple code and that a finished spec cannot show, and
// rt.CheckBatchSpec holds every rule it can check on the spec.

// batchChain is a kernel candidate's pipeline prefix: one scan plus a
// conjunct list applied in tuple evaluation order, and for a probe kernel
// the join its rows probe.
type batchChain struct {
	scan    *plan.Scan
	tbl     *rt.Table
	nodes   []plan.Node // scan-to-sink chain, for provenance
	filters []plan.Expr
	// join is a probe kernel's join, nil for a scan kernel. The chain's
	// output is then the join's: the build side's columns, read from the
	// matched entry at jl's slots, then the scanned table's. jl and jht (the
	// join table's state offset) are set once the build side is generated.
	join *plan.HashJoin
	jl   rowLayout
	jht  int64
}

// batchScanChain matches a pipeline input of the form
// Select*(Scan(filter?)) and returns its filters in the order the tuple
// code evaluates them (scan filter first, then selects innermost-out).
func (c *Compiler) batchScanChain(n plan.Node) *batchChain {
	var sels []*plan.Select
	for {
		switch x := n.(type) {
		case *plan.Select:
			sels = append(sels, x)
			n = x.Input
		case *plan.Scan:
			tbl, err := c.cat.Table(x.Table)
			if err != nil || len(tbl.Cols) != len(x.Cols) {
				return nil
			}
			bc := &batchChain{scan: x, tbl: tbl}
			if x.Filter != nil {
				bc.filters = appendConjuncts(bc.filters, x.Filter)
			}
			bc.nodes = append(bc.nodes, x)
			for i := len(sels) - 1; i >= 0; i-- {
				bc.filters = appendConjuncts(bc.filters, sels[i].Pred)
				bc.nodes = append(bc.nodes, sels[i])
			}
			return bc
		default:
			return nil
		}
	}
}

// appendConjuncts appends the conjuncts of e to out, left to right: one
// kernel filter each, so a long AND chain stays a flat list instead of a
// tree deeper than rt.BatchMaxDepth. Filters are trap-free, so refining the
// selection conjunct by conjunct keeps the rows of the tuple code's AND.
func appendConjuncts(out []plan.Expr, e plan.Expr) []plan.Expr {
	if x, ok := e.(*plan.Logic); ok && x.Op == plan.OpAnd {
		return appendConjuncts(appendConjuncts(out, x.L), x.R)
	}
	return append(out, e)
}

// batchType maps a QIR type to its kernel evaluation type. I1 is excluded:
// the tuple code sign-extends booleans from bit 0 (true becomes -1 in a
// widened slot), which byte-width loads cannot reproduce.
func batchType(t qir.Type) (rt.BatchType, bool) {
	switch t {
	case qir.I8, qir.I16, qir.I32, qir.I64:
		return rt.BTInt, true
	case qir.I128:
		return rt.BTI128, true
	case qir.F64:
		return rt.BTF64, true
	case qir.Str:
		return rt.BTStr, true
	}
	return 0, false
}

// widenedCol returns the integer column a cast to I64 widens, or nil.
func widenedCol(x *plan.Cast) *plan.Col {
	col, ok := x.E.(*plan.Col)
	if !ok || x.To != qir.I64 {
		return nil
	}
	if bt, ok := batchType(col.Ty); !ok || bt != rt.BTInt {
		return nil
	}
	return col
}

// batchSource matches the input of a batch pipeline's sink under
// Options.Batch: Select*(Scan), or a hash join on at least one key whose
// probe side is one. It only reads the plan and the catalog; whether the
// chain's expressions have a kernel form is batchKernel's to decide.
func (c *Compiler) batchSource(n plan.Node) *batchChain {
	if !c.opts.Batch {
		return nil
	}
	j, probe := n.(*plan.HashJoin)
	if probe {
		if len(j.ProbeKeys) == 0 {
			return nil
		}
		n = j.Probe
	}
	bc := c.batchScanChain(n)
	if bc != nil && probe {
		bc.join = j
	}
	return bc
}

// kernelWalk is the walk that lowers one kernel's plan expressions. Each
// role (leaf, value, filter, key) has one method, which returns the
// expression's kernel form or declines; a declined walk's spec is dropped.
// Filters and probe keys read the scanned table's columns, the sink reads
// the chain's output (out).
type kernelWalk struct {
	c        *Compiler
	bc       *batchChain
	out      bool
	declined bool
}

// decline marks the walk declined; its nil stands where the expression's
// kernel form would.
func (w *kernelWalk) decline() *rt.BatchExpr {
	w.declined = true
	return nil
}

// column is the kernel form of column idx: of the chain's output (a column
// of the scanned table, or of a probe kernel's build side) or of the scanned
// table. A scanned column of no kernel type declines.
func (w *kernelWalk) column(idx int) *rt.BatchExpr {
	if j := w.bc.join; w.out && j != nil {
		build := j.Build.Schema()
		if idx < len(build) {
			bt, _ := batchType(build[idx].Type) // every build column has one (batchKernel)
			slot := len(j.BuildKeys) + idx
			return &rt.BatchExpr{Kind: rt.BEBuildCol, Ty: bt, Base: uint64(w.bc.jl.offs[slot]),
				Elem: uint64(build[idx].Type.Size())}
		}
		idx -= len(build)
	}
	col := &w.bc.tbl.Cols[idx]
	bt, ok := batchType(col.Type)
	if !ok {
		return w.decline()
	}
	return &rt.BatchExpr{Kind: rt.BECol, Ty: bt, Base: col.Base, Elem: uint64(col.Type.Size())}
}

// leaf lowers a trap-free operand: a column or a literal. An integer column
// widened to I64 reads as the column: kernels load integers sign-extended to
// 64 bits, as the tuple code's sext widens them.
//
// With Options.Hoist a literal goes into a constant-pool slot of its own,
// which the executor reads when it prepares the kernel (rt.BEPool), so the
// spec does not depend on the literal's value. When the pool is full, or
// without Hoist, the spec holds the value, as rewriteToPool leaves a literal
// inline.
func (w *kernelWalk) leaf(e plan.Expr) *rt.BatchExpr {
	var k *rt.BatchExpr
	switch x := e.(type) {
	case *plan.Col:
		return w.column(x.Idx)
	case *plan.Cast:
		if col := widenedCol(x); col != nil {
			return w.column(col.Idx)
		}
		return w.decline()
	case *plan.ConstInt:
		if x.Ty == qir.I1 {
			return w.decline()
		}
		k = &rt.BatchExpr{Kind: rt.BEConst, Ty: rt.BTInt, I: x.V}
	case *plan.ConstDec:
		k = &rt.BatchExpr{Kind: rt.BEConst, Ty: rt.BTI128, D: x.V}
	case *plan.ConstFloat:
		k = &rt.BatchExpr{Kind: rt.BEConst, Ty: rt.BTF64, F: x.V}
	case *plan.ConstStr:
		k = &rt.BatchExpr{Kind: rt.BEConst, Ty: rt.BTStr, S: []byte(x.V)}
	default:
		return w.decline()
	}
	c := w.c
	if c.opts.Hoist && len(c.mod.Pool) < rt.ConstPoolSlots {
		pc, _ := PoolConstOf(e)
		slot := c.mod.AddPoolConst(pc)
		c.out.PoolLits = append(c.out.PoolLits, e)
		return &rt.BatchExpr{Kind: rt.BEPool, Ty: k.Ty, Slot: uint64(slot)}
	}
	c.out.InlineLits = append(c.out.InlineLits, e)
	return k
}

// value lowers an aggregate argument: a leaf; trapping add, sub or mul at
// I64, I128 or F64 width (narrow-width overflow, a trap when the result does
// not round-trip the narrow type, is not vectorized); or a CASE that cannot
// trap, with a filter condition and leaf branches of one QIR type.
func (w *kernelWalk) value(e plan.Expr) *rt.BatchExpr {
	switch x := e.(type) {
	case *plan.Arith:
		t := x.Type()
		if t != qir.I64 && t != qir.I128 && t != qir.F64 || x.Op > plan.OpMul {
			return w.decline()
		}
		bt, _ := batchType(t)
		return &rt.BatchExpr{Kind: rt.BEArith, Ty: bt, Op: uint8(x.Op), L: w.value(x.L), R: w.value(x.R)}
	case *plan.Case:
		bt, ok := batchType(x.Type())
		if !ok || x.Else.Type() != x.Type() {
			return w.decline()
		}
		return &rt.BatchExpr{Kind: rt.BECase, Ty: bt, L: w.filter(x.Cond), R: w.leaf(x.Then), H: w.leaf(x.Else)}
	}
	return w.leaf(e)
}

// filter lowers a conjunct. The kernel refines a selection vector per
// conjunct, so a filter must be trap-free: a compare or BETWEEN of leaves,
// whose QIR operand types agree (rt.BTInt cannot tell I32 from I64). AND
// chains arrive split (appendConjuncts); any other boolean operator stays
// tuple code.
func (w *kernelWalk) filter(e plan.Expr) *rt.BatchExpr {
	switch x := e.(type) {
	case *plan.Cmp:
		if bt, ok := batchType(x.L.Type()); ok {
			return &rt.BatchExpr{Kind: rt.BECmp, Ty: bt, Op: uint8(x.Op), L: w.leaf(x.L), R: w.leaf(x.R)}
		}
	case *plan.Between:
		t := x.E.Type()
		if bt, ok := batchType(t); ok && x.Lo.Type() == t && x.Hi.Type() == t {
			return &rt.BatchExpr{Kind: rt.BEBetween, Ty: bt, L: w.leaf(x.E), R: w.leaf(x.Lo), H: w.leaf(x.Hi)}
		}
	}
	return w.decline()
}

// key lowers a group, join or probe key into the slot at off: a plain
// column. F64 keys stay tuple code: the tuple chain walk compares them with
// an integer compare on the slot (bit equality), which the kernel's typed
// compare would not reproduce for NaN or signed zero.
func (w *kernelWalk) key(e plan.Expr, off int64) rt.BatchKey {
	col, ok := e.(*plan.Col)
	if !ok || col.Ty == qir.F64 {
		return rt.BatchKey{E: w.decline()}
	}
	bt, _ := batchType(col.Ty)
	return rt.BatchKey{Off: off, Ty: bt, E: w.column(col.Idx)}
}

// batchKernel lowers the kernel of a pipeline over bc, in one walk, into the
// tuple code's slot layout: an aggregation's (g, its aggregates at aggSlot)
// or, with g nil, the build of join j. Literals take pool slots left to
// right: filters, probe keys, keys, arguments. When the walk declines, or
// rt.CheckBatchSpec rejects the spec, it gives back the pool slots and
// literals it took and returns nil: the pipeline stays tuple code.
func (c *Compiler) batchKernel(bc *batchChain, layout rowLayout, g *plan.GroupBy, aggSlot []int, j *plan.HashJoin) *rt.BatchSpec {
	if bc == nil {
		return nil
	}
	pool, lits, inline := len(c.mod.Pool), len(c.out.PoolLits), len(c.out.InlineLits)
	w := &kernelWalk{c: c, bc: bc}
	spec := &rt.BatchSpec{Sink: rt.BatchSinkBuild, Width: uint64(layout.width)}
	for _, f := range bc.filters {
		spec.Filters = append(spec.Filters, w.filter(f))
	}
	if bc.join != nil {
		// The probed entries hold the build side's columns; one of no
		// kernel type (I1) keeps the probe tuple code, read or not.
		for _, col := range bc.join.Build.Schema() {
			if _, ok := batchType(col.Type); !ok {
				w.decline()
			}
		}
		for i, k := range bc.join.ProbeKeys {
			if widened(k.Type()) != widened(bc.join.BuildKeys[i].Type()) {
				w.decline()
			}
			spec.Probe = append(spec.Probe, w.key(k, bc.jl.offs[i]))
		}
	}
	w.out = true
	var keys []plan.Expr
	if g != nil {
		spec.Sink, keys = rt.BatchSinkAgg, g.Keys
	} else {
		keys = j.BuildKeys
	}
	for i, k := range keys {
		spec.Keys = append(spec.Keys, w.key(k, layout.offs[i]))
	}
	if g != nil {
		for i := range g.Aggs {
			a := &g.Aggs[i]
			ba := rt.BatchAgg{Fn: uint8(a.Fn), Ty: rt.BTInt, Off: layout.offs[aggSlot[i]]}
			if a.Fn == plan.AggAvg {
				ba.COff = layout.offs[aggSlot[i]+1]
			}
			if a.Arg != nil {
				ba.Ty, _ = batchType(layout.types[aggSlot[i]])
				ba.Arg = w.value(a.Arg)
			}
			spec.Aggs = append(spec.Aggs, ba)
		}
	} else {
		for i := range j.Build.Schema() {
			spec.Payload = append(spec.Payload, rt.BatchCol{Off: layout.offs[len(keys)+i], Src: w.column(i)})
		}
	}
	if w.declined || rt.CheckBatchSpec(spec) != nil {
		c.mod.Pool, c.out.PoolLits, c.out.InlineLits = c.mod.Pool[:pool], c.out.PoolLits[:lits], c.out.InlineLits[:inline]
		return nil
	}
	return spec
}

// pushChainProv mirrors the produce() recursion's provenance stack for a
// chain the batch emitter lowers without recursing: the probed join, then
// the outermost select, scan last (stack top = pipeline source).
func (c *Compiler) pushChainProv(bc *batchChain) int {
	n := 0
	if bc.join != nil {
		c.pushOp(joinProv(bc.join, "probe"))
		n++
	}
	for i := len(bc.nodes) - 1; i >= 0; i-- {
		if e, ok := provOf(bc.nodes[i]); ok {
			c.pushOp(e)
			n++
		}
	}
	return n
}

// emitBatchPipeline opens a SrcTable pipeline whose main function hands the
// whole morsel to the runtime kernel, whose program spec the pipeline carries
// for the executor to prepare. createSink emits the sink-create call into the
// setup function; cleanup (optional) emits into the cleanup function.
func (c *Compiler) emitBatchPipeline(bc *batchChain, spec *rt.BatchSpec, sink SinkKind, htOff int64,
	createSink func(sb *qir.Builder), cleanup func(cb *qir.Builder)) {
	npush := c.pushChainProv(bc)
	c.beginPipeline(SrcTable)
	for i := 0; i < npush; i++ {
		c.popOp()
	}
	c.pipe.Table = bc.scan.Table
	c.pipe.Sink = sink
	c.pipe.SinkOff = htOff
	c.pipe.Batch = true
	c.setMode(c.pipe.SetupFn, "batch")
	c.setMode(c.pipe.MainFn, "batch")
	c.setMode(c.pipe.CleanupFn, "batch")

	createSink(c.setup)
	bpOff := c.allocState(8)
	c.pipe.Kernel, c.pipe.KernelOff = spec, bpOff
	if cleanup != nil {
		cleanup(c.cleanup)
	}

	b := c.main
	lo, hi := b.Param(1), b.Param(2)
	if bc.join != nil {
		b.Call(qir.Void, rt.FnBatchProbe, loadStateHandle(b, bpOff), loadStateHandle(b, htOff),
			loadStateHandle(b, bc.jht), lo, hi)
	} else {
		b.Call(qir.Void, rt.FnBatchExec, loadStateHandle(b, bpOff), loadStateHandle(b, htOff), lo, hi)
	}
	b.Ret(qir.NoValue)
	c.endPipeline()
}

// hasF64Sum reports whether any aggregate keeps a float running sum; float
// addition is not associative, so those pipelines stay sequential to keep
// parallel results bit-identical.
func hasF64Sum(g *plan.GroupBy) bool {
	for i := range g.Aggs {
		a := &g.Aggs[i]
		if (a.Fn == plan.AggSum || a.Fn == plan.AggAvg) && a.Arg != nil && a.Arg.Type() == qir.F64 {
			return true
		}
	}
	return false
}

// genAggMerge emits the aggregation merge function the parallel executor
// calls per worker-partition entry (in insertion-stamp order): it probes
// the main table for the entry's group and either combines the partial
// aggregate state or adopts the entry's slots as a fresh group. Combine
// operations mirror emitAggUpdate, including the overflow traps.
func (c *Compiler) genAggMerge(g *plan.GroupBy, layout rowLayout, aggSlot []int, htOff int64) (int, error) {
	idx := len(c.mod.Funcs)
	b := qir.NewFunc(c.mod, fmt.Sprintf("%s_merge%d", c.name, idx), qir.Void, qir.Ptr, qir.Ptr)
	c.setProv(idx, -1, "merge")
	src := b.Param(1)
	c.notePtrFact(b, src, htHeaderSize, layout.width, false)
	h := loadStateHandle(b, htOff)
	hash := b.Load(qir.I64, b.GEP(src, -8, qir.NoValue, 0))
	w := &chainWalk{l: layout}
	w.head, w.body, w.found, w.exit, w.next = b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock()
	done := b.NewBlock()
	c.walkChain(b, w, h, hash, len(g.Keys), func(i int) qir.Value { return layout.load(b, src, i) })
	c.stepChain(b, w)

	b.SetBlock(w.found)
	for i := range g.Aggs {
		a := &g.Aggs[i]
		slot := aggSlot[i]
		cur := layout.load(b, w.p, slot)
		v := layout.load(b, src, slot)
		switch a.Fn {
		case plan.AggCount:
			layout.store(b, w.p, slot, b.Bin(qir.OpAdd, cur, v))
		case plan.AggSum:
			if a.Arg.Type() == qir.F64 {
				layout.store(b, w.p, slot, b.Bin(qir.OpFAdd, cur, v))
			} else {
				layout.store(b, w.p, slot, b.Bin(qir.OpSAddTrap, cur, v))
			}
		case plan.AggMin, plan.AggMax:
			pred := qir.CmpSLT
			if a.Fn == plan.AggMax {
				pred = qir.CmpSGT
			}
			var better qir.Value
			if a.Arg.Type() == qir.F64 {
				better = b.FCmp(pred, v, cur)
			} else if a.Arg.Type() == qir.Str {
				return 0, fmt.Errorf("codegen: min/max over strings not supported")
			} else {
				better = b.ICmp(pred, v, cur)
			}
			layout.store(b, w.p, slot, b.Select(better, v, cur))
		case plan.AggAvg:
			if a.Arg.Type() == qir.F64 {
				layout.store(b, w.p, slot, b.Bin(qir.OpFAdd, cur, v))
			} else {
				layout.store(b, w.p, slot, b.Bin(qir.OpSAddTrap, cur, v))
			}
			ccur := layout.load(b, w.p, slot+1)
			cv := layout.load(b, src, slot+1)
			layout.store(b, w.p, slot+1, b.Bin(qir.OpAdd, ccur, cv))
		default:
			return 0, fmt.Errorf("codegen: bad aggregate %d", a.Fn)
		}
	}
	b.Br(done)

	b.SetBlock(w.exit)
	np := b.Call(qir.Ptr, rt.FnHTInsert, h, hash)
	c.notePtrFact(b, np, htHeaderSize, layout.width, false)
	for i := range layout.types {
		layout.store(b, np, i, layout.load(b, src, i))
	}
	b.Br(done)

	b.SetBlock(done)
	b.Ret(qir.NoValue)
	return idx, nil
}
