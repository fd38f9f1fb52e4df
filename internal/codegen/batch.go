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
// evaluates the sink over the matching (row, build entry) pairs. Eligibility
// is deliberately conservative — the kernel must reproduce tuple semantics
// bit-for-bit, including trap order — so anything with short-circuit
// evaluation, narrow-width trapping arithmetic, a second probe, a predicate
// after the join, or expressions the kernel does not vectorize falls back to
// the tuple loop (the per-operator mode choice from the hybrid-engine
// literature: Q1/Q6-style scans and their join probes go batch, point-lookup
// shapes stay tuple).

// batchChain is a batch-eligible pipeline prefix: one scan plus a conjunct
// list applied in tuple evaluation order, and for a probe kernel the join
// its rows probe.
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

// batchLeaf reports whether e is a trap-free leaf operand (column or
// constant) of a kernel-evaluable type.
func batchLeaf(e plan.Expr) bool {
	switch x := e.(type) {
	case *plan.Col:
		_, ok := batchType(x.Ty)
		return ok
	case *plan.ConstInt:
		return x.Ty != qir.I1
	case *plan.ConstDec, *plan.ConstFloat, *plan.ConstStr:
		return true
	}
	return false
}

// batchValue reports whether e, at the given depth of its expression tree,
// is kernel-evaluable as a value (aggregate arguments). Trapping arithmetic
// is allowed only at I64/I128/F64 width — narrow-width overflow (trap when
// the result does not round-trip the narrow type) is not vectorized. A CASE
// is, when it cannot trap: a filter-eligible condition and leaf branches.
func batchValue(e plan.Expr, depth int) bool {
	if depth > rt.BatchMaxDepth {
		return false
	}
	if batchLeaf(e) {
		return true
	}
	if x, ok := e.(*plan.Case); ok {
		t := x.Type()
		return t != qir.Str && t != qir.I1 && x.Else.Type() == t &&
			batchLeaf(x.Then) && batchLeaf(x.Else) && batchFilter(x.Cond)
	}
	if x, ok := e.(*plan.Arith); ok {
		switch x.Op {
		case plan.OpAdd, plan.OpSub, plan.OpMul:
		default:
			return false
		}
		t := x.Type()
		if t != qir.I64 && t != qir.I128 && t != qir.F64 {
			return false
		}
		return x.L.Type() == t && x.R.Type() == t && batchValue(x.L, depth+1) && batchValue(x.R, depth+1)
	}
	return false
}

// batchFilter reports whether a boolean conjunct is kernel-evaluable. The
// kernel refines a selection vector per conjunct, so filters must be
// trap-free: a compare or BETWEEN over leaf operands. AND chains arrive split
// (appendConjuncts); any other boolean operator stays tuple code.
func batchFilter(e plan.Expr) bool {
	switch x := e.(type) {
	case *plan.Cmp:
		t := x.L.Type()
		if t != x.R.Type() {
			return false
		}
		if t == qir.Str {
			if x.Op != plan.CmpEQ && x.Op != plan.CmpNE {
				return false
			}
		} else if _, ok := batchType(t); !ok {
			return false
		}
		return batchLeaf(x.L) && batchLeaf(x.R)
	case *plan.Between:
		t := x.E.Type()
		if t != x.Lo.Type() || t != x.Hi.Type() || t == qir.Str {
			return false
		}
		if _, ok := batchType(t); !ok {
			return false
		}
		return batchLeaf(x.E) && batchLeaf(x.Lo) && batchLeaf(x.Hi)
	}
	return false
}

// batchKeyOK reports whether a key expression is kernel-evaluable: plain
// column references only. F64 keys are excluded — the tuple chain walk
// compares them with an integer compare on the slot (bit equality), which
// the kernel's typed compare would not reproduce for NaN or signed zero.
func batchKeyOK(e plan.Expr) bool {
	col, ok := e.(*plan.Col)
	if !ok || col.Ty == qir.F64 {
		return false
	}
	_, ok = batchType(col.Ty)
	return ok
}

// batchSource matches the input of a batch pipeline's sink: Select*(Scan),
// or a hash join whose probe side is one, probed on plain columns of the
// build keys' widened types and with a build side of kernel-typed columns.
// Its filters must be kernel filters.
func (c *Compiler) batchSource(n plan.Node) *batchChain {
	j, probe := n.(*plan.HashJoin)
	if probe {
		n = j.Probe
	}
	bc := c.batchScanChain(n)
	if bc == nil {
		return nil
	}
	for _, f := range bc.filters {
		if !batchFilter(f) {
			return nil
		}
	}
	if !probe {
		return bc
	}
	if len(j.ProbeKeys) == 0 {
		return nil
	}
	for i, k := range j.ProbeKeys {
		if !batchKeyOK(k) || widened(k.Type()) != widened(j.BuildKeys[i].Type()) {
			return nil
		}
	}
	for _, col := range j.Build.Schema() {
		if _, ok := batchType(col.Type); !ok {
			return nil
		}
	}
	bc.join = j
	return bc
}

// outCol is the kernel form of column idx of the chain's output: a column
// of the scanned table, or of a probe kernel's build side.
func (bc *batchChain) outCol(idx int) (*rt.BatchExpr, error) {
	if bc.join != nil {
		build := bc.join.Build.Schema()
		if idx < len(build) {
			bt, ok := batchType(build[idx].Type)
			if !ok {
				return nil, fmt.Errorf("codegen: batch: build column type %s", build[idx].Type)
			}
			slot := len(bc.join.BuildKeys) + idx
			return &rt.BatchExpr{Kind: rt.BEBuildCol, Ty: bt, Base: uint64(bc.jl.offs[slot]),
				Elem: uint64(build[idx].Type.Size())}, nil
		}
		idx -= len(build)
	}
	return bc.scanCol(idx)
}

// scanCol is the kernel form of column idx of the scanned table.
func (bc *batchChain) scanCol(idx int) (*rt.BatchExpr, error) {
	col := &bc.tbl.Cols[idx]
	bt, ok := batchType(col.Type)
	if !ok {
		return nil, fmt.Errorf("codegen: batch: column type %s", col.Type)
	}
	return &rt.BatchExpr{Kind: rt.BECol, Ty: bt, Base: col.Base, Elem: uint64(col.Type.Size())}, nil
}

// batchExpr lowers a plan expression to its kernel form, its columns read
// through col. Callers must have established eligibility first.
//
// With Options.Hoist a literal goes into a constant-pool slot of its own,
// which the executor reads when it prepares the kernel (rt.BEPool), so the
// spec does not depend on the literal's value. When the pool is full, or
// without Hoist, the spec holds the value, as rewriteToPool leaves a literal
// inline.
func (c *Compiler) batchExpr(e plan.Expr, col func(idx int) (*rt.BatchExpr, error)) (*rt.BatchExpr, error) {
	if pc, lit := PoolConstOf(e); lit {
		if c.opts.Hoist && len(c.mod.Pool) < rt.ConstPoolSlots {
			bt, _ := batchType(pc.Type)
			slot := c.mod.AddPoolConst(pc)
			c.out.PoolLits = append(c.out.PoolLits, e)
			return &rt.BatchExpr{Kind: rt.BEPool, Ty: bt, Slot: uint64(slot)}, nil
		}
		c.out.InlineLits = append(c.out.InlineLits, e)
	}
	switch x := e.(type) {
	case *plan.Col:
		return col(x.Idx)
	case *plan.ConstInt:
		return &rt.BatchExpr{Kind: rt.BEConst, Ty: rt.BTInt, I: x.V}, nil
	case *plan.ConstDec:
		return &rt.BatchExpr{Kind: rt.BEConst, Ty: rt.BTI128, D: x.V}, nil
	case *plan.ConstFloat:
		return &rt.BatchExpr{Kind: rt.BEConst, Ty: rt.BTF64, F: x.V}, nil
	case *plan.ConstStr:
		return &rt.BatchExpr{Kind: rt.BEConst, Ty: rt.BTStr, S: []byte(x.V)}, nil
	case *plan.Arith:
		l, err := c.batchExpr(x.L, col)
		if err != nil {
			return nil, err
		}
		r, err := c.batchExpr(x.R, col)
		if err != nil {
			return nil, err
		}
		bt, _ := batchType(x.Type())
		var op uint8
		switch x.Op {
		case plan.OpAdd:
			op = rt.BArithAdd
		case plan.OpSub:
			op = rt.BArithSub
		case plan.OpMul:
			op = rt.BArithMul
		default:
			return nil, fmt.Errorf("codegen: batch: arith op %d", x.Op)
		}
		return &rt.BatchExpr{Kind: rt.BEArith, Ty: bt, Op: op, L: l, R: r}, nil
	case *plan.Cmp:
		l, err := c.batchExpr(x.L, col)
		if err != nil {
			return nil, err
		}
		r, err := c.batchExpr(x.R, col)
		if err != nil {
			return nil, err
		}
		bt, _ := batchType(x.L.Type())
		return &rt.BatchExpr{Kind: rt.BECmp, Ty: bt, Op: batchCmpOp(x.Op), L: l, R: r}, nil
	case *plan.Between:
		v, err := c.batchExpr(x.E, col)
		if err != nil {
			return nil, err
		}
		lo, err := c.batchExpr(x.Lo, col)
		if err != nil {
			return nil, err
		}
		hi, err := c.batchExpr(x.Hi, col)
		if err != nil {
			return nil, err
		}
		bt, _ := batchType(x.E.Type())
		return &rt.BatchExpr{Kind: rt.BEBetween, Ty: bt, L: v, R: lo, H: hi}, nil
	case *plan.Case:
		cond, err := c.batchExpr(x.Cond, col)
		if err != nil {
			return nil, err
		}
		th, err := c.batchExpr(x.Then, col)
		if err != nil {
			return nil, err
		}
		el, err := c.batchExpr(x.Else, col)
		if err != nil {
			return nil, err
		}
		bt, _ := batchType(x.Type())
		return &rt.BatchExpr{Kind: rt.BECase, Ty: bt, L: cond, R: th, H: el}, nil
	}
	return nil, fmt.Errorf("codegen: batch: unsupported expression %T", e)
}

func batchCmpOp(op plan.CmpOp) uint8 {
	switch op {
	case plan.CmpEQ:
		return rt.BCmpEQ
	case plan.CmpNE:
		return rt.BCmpNE
	case plan.CmpLT:
		return rt.BCmpLT
	case plan.CmpLE:
		return rt.BCmpLE
	case plan.CmpGT:
		return rt.BCmpGT
	default:
		return rt.BCmpGE
	}
}

// batchAggChain decides batch eligibility for a GroupBy input pipeline.
func (c *Compiler) batchAggChain(g *plan.GroupBy) *batchChain {
	bc := c.batchSource(g.Input)
	if bc == nil {
		return nil
	}
	for _, k := range g.Keys {
		if !batchKeyOK(k) {
			return nil
		}
	}
	for i := range g.Aggs {
		a := &g.Aggs[i]
		switch a.Fn {
		case plan.AggCount:
			if a.Arg != nil && !batchValue(a.Arg, 0) {
				return nil
			}
		case plan.AggSum, plan.AggAvg:
			if a.Arg == nil || !batchValue(a.Arg, 0) {
				return nil
			}
		case plan.AggMin, plan.AggMax:
			if a.Arg == nil || a.Arg.Type() == qir.Str || !batchValue(a.Arg, 0) {
				return nil
			}
		default:
			return nil
		}
	}
	return bc
}

// batchBuildChain decides batch eligibility for a join build pipeline.
func (c *Compiler) batchBuildChain(j *plan.HashJoin) *batchChain {
	bc := c.batchSource(j.Build)
	if bc == nil {
		return nil
	}
	for _, k := range j.BuildKeys {
		if !batchKeyOK(k) {
			return nil
		}
	}
	// The payload copies build-schema columns verbatim; a Select chain
	// leaves the scan schema intact, so every payload column is a column
	// of the scanned table or of the probed join's build side.
	for _, col := range j.Build.Schema() {
		if _, ok := batchType(col.Type); !ok {
			return nil
		}
	}
	return bc
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

// chainSpec starts the kernel program of a chain: its filters over the
// scanned table and, for a probe kernel, the probe keys against the join
// table's key slots.
func (c *Compiler) chainSpec(bc *batchChain, sink uint8, width int64) (*rt.BatchSpec, error) {
	spec := &rt.BatchSpec{Sink: sink, Width: uint64(width)}
	for _, f := range bc.filters {
		be, err := c.batchExpr(f, bc.scanCol)
		if err != nil {
			return nil, err
		}
		spec.Filters = append(spec.Filters, be)
	}
	if bc.join != nil {
		for i, k := range bc.join.ProbeKeys {
			be, err := c.batchExpr(k, bc.scanCol)
			if err != nil {
				return nil, err
			}
			spec.Probe = append(spec.Probe, rt.BatchKey{Off: bc.jl.offs[i], Ty: be.Ty, E: be})
		}
	}
	return spec, nil
}

// buildAggSpec assembles the kernel program for a batch aggregation
// pipeline over the tuple code's exact slot layout.
func (c *Compiler) buildAggSpec(g *plan.GroupBy, bc *batchChain, layout rowLayout, aggSlot []int) (*rt.BatchSpec, error) {
	spec, err := c.chainSpec(bc, rt.BatchSinkAgg, layout.width)
	if err != nil {
		return nil, err
	}
	for i, k := range g.Keys {
		be, err := c.batchExpr(k, bc.outCol)
		if err != nil {
			return nil, err
		}
		bt, _ := batchType(k.Type())
		spec.Keys = append(spec.Keys, rt.BatchKey{Off: layout.offs[i], Ty: bt, E: be})
	}
	for i := range g.Aggs {
		a := &g.Aggs[i]
		ba := rt.BatchAgg{Off: layout.offs[aggSlot[i]]}
		switch a.Fn {
		case plan.AggSum:
			ba.Fn = rt.BAggSum
		case plan.AggCount:
			ba.Fn = rt.BAggCount
		case plan.AggMin:
			ba.Fn = rt.BAggMin
		case plan.AggMax:
			ba.Fn = rt.BAggMax
		case plan.AggAvg:
			ba.Fn = rt.BAggAvg
			ba.COff = layout.offs[aggSlot[i]+1]
		}
		if a.Arg != nil {
			be, err := c.batchExpr(a.Arg, bc.outCol)
			if err != nil {
				return nil, err
			}
			ba.Arg = be
			slotTy := layout.types[aggSlot[i]]
			bt, _ := batchType(slotTy)
			ba.Ty = bt
		} else {
			ba.Ty = rt.BTInt
		}
		spec.Aggs = append(spec.Aggs, ba)
	}
	return spec, nil
}

// buildJoinSpec assembles the kernel program for a batch join-build
// pipeline: widened keys plus verbatim column payload.
func (c *Compiler) buildJoinSpec(j *plan.HashJoin, bc *batchChain, layout rowLayout) (*rt.BatchSpec, error) {
	spec, err := c.chainSpec(bc, rt.BatchSinkBuild, layout.width)
	if err != nil {
		return nil, err
	}
	for i, k := range j.BuildKeys {
		be, err := c.batchExpr(k, bc.outCol)
		if err != nil {
			return nil, err
		}
		bt, _ := batchType(k.Type())
		spec.Keys = append(spec.Keys, rt.BatchKey{Off: layout.offs[i], Ty: bt, E: be})
	}
	nkeys := len(j.BuildKeys)
	for i := range j.Build.Schema() {
		src, err := bc.outCol(i)
		if err != nil {
			return nil, err
		}
		spec.Payload = append(spec.Payload, rt.BatchCol{Off: layout.offs[nkeys+i], Src: src})
	}
	return spec, nil
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
	first := b.Call(qir.Ptr, rt.FnHTLookup, h, hash)
	c.notePtrFact(b, first, htHeaderSize, layout.width, true)
	startBlk := b.Block()

	head := b.NewBlock()
	body := b.NewBlock()
	found := b.NewBlock()
	insert := b.NewBlock()
	chainLatch := b.NewBlock()
	done := b.NewBlock()
	b.Br(head)

	b.SetBlock(head)
	p := b.Phi(qir.Ptr, startBlk, first)
	c.notePtrFact(b, p, htHeaderSize, layout.width, true)
	null := b.Null()
	isNull := b.ICmp(qir.CmpEQ, p, null)
	b.CondBr(isNull, insert, body)

	b.SetBlock(body)
	ehash := b.Load(qir.I64, b.GEP(p, -8, qir.NoValue, 0))
	hashEq := b.ICmp(qir.CmpEQ, ehash, hash)
	keyCmp := b.NewBlock()
	b.CondBr(hashEq, keyCmp, chainLatch)
	b.SetBlock(keyCmp)
	for i := range g.Keys {
		stored := layout.load(b, p, i)
		mine := layout.load(b, src, i)
		var eq qir.Value
		if g.Keys[i].Type() == qir.Str {
			r := b.Call(qir.I64, rt.FnStrEq, stored, mine)
			eq = b.Convert(qir.OpTrunc, qir.I1, r)
		} else {
			eq = b.ICmp(qir.CmpEQ, stored, mine)
		}
		next := b.NewBlock()
		b.CondBr(eq, next, chainLatch)
		b.SetBlock(next)
	}
	b.Br(found)

	b.SetBlock(chainLatch)
	nxt := b.Load(qir.Ptr, b.GEP(p, -16, qir.NoValue, 0))
	c.notePtrFact(b, nxt, htHeaderSize, layout.width, true)
	b.AddPhiArg(p, chainLatch, nxt)
	b.Br(head)

	b.SetBlock(found)
	for i := range g.Aggs {
		a := &g.Aggs[i]
		slot := aggSlot[i]
		cur := layout.load(b, p, slot)
		v := layout.load(b, src, slot)
		switch a.Fn {
		case plan.AggCount:
			layout.store(b, p, slot, b.Bin(qir.OpAdd, cur, v))
		case plan.AggSum:
			if a.Arg.Type() == qir.F64 {
				layout.store(b, p, slot, b.Bin(qir.OpFAdd, cur, v))
			} else {
				layout.store(b, p, slot, b.Bin(qir.OpSAddTrap, cur, v))
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
			layout.store(b, p, slot, b.Select(better, v, cur))
		case plan.AggAvg:
			if a.Arg.Type() == qir.F64 {
				layout.store(b, p, slot, b.Bin(qir.OpFAdd, cur, v))
			} else {
				layout.store(b, p, slot, b.Bin(qir.OpSAddTrap, cur, v))
			}
			ccur := layout.load(b, p, slot+1)
			cv := layout.load(b, src, slot+1)
			layout.store(b, p, slot+1, b.Bin(qir.OpAdd, ccur, cv))
		default:
			return 0, fmt.Errorf("codegen: bad aggregate %d", a.Fn)
		}
	}
	b.Br(done)

	b.SetBlock(insert)
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
