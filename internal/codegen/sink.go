package codegen

import (
	"fmt"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// htHeaderSize is the runtime hash-table entry header: the chain-next
// pointer at entry-16 and the stored hash at entry-8 precede every payload,
// so entry pointers are valid over [entry-16, entry+payloadWidth).
const htHeaderSize = 16

// chainWalk is a walk of one bucket chain. The caller creates its blocks in
// its own order (block ids follow creation order): head holds the entry p,
// body compares p with the row, found is a match, next steps to the
// following entry and exit is where the end of the chain leads.
type chainWalk struct {
	l                             rowLayout
	head, body, found, next, exit qir.BlockID
	p                             qir.Value
}

// walkChain emits the walk of the bucket chain of hash in the table h, whose
// entries have layout w.l: the lookup, then the entry p at head, and at body
// its stored hash and then its first nkeys key slots against key(i) (strings
// through str_eq), a mismatch going to next and a full match to found.
// stepChain emits next.
func (c *Compiler) walkChain(b *qir.Builder, w *chainWalk, h, hash qir.Value, nkeys int, key func(i int) qir.Value) {
	first := b.Call(qir.Ptr, rt.FnHTLookup, h, hash)
	c.notePtrFact(b, first, htHeaderSize, w.l.width, true)
	start := b.Block()
	b.Br(w.head)

	b.SetBlock(w.head)
	w.p = b.Phi(qir.Ptr, start, first)
	c.notePtrFact(b, w.p, htHeaderSize, w.l.width, true)
	null := b.Null()
	b.CondBr(b.ICmp(qir.CmpEQ, w.p, null), w.exit, w.body)

	b.SetBlock(w.body)
	ehash := b.Load(qir.I64, b.GEP(w.p, -8, qir.NoValue, 0))
	hashEq := b.ICmp(qir.CmpEQ, ehash, hash)
	keyCmp := b.NewBlock()
	b.CondBr(hashEq, keyCmp, w.next)
	b.SetBlock(keyCmp)
	for i := 0; i < nkeys; i++ {
		stored := w.l.load(b, w.p, i)
		mine := key(i)
		var eq qir.Value
		if w.l.types[i] == qir.Str {
			eq = b.Convert(qir.OpTrunc, qir.I1, b.Call(qir.I64, rt.FnStrEq, stored, mine))
		} else {
			eq = b.ICmp(qir.CmpEQ, stored, mine)
		}
		next := b.NewBlock()
		b.CondBr(eq, next, w.next)
		b.SetBlock(next)
	}
	b.Br(w.found)
}

// stepChain emits, at next, the walk's step to the entry after p.
func (c *Compiler) stepChain(b *qir.Builder, w *chainWalk) {
	b.SetBlock(w.next)
	nxt := b.Load(qir.Ptr, b.GEP(w.p, -16, qir.NoValue, 0))
	c.notePtrFact(b, nxt, htHeaderSize, w.l.width, true)
	b.AddPhiArg(w.p, w.next, nxt)
	b.Br(w.head)
}

// produceHashJoin generates the build-side pipelines (ending in hash-table
// inserts), then the probe-side pipeline whose matches flow into consume.
func (c *Compiler) produceHashJoin(j *plan.HashJoin, consume consumeFn) error {
	layout, htOff, err := c.produceJoinBuild(j)
	if err != nil {
		return err
	}
	return c.produceJoinProbe(j, layout, htOff, consume)
}

// produceJoinBuild generates the pipelines filling j's hash table and
// returns its entry layout and the state offset of its handle.
func (c *Compiler) produceJoinBuild(j *plan.HashJoin) (rowLayout, int64, error) {
	buildSchema := j.Build.Schema()
	nkeys := len(j.BuildKeys)

	// Payload layout: widened keys, then all build-side columns.
	var slotTypes []qir.Type
	for _, k := range j.BuildKeys {
		slotTypes = append(slotTypes, widened(k.Type()))
	}
	for _, col := range buildSchema {
		slotTypes = append(slotTypes, col.Type)
	}
	layout := layoutRow(slotTypes)
	htOff := c.allocState(8)

	// Build side. The sink also emits this pipeline's setup (create the
	// hash table) and cleanup (finalize the bucket directory) — the sink
	// closure runs while the enclosing pipeline's builders are active.
	c.pushOp(joinProv(j, "build"))
	defer c.popOp()
	bc := c.batchSource(j.Build)
	if err := c.produceProbedBuild(bc); err != nil {
		return layout, 0, err
	}
	if k := c.batchKernel(bc, layout, nil, nil, j); k != nil {
		c.emitBatchPipeline(bc, k, SinkBuild, htOff,
			func(sb *qir.Builder) {
				width := sb.ConstInt(qir.I64, layout.width)
				handle := sb.Call(qir.I64, rt.FnHTCreate, width)
				storeStateHandle(sb, htOff, handle)
			},
			func(cb *qir.Builder) {
				cb.Call(qir.Void, rt.FnHTFinal, loadStateHandle(cb, htOff))
			})
		return layout, htOff, nil
	}
	err := c.produceTuple(j.Build, bc, func(rc *rowCtx) error {
		sb := c.setup
		width := sb.ConstInt(qir.I64, layout.width)
		handle := sb.Call(qir.I64, rt.FnHTCreate, width)
		storeStateHandle(sb, htOff, handle)
		cb := c.cleanup
		cb.Call(qir.Void, rt.FnHTFinal, loadStateHandle(cb, htOff))
		c.pipe.Sink = SinkBuild
		c.pipe.SinkOff = htOff

		b := rc.b
		hash, keyVals, err := c.hashKeys(rc, j.BuildKeys)
		if err != nil {
			return err
		}
		h := loadStateHandle(b, htOff)
		p := b.Call(qir.Ptr, rt.FnHTInsert, h, hash)
		c.notePtrFact(b, p, htHeaderSize, layout.width, false)
		for i, kv := range keyVals {
			layout.store(b, p, i, widen(b, j.BuildKeys[i].Type(), kv))
		}
		for i := range buildSchema {
			layout.store(b, p, nkeys+i, rc.col(i))
		}
		return nil
	})
	return layout, htOff, err
}

// produceProbedBuild generates the build side of a probe kernel's join
// before the kernel's own pipeline, in the order the tuple code's produce
// recursion emits them.
func (c *Compiler) produceProbedBuild(bc *batchChain) error {
	if bc == nil || bc.join == nil {
		return nil
	}
	var err error
	bc.jl, bc.jht, err = c.produceJoinBuild(bc.join)
	return err
}

// produceTuple produces n, the input of a sink whose kernel was declined (bc,
// nil when none was tried), as tuple code. A probe kernel's build side is
// generated already, so only its probe remains.
func (c *Compiler) produceTuple(n plan.Node, bc *batchChain, consume consumeFn) error {
	if bc != nil && bc.join != nil {
		return c.produceJoinProbe(bc.join, bc.jl, bc.jht, consume)
	}
	return c.produce(n, consume)
}

// produceJoinProbe generates the probe-side pipeline of a hash join; the
// build side (tuple or batch) has already filled the table at htOff.
func (c *Compiler) produceJoinProbe(j *plan.HashJoin, layout rowLayout, htOff int64, consume consumeFn) error {
	buildSchema := j.Build.Schema()
	probeSchema := j.Probe.Schema()
	nkeys := len(j.BuildKeys)

	c.pushOp(joinProv(j, "probe"))
	defer c.popOp()
	return c.produce(j.Probe, func(rc *rowCtx) error {
		b := rc.b
		hash, keyVals, err := c.hashKeys(rc, j.ProbeKeys)
		if err != nil {
			return err
		}
		h := loadStateHandle(b, htOff)
		w := &chainWalk{l: layout, exit: rc.latch}
		w.head, w.body, w.found, w.next = b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock()
		c.walkChain(b, w, h, hash, len(keyVals), func(i int) qir.Value { return widen(b, j.ProbeKeys[i].Type(), keyVals[i]) })

		b.SetBlock(w.found)
		nbuild := len(buildSchema)
		p := w.p
		cols := cachedCols(nbuild+len(probeSchema), func(i int) qir.Value {
			if i < nbuild {
				return layout.load(b, p, nkeys+i)
			}
			return rc.col(i - nbuild)
		})
		inner := &rowCtx{b: b, col: cols, latch: w.next}
		if err := consume(inner); err != nil {
			return err
		}
		if !b.Terminated() {
			b.Br(w.next)
		}
		// The step is emitted last so the builder finishes in a terminated
		// block; the producer's Terminated check then skips the
		// fall-through branch.
		c.stepChain(b, w)
		return nil
	})
}

// produceGroupBy generates the input pipeline with an aggregation sink,
// then a group-scan pipeline feeding consume.
func (c *Compiler) produceGroupBy(g *plan.GroupBy, consume consumeFn) error {
	// Aggregate state layout: widened keys, then per-aggregate slots
	// (Avg takes sum+count).
	var slotTypes []qir.Type
	for _, k := range g.Keys {
		slotTypes = append(slotTypes, widened(k.Type()))
	}
	aggSlot := make([]int, len(g.Aggs)) // slot index of each aggregate
	for i := range g.Aggs {
		a := &g.Aggs[i]
		aggSlot[i] = len(slotTypes)
		switch a.Fn {
		case plan.AggCount:
			slotTypes = append(slotTypes, qir.I64)
		case plan.AggSum:
			slotTypes = append(slotTypes, sumType(a.Arg.Type()))
		case plan.AggMin, plan.AggMax:
			slotTypes = append(slotTypes, widened(a.Arg.Type()))
		case plan.AggAvg:
			slotTypes = append(slotTypes, sumType(a.Arg.Type()), qir.I64)
		}
	}
	layout := layoutRow(slotTypes)
	htOff := c.allocState(8)

	// With the parallel executor enabled, every aggregation pipeline gets a
	// partition-merge function (generated up front so its index is stable
	// regardless of what the input subtree emits).
	mergeFn := -1
	if c.opts.Parallel {
		mf, err := c.genAggMerge(g, layout, aggSlot, htOff)
		if err != nil {
			return err
		}
		mergeFn = mf
	}
	noPar := hasF64Sum(g) // float sums are order-sensitive

	bc := c.batchSource(g.Input)
	if err := c.produceProbedBuild(bc); err != nil {
		return err
	}
	if k := c.batchKernel(bc, layout, g, aggSlot, nil); k != nil {
		c.emitBatchPipeline(bc, k, SinkAgg, htOff,
			func(sb *qir.Builder) {
				width := sb.ConstInt(qir.I64, layout.width)
				handle := sb.Call(qir.I64, rt.FnAggCreate, width)
				storeStateHandle(sb, htOff, handle)
			}, nil)
		c.pipe.MergeFn = mergeFn
		c.pipe.NoParallel = noPar
		return c.produceGroupScan(g, layout, aggSlot, htOff, consume)
	}

	err := c.produceTuple(g.Input, bc, func(rc *rowCtx) error {
		sb := c.setup
		width := sb.ConstInt(qir.I64, layout.width)
		handle := sb.Call(qir.I64, rt.FnAggCreate, width)
		storeStateHandle(sb, htOff, handle)
		c.pipe.Sink = SinkAgg
		c.pipe.SinkOff = htOff
		c.pipe.MergeFn = mergeFn
		c.pipe.NoParallel = c.pipe.NoParallel || noPar

		b := rc.b
		hash, keyVals, err := c.hashKeys(rc, g.Keys)
		if err != nil {
			return err
		}
		argVals := make([]qir.Value, len(g.Aggs))
		for i := range g.Aggs {
			if g.Aggs[i].Arg != nil {
				v, err := c.evalExpr(rc, g.Aggs[i].Arg)
				if err != nil {
					return err
				}
				argVals[i] = v
			}
		}
		h := loadStateHandle(b, htOff)
		w := &chainWalk{l: layout}
		w.head, w.body, w.found, w.exit, w.next = b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock()
		c.walkChain(b, w, h, hash, len(keyVals), func(i int) qir.Value { return widen(b, g.Keys[i].Type(), keyVals[i]) })
		c.stepChain(b, w)

		// Found: update aggregate state in place.
		b.SetBlock(w.found)
		for i := range g.Aggs {
			if err := c.emitAggUpdate(b, &g.Aggs[i], layout, aggSlot[i], w.p, argVals[i]); err != nil {
				return err
			}
		}
		b.Br(rc.latch)

		// Not found: insert a fresh group. This block is emitted last so
		// the sink finishes in a terminated block.
		b.SetBlock(w.exit)
		np := b.Call(qir.Ptr, rt.FnHTInsert, h, hash)
		c.notePtrFact(b, np, htHeaderSize, layout.width, false)
		for i, kv := range keyVals {
			layout.store(b, np, i, widen(b, g.Keys[i].Type(), kv))
		}
		for i := range g.Aggs {
			if err := c.emitAggInit(b, &g.Aggs[i], layout, aggSlot[i], np, argVals[i]); err != nil {
				return err
			}
		}
		b.Br(rc.latch)
		return nil
	})
	if err != nil {
		return err
	}

	return c.produceGroupScan(g, layout, aggSlot, htOff, consume)
}

// produceGroupScan generates the pipeline scanning the finished aggregate
// table and feeding finalized group rows to consume.
func (c *Compiler) produceGroupScan(g *plan.GroupBy, layout rowLayout, aggSlot []int, htOff int64, consume consumeFn) error {
	nkeys := len(g.Keys)
	c.beginPipeline(SrcGroups)
	c.pipe.SourceOff = htOff
	b := c.main
	schema := g.Schema()
	err := c.emitMorselLoop(func(i qir.Value, latch qir.BlockID) error {
		h := loadStateHandle(b, htOff)
		p := b.Call(qir.Ptr, rt.FnHTEntry, h, i)
		c.notePtrFact(b, p, htHeaderSize, layout.width, false)
		cols := cachedCols(len(schema), func(ci int) qir.Value {
			if ci < nkeys {
				v := layout.load(b, p, ci)
				return narrow(b, schema[ci].Type, v)
			}
			a := &g.Aggs[ci-nkeys]
			return c.emitAggFinal(b, a, layout, aggSlot[ci-nkeys], p)
		})
		rc := &rowCtx{b: b, col: cols, latch: latch}
		return consume(rc)
	})
	if err != nil {
		return err
	}
	c.endPipeline()
	return nil
}

// sumType widens small integers to I64 for running sums.
func sumType(t qir.Type) qir.Type {
	switch t {
	case qir.I1, qir.I8, qir.I16, qir.I32, qir.I64:
		return qir.I64
	}
	return t
}

// narrow truncates a widened slot value back to the schema type.
func narrow(b *qir.Builder, want qir.Type, v qir.Value) qir.Value {
	if widened(want) != want {
		return b.Convert(qir.OpTrunc, want, v)
	}
	return v
}

func (c *Compiler) emitAggInit(b *qir.Builder, a *plan.AggExpr, l rowLayout, slot int, p, arg qir.Value) error {
	switch a.Fn {
	case plan.AggCount:
		l.store(b, p, slot, b.ConstInt(qir.I64, 1))
	case plan.AggSum:
		l.store(b, p, slot, c.toSum(b, a.Arg.Type(), arg))
	case plan.AggMin, plan.AggMax:
		l.store(b, p, slot, widen(b, a.Arg.Type(), arg))
	case plan.AggAvg:
		l.store(b, p, slot, c.toSum(b, a.Arg.Type(), arg))
		l.store(b, p, slot+1, b.ConstInt(qir.I64, 1))
	default:
		return fmt.Errorf("codegen: bad aggregate %d", a.Fn)
	}
	return nil
}

// toSum converts an aggregate argument to its running-sum representation.
func (c *Compiler) toSum(b *qir.Builder, t qir.Type, v qir.Value) qir.Value {
	st := sumType(t)
	if st != t && st == qir.I64 {
		return b.Convert(qir.OpSExt, qir.I64, v)
	}
	return v
}

func (c *Compiler) emitAggUpdate(b *qir.Builder, a *plan.AggExpr, l rowLayout, slot int, p, arg qir.Value) error {
	switch a.Fn {
	case plan.AggCount:
		cur := l.load(b, p, slot)
		one := b.ConstInt(qir.I64, 1)
		l.store(b, p, slot, b.Bin(qir.OpAdd, cur, one))
	case plan.AggSum:
		cur := l.load(b, p, slot)
		v := c.toSum(b, a.Arg.Type(), arg)
		if a.Arg.Type() == qir.F64 {
			l.store(b, p, slot, b.Bin(qir.OpFAdd, cur, v))
		} else {
			l.store(b, p, slot, b.Bin(qir.OpSAddTrap, cur, v))
		}
	case plan.AggMin, plan.AggMax:
		cur := l.load(b, p, slot)
		v := widen(b, a.Arg.Type(), arg)
		pred := qir.CmpSLT
		if a.Fn == plan.AggMax {
			pred = qir.CmpSGT
		}
		var better qir.Value
		if a.Arg.Type() == qir.F64 {
			better = b.FCmp(pred, v, cur)
		} else if a.Arg.Type() == qir.Str {
			return fmt.Errorf("codegen: min/max over strings not supported")
		} else {
			better = b.ICmp(pred, v, cur)
		}
		l.store(b, p, slot, b.Select(better, v, cur))
	case plan.AggAvg:
		cur := l.load(b, p, slot)
		v := c.toSum(b, a.Arg.Type(), arg)
		if a.Arg.Type() == qir.F64 {
			l.store(b, p, slot, b.Bin(qir.OpFAdd, cur, v))
		} else {
			l.store(b, p, slot, b.Bin(qir.OpSAddTrap, cur, v))
		}
		cnt := l.load(b, p, slot+1)
		one := b.ConstInt(qir.I64, 1)
		l.store(b, p, slot+1, b.Bin(qir.OpAdd, cnt, one))
	default:
		return fmt.Errorf("codegen: bad aggregate %d", a.Fn)
	}
	return nil
}

func (c *Compiler) emitAggFinal(b *qir.Builder, a *plan.AggExpr, l rowLayout, slot int, p qir.Value) qir.Value {
	switch a.Fn {
	case plan.AggCount, plan.AggSum:
		return l.load(b, p, slot)
	case plan.AggMin, plan.AggMax:
		v := l.load(b, p, slot)
		return narrow(b, a.Type(), v)
	case plan.AggAvg:
		sum := l.load(b, p, slot)
		cnt := l.load(b, p, slot+1)
		if a.Arg.Type() == qir.F64 {
			fcnt := b.Convert(qir.OpSIToFP, qir.F64, cnt)
			return b.Bin(qir.OpFDiv, sum, fcnt)
		}
		if sumType(a.Arg.Type()) == qir.I128 {
			c128 := b.Convert(qir.OpSExt, qir.I128, cnt)
			return b.Call(qir.I128, rt.FnI128Div, sum, c128)
		}
		return b.Bin(qir.OpSDiv, sum, cnt)
	}
	panic("codegen: bad aggregate")
}

// produceSort generates the input pipeline materializing rows into a vector,
// sorts it in the cleanup function (via a generated comparator for multi-key
// or non-integer orders), and scans the sorted vector in a new pipeline.
func (c *Compiler) produceSort(s *plan.Sort, consume consumeFn) error {
	schema := s.Input.Schema()
	nkeys := len(s.Keys)

	var slotTypes []qir.Type
	for _, k := range s.Keys {
		slotTypes = append(slotTypes, widened(k.E.Type()))
	}
	for _, col := range schema {
		slotTypes = append(slotTypes, col.Type)
	}
	layout := layoutRow(slotTypes)
	vecOff := c.allocState(8)

	// The comparator (if needed) is an ordinary extra function of the
	// module, generated up front so the sink can reference it.
	single := nkeys == 1 && widened(s.Keys[0].E.Type()) == qir.I64
	cmpIdx := -1
	if !single {
		var err error
		cmpIdx, err = c.genComparator(s, layout)
		if err != nil {
			return err
		}
	}

	err := c.produce(s.Input, func(rc *rowCtx) error {
		// Pipeline setup: create the vector. Cleanup: sort it, using
		// the sort_i64 fast path for a single integer key and a
		// generated comparator callback otherwise (the runtime-callback
		// case from the paper).
		sb := c.setup
		width := sb.ConstInt(qir.I64, layout.width)
		handle := sb.Call(qir.I64, rt.FnVecCreate, width)
		storeStateHandle(sb, vecOff, handle)
		c.pipe.Sink = SinkVec
		c.pipe.SinkOff = vecOff
		cb := c.cleanup
		if single {
			h := loadStateHandle(cb, vecOff)
			keyOff := cb.ConstInt(qir.I64, layout.offs[0])
			desc := cb.ConstInt(qir.I64, 0)
			if s.Keys[0].Desc {
				desc = cb.ConstInt(qir.I64, 1)
			}
			cb.Call(qir.Void, rt.FnSortI64, h, keyOff, desc)
		} else {
			h := loadStateHandle(cb, vecOff)
			fn := cb.FuncAddr(cmpIdx)
			cb.Call(qir.Void, rt.FnSortCB, h, fn)
		}

		b := rc.b
		h := loadStateHandle(b, vecOff)
		slot := b.Call(qir.Ptr, rt.FnVecAppend, h)
		c.notePtrFact(b, slot, 0, layout.width, false)
		for i, k := range s.Keys {
			v, err := c.evalExpr(rc, k.E)
			if err != nil {
				return err
			}
			layout.store(b, slot, i, widen(b, k.E.Type(), v))
		}
		for i := range schema {
			layout.store(b, slot, nkeys+i, rc.col(i))
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Scan pipeline over the sorted vector.
	c.beginPipeline(SrcVector)
	c.pipe.SourceOff = vecOff
	b := c.main
	h := loadStateHandle(b, vecOff)
	base := b.Call(qir.Ptr, rt.FnVecData, h)
	err = c.emitMorselLoop(func(i qir.Value, latch qir.BlockID) error {
		p := b.GEP(base, 0, i, layout.width)
		cols := cachedCols(len(schema), func(ci int) qir.Value {
			return layout.load(b, p, nkeys+ci)
		})
		rc := &rowCtx{b: b, col: cols, latch: latch}
		return consume(rc)
	})
	if err != nil {
		return err
	}
	c.endPipeline()
	return nil
}

// genComparator emits the sort comparator function: (a ptr, b ptr) -> i64
// negative/zero/positive, comparing the widened key slots in order.
func (c *Compiler) genComparator(s *plan.Sort, layout rowLayout) (int, error) {
	idx := len(c.mod.Funcs)
	b := qir.NewFunc(c.mod, fmt.Sprintf("%s_cmp%d", c.name, idx), qir.I64, qir.Ptr, qir.Ptr)
	c.setProv(idx, -1, "comparator")
	pa, pb := b.Param(0), b.Param(1)
	c.notePtrFact(b, pa, 0, layout.width, false)
	c.notePtrFact(b, pb, 0, layout.width, false)
	for i, k := range s.Keys {
		va := layout.load(b, pa, i)
		vb := layout.load(b, pb, i)
		neg, pos := int64(-1), int64(1)
		if k.Desc {
			neg, pos = 1, -1
		}
		t := widened(k.E.Type())
		switch t {
		case qir.Str:
			cv := b.Call(qir.I64, rt.FnStrCmp, va, vb)
			zero := b.ConstInt(qir.I64, 0)
			ne := b.ICmp(qir.CmpNE, cv, zero)
			retBlk := b.NewBlock()
			cont := b.NewBlock()
			b.CondBr(ne, retBlk, cont)
			b.SetBlock(retBlk)
			if k.Desc {
				zero2 := b.ConstInt(qir.I64, 0)
				r := b.Bin(qir.OpSub, zero2, cv)
				b.Ret(r)
			} else {
				b.Ret(cv)
			}
			b.SetBlock(cont)
		case qir.F64, qir.I64, qir.I128:
			var lt, gt qir.Value
			if t == qir.F64 {
				lt = b.FCmp(qir.CmpSLT, va, vb)
				gt = b.FCmp(qir.CmpSGT, va, vb)
			} else {
				lt = b.ICmp(qir.CmpSLT, va, vb)
				gt = b.ICmp(qir.CmpSGT, va, vb)
			}
			ltBlk := b.NewBlock()
			geBlk := b.NewBlock()
			gtBlk := b.NewBlock()
			cont := b.NewBlock()
			b.CondBr(lt, ltBlk, geBlk)
			b.SetBlock(ltBlk)
			b.Ret(b.ConstInt(qir.I64, neg))
			b.SetBlock(geBlk)
			b.CondBr(gt, gtBlk, cont)
			b.SetBlock(gtBlk)
			b.Ret(b.ConstInt(qir.I64, pos))
			b.SetBlock(cont)
		default:
			return 0, fmt.Errorf("codegen: cannot sort by %s", t)
		}
	}
	b.Ret(b.ConstInt(qir.I64, 0))
	return idx, nil
}
