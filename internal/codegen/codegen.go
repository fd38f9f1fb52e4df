// Package codegen translates relational query plans into QIR modules using
// data-centric code generation: the plan is decomposed into linear pipelines
// at pipeline breakers (hash-join builds, group-bys, sorts), and each
// pipeline becomes one main function that loops over its source morsel plus
// small setup and cleanup functions — the code structure the paper describes
// for Umbra.
package codegen

import (
	"fmt"
	"math"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sa"
)

// SourceKind tells the driver where a pipeline's input rows come from.
type SourceKind uint8

// Pipeline source kinds.
const (
	SrcTable SourceKind = iota
	SrcGroups
	SrcVector
)

// SinkKind tells the parallel executor what partition-local state a
// pipeline accumulates, and therefore how to merge it.
type SinkKind uint8

// Pipeline sink kinds. SinkNone covers pipelines whose only side effect is
// the output buffer (merged by morsel order regardless).
const (
	SinkNone SinkKind = iota
	SinkAgg
	SinkBuild
	SinkVec
)

// Pipeline is driver metadata for one generated pipeline.
type Pipeline struct {
	// SetupFn, MainFn, CleanupFn are function indices in the module;
	// setup/cleanup take (state ptr), main takes (state ptr, lo, hi).
	SetupFn, MainFn, CleanupFn int
	Source                     SourceKind
	// Table is the source table name for SrcTable pipelines.
	Table string
	// SourceOff is the state offset holding the source handle for
	// SrcGroups/SrcVector pipelines.
	SourceOff int64
	// Sink and SinkOff describe the pipeline's partition-local sink state
	// (the state offset holding its handle) for the parallel executor.
	Sink    SinkKind
	SinkOff int64
	// MergeFn is the generated aggregation-merge function index for
	// SinkAgg pipelines compiled with Options.Parallel, else -1.
	MergeFn int
	// NoParallel marks pipelines with cross-morsel sequential semantics
	// (LIMIT counters, float running sums) that must execute sequentially.
	NoParallel bool
	// Batch marks pipelines whose main function drives the vectorized
	// batch kernels instead of a tuple-at-a-time loop.
	Batch bool
	// Kernel is a batch pipeline's kernel program and KernelOff the state
	// offset of its handle: the executor prepares the kernel for each
	// execution (rt.DB.PrepareBatch) and stores the handle there before
	// setup runs. The program is data beside the code, not a constant in
	// it, so the pipeline's functions are the same for every kernel of one
	// sink layout. Nil for a tuple pipeline.
	Kernel    *rt.BatchSpec
	KernelOff int64
}

// Compiled is the result of query compilation: a QIR module plus the
// metadata the execution driver needs.
type Compiled struct {
	Module    *qir.Module
	Pipelines []Pipeline
	StateSize int64
	// NumFuncs is the total generated function count (a headline metric
	// in the paper's benchmark setup).
	NumFuncs int
	// Elim reports what the compile-time check-elimination pass proved
	// (zero value when the pass was disabled).
	Elim ElimStats
	// Hoist reports what the constant-hoisting pass did (zero value when
	// the pass was disabled).
	Hoist HoistStats
	// ValFacts records, per function, the runtime pointer contracts the
	// code generator knows about the values it emitted (hash-table entry
	// pointers, vector slots, comparator row parameters). They feed the
	// static analysis as trusted facts.
	ValFacts map[*qir.Func]map[qir.Value]sa.PtrFact
	// PoolLits gives, per slot of Module.Pool, the plan literal the slot's
	// value was built from (PoolConstOf). InlineLits lists the literals whose
	// value the generated code holds some other way: hoisting candidates kept
	// inline, and literals a batch kernel program holds by value because the
	// pool was full or Hoist is off (kernelWalk.leaf). Together they say how far the
	// code is parameterised: a literal that appears in PoolLits and not in
	// InlineLits is read from its slots only, so the code serves any plan that
	// differs from this one in that literal's value, once the slots hold the
	// new value. Every other literal — including any the generator did not
	// report at all, as with Options.Hoist off — has its value compiled in.
	PoolLits   []plan.Expr
	InlineLits []plan.Expr
}

// Options controls optional code-generation strategies.
type Options struct {
	// Elim runs the static check-elimination pass (on in Compile).
	Elim bool
	// Batch lowers batch-eligible SrcTable pipelines to vectorized kernel
	// calls (filters, hash build, aggregation evaluated per-morsel in the
	// runtime); ineligible pipelines keep the tuple-at-a-time loop.
	Batch bool
	// Parallel emits the per-pipeline aggregation merge functions the
	// morsel-parallel executor needs. Off by default so sequential
	// compilations stay byte-identical with and without the executor
	// built in.
	Parallel bool
	// Hoist moves query literals out of the compiled body into the module
	// constant pool (qir.OpConstPool), making the body independent of the
	// literal values so constant-only query variants share one entry in
	// the content-addressed code cache (on in Compile).
	Hoist bool
}

// Compiler holds per-query code generation state.
type Compiler struct {
	mod   *qir.Module
	cat   *rt.Catalog
	name  string
	opts  Options
	out   *Compiled
	state int64 // next free state offset

	// Current pipeline under construction.
	main    *qir.Builder
	setup   *qir.Builder
	cleanup *qir.Builder
	pipe    *Pipeline
	npipes  int

	// ops is the operator-path stack mirroring the produce() recursion;
	// see prov.go.
	ops []provEntry

	// hoistCands records, per function, the SSA values of user-supplied
	// query literals in emission order — the candidate set of the
	// constant-hoisting pass (see hoist.go). Internal constants (scan base
	// addresses, loop increments, hash mixers) are never recorded. hoistLits
	// holds, in step, the plan literal each candidate was emitted for.
	hoistCands map[*qir.Func][]qir.Value
	hoistLits  map[*qir.Func][]plan.Expr
	// ncands counts the candidates poolLiterals has seen, and slotCands
	// gives, per slot it allocated, the ordinal of that slot's candidate.
	ncands    int32
	slotCands []int32
}

// PoolConstOf returns the constant-pool form of a plan literal: a ConstInt,
// ConstDec, ConstFloat or ConstStr node, or a Like node standing for its
// pattern. It is the one encoding of a literal's value. The generator emits
// the literal's instruction from it, rewriteToPool stores it in the slot, and
// a cache of compiled programs builds the slots for another plan's literals
// with it and compares the values the code has compiled in.
func PoolConstOf(lit plan.Expr) (qir.PoolConst, bool) {
	switch x := lit.(type) {
	case *plan.ConstInt:
		// V is the sign-extended 64-bit value for every narrow integer type,
		// which is the canonical slot encoding.
		return qir.PoolConst{Type: x.Ty, Lo: uint64(x.V)}, true
	case *plan.ConstDec:
		return qir.PoolConst{Type: qir.I128, Lo: x.V.Lo, Hi: x.V.Hi}, true
	case *plan.ConstFloat:
		return qir.PoolConst{Type: qir.F64, Lo: math.Float64bits(x.V)}, true
	case *plan.ConstStr:
		return qir.PoolConst{Type: qir.Str, Str: x.V}, true
	case *plan.Like:
		return qir.PoolConst{Type: qir.Str, Str: x.Pattern}, true
	}
	return qir.PoolConst{}, false
}

// literal emits plan literal lit as a constant instruction and records it as
// a candidate of the constant-hoisting pass.
func (c *Compiler) literal(b *qir.Builder, lit plan.Expr) qir.Value {
	pc, _ := PoolConstOf(lit)
	var v qir.Value
	switch pc.Type {
	case qir.Str:
		v = b.ConstStr(pc.Str)
	case qir.I128:
		v = b.Const128(pc.Lo, pc.Hi)
	case qir.F64:
		v = b.ConstF(math.Float64frombits(pc.Lo))
	default:
		v = b.ConstInt(pc.Type, int64(pc.Lo))
	}
	if c.opts.Hoist {
		if c.hoistCands == nil {
			c.hoistCands = make(map[*qir.Func][]qir.Value)
			c.hoistLits = make(map[*qir.Func][]plan.Expr)
		}
		f := b.Func()
		c.hoistCands[f] = append(c.hoistCands[f], v)
		c.hoistLits[f] = append(c.hoistLits[f], lit)
	}
	return v
}

// Compile lowers a validated plan into a QIR module and runs the static
// check-elimination pass over the result.
func Compile(name string, root plan.Node, cat *rt.Catalog) (*Compiled, error) {
	return CompileOpts(name, root, cat, Options{Elim: true, Hoist: true})
}

// CompileOpts is Compile with full strategy control: Generate, then Finish.
func CompileOpts(name string, root plan.Node, cat *rt.Catalog, opts Options) (*Compiled, error) {
	c, err := Generate(name, root, cat, opts)
	if err != nil {
		return nil, err
	}
	return c.Finish()
}

// Generate is the first half of CompileOpts: it validates the plan and
// produces its code as the generator emits it — every literal an inline
// constant, no access marked unchecked — with the pipelines, their kernel
// programs and the pool slots of the literals the kernels read. Generated
// returns that output; Finish completes it.
func Generate(name string, root plan.Node, cat *rt.Catalog, opts Options) (*Compiler, error) {
	if err := plan.Validate(root); err != nil {
		return nil, err
	}
	c := &Compiler{
		mod:  qir.NewModule(name),
		cat:  cat,
		name: name,
		opts: opts,
	}
	c.out = &Compiled{Module: c.mod}
	if err := c.produce(root, c.outputSink(root.Schema())); err != nil {
		return nil, err
	}
	c.out.StateSize = c.state
	if c.out.StateSize == 0 {
		c.out.StateSize = 8
	}
	c.out.NumFuncs = len(c.mod.Funcs)
	return c, nil
}

// Finish is the second half of CompileOpts: constant hoisting and check
// elimination over every function (hoistAndEliminate), then the module
// verifier. It runs once, after Generate.
func (c *Compiler) Finish() (*Compiled, error) {
	if c.opts.Hoist || c.opts.Elim {
		c.hoistAndEliminate(c.cat)
	}
	if err := c.mod.VerifyModule(); err != nil {
		return nil, fmt.Errorf("codegen: generated invalid IR: %w", err)
	}
	return c.out, nil
}

// Generated returns the compilation's output: the generated code after
// Generate, the finished code after Finish.
func (c *Compiler) Generated() *Compiled { return c.out }

// Candidates returns the hoisting candidates of f, the values of the
// literals it emitted for the plan, in emission order.
func (c *Compiler) Candidates(f *qir.Func) []qir.Value { return c.hoistCands[f] }

// CandidateLits appends the plan literal of every hoisting candidate to
// lits, function by function in module order and in emission order within
// a function: the order SlotCands numbers candidates in.
func (c *Compiler) CandidateLits(lits []plan.Expr) []plan.Expr {
	for _, f := range c.mod.Funcs {
		lits = append(lits, c.hoistLits[f]...)
	}
	return lits
}

// SlotCands lists, after Finish, for each pool slot hoisting added (they
// follow the kernels' slots) the ordinal of the candidate it holds among
// CandidateLits.
func (c *Compiler) SlotCands() []int32 { return c.slotCands }

// allocState reserves size bytes (8-aligned) in the query state struct.
func (c *Compiler) allocState(size int64) int64 {
	off := c.state
	c.state += (size + 7) &^ 7
	return off
}

// rowCtx is the per-row context handed to consume callbacks: a column
// accessor positioned at the current tuple and the block to branch to when
// the tuple is done or rejected.
type rowCtx struct {
	b     *qir.Builder
	col   func(i int) qir.Value
	latch qir.BlockID
}

// consumeFn emits sink code for one tuple.
type consumeFn func(rc *rowCtx) error

// cachedCols wraps a column evaluator with per-row memoization.
func cachedCols(n int, eval func(i int) qir.Value) func(i int) qir.Value {
	cache := make([]qir.Value, n)
	for i := range cache {
		cache[i] = qir.NoValue
	}
	return func(i int) qir.Value {
		if cache[i] == qir.NoValue {
			cache[i] = eval(i)
		}
		return cache[i]
	}
}

// beginPipeline opens the three functions of a new pipeline.
func (c *Compiler) beginPipeline(kind SourceKind) {
	id := c.npipes
	c.npipes++
	c.out.Pipelines = append(c.out.Pipelines, Pipeline{Source: kind, MergeFn: -1})
	c.pipe = &c.out.Pipelines[len(c.out.Pipelines)-1]
	c.pipe.SetupFn = len(c.mod.Funcs)
	c.setup = qir.NewFunc(c.mod, fmt.Sprintf("%s_p%d_setup", c.name, id), qir.Void, qir.Ptr)
	c.pipe.MainFn = len(c.mod.Funcs)
	c.main = qir.NewFunc(c.mod, fmt.Sprintf("%s_p%d_main", c.name, id), qir.Void, qir.Ptr, qir.I64, qir.I64)
	c.pipe.CleanupFn = len(c.mod.Funcs)
	c.cleanup = qir.NewFunc(c.mod, fmt.Sprintf("%s_p%d_cleanup", c.name, id), qir.Void, qir.Ptr)
	c.setProv(c.pipe.SetupFn, id, "setup")
	c.setProv(c.pipe.MainFn, id, "main")
	c.setProv(c.pipe.CleanupFn, id, "cleanup")
	c.setMode(c.pipe.SetupFn, "tuple")
	c.setMode(c.pipe.MainFn, "tuple")
	c.setMode(c.pipe.CleanupFn, "tuple")
}

// endPipeline finishes the current pipeline's setup/cleanup functions.
func (c *Compiler) endPipeline() {
	c.setup.Ret(qir.NoValue)
	c.cleanup.Ret(qir.NoValue)
}

// emitMorselLoop generates for (i = lo; i < hi; i++) { body } in the main
// function; body code runs with the loop induction value and must branch to
// latch on all paths (a trailing branch is added if the builder's current
// block is unterminated).
func (c *Compiler) emitMorselLoop(body func(i qir.Value, latch qir.BlockID) error) error {
	b := c.main
	lo, hi := b.Param(1), b.Param(2)
	head := b.NewBlock()
	bodyBlk := b.NewBlock()
	latch := b.NewBlock()
	exit := b.NewBlock()
	pre := b.Block()
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi(qir.I64, pre, lo)
	cond := b.ICmp(qir.CmpSLT, i, hi)
	b.CondBr(cond, bodyBlk, exit)

	b.SetBlock(bodyBlk)
	if err := body(i, latch); err != nil {
		return err
	}
	if !b.Terminated() {
		b.Br(latch)
	}

	b.SetBlock(latch)
	one := b.ConstInt(qir.I64, 1)
	i2 := b.Bin(qir.OpAdd, i, one)
	b.AddPhiArg(i, latch, i2)
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(qir.NoValue)
	return nil
}

// loadStateHandle emits a load of the u64 handle stored at state offset off.
func loadStateHandle(b *qir.Builder, off int64) qir.Value {
	addr := b.GEP(b.Param(0), off, qir.NoValue, 0)
	return b.Load(qir.I64, addr)
}

// storeStateHandle emits a store of a u64 handle to state offset off.
func storeStateHandle(b *qir.Builder, off int64, v qir.Value) {
	addr := b.GEP(b.Param(0), off, qir.NoValue, 0)
	b.Store(addr, v)
}

// produce generates the pipelines evaluating subtree n; consume emits the
// sink for each produced tuple.
func (c *Compiler) produce(n plan.Node, consume consumeFn) error {
	if e, ok := provOf(n); ok {
		c.pushOp(e)
		defer c.popOp()
	}
	switch x := n.(type) {
	case *plan.Scan:
		return c.produceScan(x, consume)
	case *plan.Select:
		return c.produce(x.Input, func(rc *rowCtx) error {
			pred, err := c.evalExpr(rc, x.Pred)
			if err != nil {
				return err
			}
			b := rc.b
			pass := b.NewBlock()
			b.CondBr(pred, pass, rc.latch)
			b.SetBlock(pass)
			return consume(rc)
		})
	case *plan.Project:
		return c.produce(x.Input, func(rc *rowCtx) error {
			inner := *rc
			var evalErr error
			cols := cachedCols(len(x.Exprs), func(i int) qir.Value {
				v, err := c.evalExpr(&inner, x.Exprs[i])
				if err != nil {
					evalErr = err
					return 0
				}
				return v
			})
			outer := &rowCtx{b: rc.b, col: cols, latch: rc.latch}
			if err := consume(outer); err != nil {
				return err
			}
			return evalErr
		})
	case *plan.HashJoin:
		return c.produceHashJoin(x, consume)
	case *plan.GroupBy:
		return c.produceGroupBy(x, consume)
	case *plan.Sort:
		return c.produceSort(x, consume)
	case *plan.Limit:
		off := c.allocState(8)
		return c.produce(x.Input, func(rc *rowCtx) error {
			// The shared row counter makes LIMIT inherently sequential.
			c.pipe.NoParallel = true
			b := rc.b
			addr := b.GEP(b.Param(0), off, qir.NoValue, 0)
			cnt := b.Load(qir.I64, addr)
			lim := b.ConstInt(qir.I64, x.N)
			ok := b.ICmp(qir.CmpSLT, cnt, lim)
			pass := b.NewBlock()
			b.CondBr(ok, pass, rc.latch)
			b.SetBlock(pass)
			one := b.ConstInt(qir.I64, 1)
			b.Store(addr, b.Bin(qir.OpAdd, cnt, one))
			return consume(rc)
		})
	default:
		return fmt.Errorf("codegen: unsupported plan node %T", n)
	}
}

// produceScan opens a table pipeline: the main function loops over rows of
// the base table in [lo, hi) and loads referenced columns lazily, with
// column base addresses baked in as constants (JIT-style).
func (c *Compiler) produceScan(s *plan.Scan, consume consumeFn) error {
	tbl, err := c.cat.Table(s.Table)
	if err != nil {
		return err
	}
	if len(tbl.Cols) != len(s.Cols) {
		return fmt.Errorf("codegen: scan of %s expects %d columns, table has %d",
			s.Table, len(s.Cols), len(tbl.Cols))
	}
	c.beginPipeline(SrcTable)
	c.pipe.Table = s.Table
	b := c.main
	err = c.emitMorselLoop(func(i qir.Value, latch qir.BlockID) error {
		cols := cachedCols(len(tbl.Cols), func(ci int) qir.Value {
			col := &tbl.Cols[ci]
			base := b.ConstInt(qir.Ptr, int64(col.Base))
			addr := b.GEP(base, 0, i, col.Type.Size())
			return c.loadTyped(b, col.Type, addr)
		})
		rc := &rowCtx{b: b, col: cols, latch: latch}
		if s.Filter != nil {
			pred, err := c.evalExpr(rc, s.Filter)
			if err != nil {
				return err
			}
			pass := b.NewBlock()
			b.CondBr(pred, pass, latch)
			b.SetBlock(pass)
		}
		return consume(rc)
	})
	if err != nil {
		return err
	}
	c.endPipeline()
	return nil
}

// loadTyped emits a load of a column value; I128/Str load as their 16-byte
// value (represented as a single QIR value of that type via OpLoad).
func (c *Compiler) loadTyped(b *qir.Builder, t qir.Type, addr qir.Value) qir.Value {
	return b.Load(t, addr)
}

// outputSink emits the result materialization calls.
func (c *Compiler) outputSink(schema []plan.ColInfo) consumeFn {
	return func(rc *rowCtx) error {
		b := rc.b
		b.Call(qir.Void, rt.FnOutBegin)
		for i, col := range schema {
			v := rc.col(i)
			switch col.Type {
			case qir.I1, qir.I8, qir.I16, qir.I32:
				v = b.Convert(qir.OpSExt, qir.I64, v)
				b.Call(qir.Void, rt.FnOutI64, v)
			case qir.I64:
				b.Call(qir.Void, rt.FnOutI64, v)
			case qir.I128:
				b.Call(qir.Void, rt.FnOutI128, v)
			case qir.F64:
				b.Call(qir.Void, rt.FnOutF64, b.Convert(qir.OpFBits, qir.I64, v))
			case qir.Str:
				b.Call(qir.Void, rt.FnOutStr, v)
			default:
				return fmt.Errorf("codegen: cannot output %s column", col.Type)
			}
		}
		b.Call(qir.Void, rt.FnOutRow)
		return nil
	}
}
