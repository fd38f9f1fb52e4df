package rt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/sem"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Batch (vectorized) operator kernels. A batch-eligible pipeline compiles
// to a tiny main function that calls batch_exec (a scan kernel) or
// batch_probe (a probe kernel) once per morsel instead of looping
// tuple-at-a-time through generated code; the kernel runs the pipeline's
// filters, key/argument expressions, and aggregation or join-build sink over
// the whole morsel with selection vectors, amortizing VM dispatch over
// thousands of rows (the hybrid compiled+vectorized mode of Kashuba &
// Mühleisen). A probe kernel also probes one join's hash table with each
// surviving row and evaluates the sink over the (row, build entry) pairs
// that match, in the order the tuple code's chain walk visits them.
//
// The kernel is driven by a BatchSpec, data the code generator hands the
// execution driver beside the compiled code: the driver prepares it
// (PrepareBatch) for each execution and stores the handle in the pipeline's
// state before setup runs, so no kernel is compiled into any function and one
// setup and main function serve every kernel of a sink layout. A query
// literal enters the spec as a constant-pool slot (BEPool) that PrepareBatch
// reads from the bound pool, so the spec is the same for every constant
// variant of a query. Semantics replicate the tuple-at-a-time code exactly —
// same CRC32C/long-mul-fold hash, same widened slot layout, same overflow
// traps in the same per-row order — so batch and tuple execution are
// byte-equivalent, including which trap fires first on poisoned data.

var (
	ctrBatchCalls      = obs.NewCounter("rt_batch_kernel_calls")
	ctrBatchProbeCalls = obs.NewCounter("rt_batch_probe_calls")
	ctrBatchRows       = obs.NewCounter("rt_batch_rows")
)

// BatchType is the evaluation type of a batch expression. Small integers
// evaluate sign-extended at 64 bits, exactly like the widened tuple slots.
type BatchType uint8

// Batch value types.
const (
	BTInt BatchType = iota
	BTI128
	BTF64
	BTStr
)

// BatchExprKind discriminates batch expression nodes.
type BatchExprKind uint8

// Batch expression kinds.
const (
	BEConst BatchExprKind = iota
	BECol
	BEArith
	BECmp
	BEBetween
	// BEPool is a literal held in constant-pool slot Slot (rt.DB.
	// BindConstPool); PrepareBatch turns it into the BEConst of the value
	// the slot holds when the pipeline is about to run.
	BEPool
	// BEBuildCol is a column of the build side a probe kernel matched: Elem
	// bytes at offset Base of the matched entry's payload.
	BEBuildCol
	// BECase is CASE WHEN L THEN R ELSE H END, trap-free: L is a filter
	// (BECmp or BEBetween) and R and H are leaves of type Ty.
	BECase
)

// Batch arithmetic operators (overflow-trapping, SQL semantics; numbered as
// plan.ArithOp's first three).
const (
	BArithAdd uint8 = iota
	BArithSub
	BArithMul
)

// Batch comparison predicates (same numbering as plan.CmpOp).
const (
	BCmpEQ uint8 = iota
	BCmpNE
	BCmpLT
	BCmpLE
	BCmpGT
	BCmpGE
)

// BatchExpr is one node of a batch-evaluable expression tree.
type BatchExpr struct {
	Kind BatchExprKind
	// Ty is the value type (BEConst/BEPool/BECol/BEBuildCol/BEArith/BECase)
	// or the operand type (BECmp/BEBetween).
	Ty BatchType
	// Op is the arithmetic or comparison operator.
	Op uint8
	// Base/Elem describe a column: base address and element width
	// (BECol), or payload offset and width (BEBuildCol).
	Base, Elem uint64
	// Constant payloads. A string constant of at most 12 bytes also holds
	// its 16-byte value's two words in D once the kernel is prepared.
	I int64
	D I128
	F float64
	S []byte
	// Slot is a BEPool node's constant-pool slot.
	Slot uint64
	// Children: L/R for arith and cmp; L=value, R=lo, H=hi for between;
	// L=condition, R=then, H=else for case.
	L, R, H *BatchExpr
}

// Aggregate function codes (same numbering as plan.AggFn).
const (
	BAggSum uint8 = iota
	BAggCount
	BAggMin
	BAggMax
	BAggAvg
)

// Batch sink kinds.
const (
	BatchSinkAgg uint8 = iota + 1
	BatchSinkBuild
)

// BatchKey is one group/join key: its widened payload slot and expression.
type BatchKey struct {
	Off int64
	Ty  BatchType
	E   *BatchExpr
}

// BatchAgg is one aggregate: function, running-slot type, payload offsets
// (COff is the Avg count slot) and argument expression (nil for Count).
type BatchAgg struct {
	Fn   uint8
	Ty   BatchType
	Off  int64
	COff int64
	Arg  *BatchExpr
}

// BatchCol is one join-build payload column: Src, a BECol or (in a probe
// kernel) a BEBuildCol, copied verbatim into the entry's slot at Off (the
// payload slot is pre-zeroed, so narrow columns match the tuple-mode typed
// store byte-for-byte).
type BatchCol struct {
	Off int64
	Src *BatchExpr
}

// BatchSpec is the complete kernel program for one batch pipeline.
type BatchSpec struct {
	Sink    uint8
	Width   uint64
	Filters []*BatchExpr
	// Probe makes the kernel a probe kernel: one key per join key, a column
	// of the scanned table (E) matched against the build entry's widened
	// key slot at Off. Empty for a scan kernel.
	Probe   []BatchKey
	Keys    []BatchKey
	Aggs    []BatchAgg
	Payload []BatchCol
}

// Footprint is the Go heap the spec holds: its nodes, key, aggregate and
// payload arrays and the bytes of its string constants.
func (s *BatchSpec) Footprint() int64 {
	n := int64(unsafe.Sizeof(*s)) + int64(len(s.Filters))*int64(unsafe.Sizeof(s)) +
		int64(len(s.Probe)+len(s.Keys))*int64(unsafe.Sizeof(BatchKey{})) +
		int64(len(s.Aggs))*int64(unsafe.Sizeof(BatchAgg{})) +
		int64(len(s.Payload))*int64(unsafe.Sizeof(BatchCol{}))
	var expr func(e *BatchExpr)
	expr = func(e *BatchExpr) {
		if e != nil {
			n += int64(unsafe.Sizeof(*e)) + int64(len(e.S))
			expr(e.L)
			expr(e.R)
			expr(e.H)
		}
	}
	for _, f := range s.Filters {
		expr(f)
	}
	for _, k := range s.Probe {
		expr(k.E)
	}
	for _, k := range s.Keys {
		expr(k.E)
	}
	for _, a := range s.Aggs {
		expr(a.Arg)
	}
	for _, p := range s.Payload {
		expr(p.Src)
	}
	return n
}

// BatchMaxDepth is the deepest expression node a spec may hold (a root is at
// depth 0). The code generator keeps batch pipelines within it.
const BatchMaxDepth = 64

// --------------------------------------------------------------------------
// Kernel preparation.
// --------------------------------------------------------------------------

// batchProg is a prepared kernel: a copy of the spec with its literals bound,
// plus its flattened column references for the per-call bounds checks.
type batchProg struct {
	spec *BatchSpec
	// cols are the scanned table's column reads, checked over each morsel;
	// bcols the build-entry reads, checked against the probed table's
	// entry width.
	cols  []*BatchExpr
	bcols []*BatchExpr
}

// PrepareBatch readies a kernel program for one execution of its pipeline
// and returns the handle batch_exec and batch_probe take. The kernel runs a
// copy of spec in which every pool-slot literal is the constant its slot
// holds now; spec itself is not changed, so one spec serves every execution
// of a program. A spec that is not well formed is an error.
func (db *DB) PrepareBatch(spec *BatchSpec) (uint64, error) {
	bp, err := db.batchPrepare(spec)
	if err != nil {
		return 0, err
	}
	return db.newHandle(bp), nil
}

// CheckBatchSpec returns the error PrepareBatch would return for spec, short
// of reading a pool slot: it holds every rule of what a kernel may hold that
// the spec shows, and the code generator lowers a kernel only if it passes.
func CheckBatchSpec(spec *BatchSpec) error {
	_, err := (*DB)(nil).batchPrepare(spec)
	return err
}

// batchPrepare is PrepareBatch's walk. On a nil db (CheckBatchSpec) it reads
// no pool and copies no expression: the kernel it returns holds spec's own
// nodes, pool slots included.
func (db *DB) batchPrepare(spec *BatchSpec) (*batchProg, error) {
	if spec.Sink != BatchSinkAgg && spec.Sink != BatchSinkBuild {
		return nil, fmt.Errorf("rt: batch: bad sink %d", spec.Sink)
	}
	s := &BatchSpec{Sink: spec.Sink, Width: spec.Width}
	bp := &batchProg{spec: s}
	probe := len(spec.Probe) > 0
	for _, f := range spec.Filters {
		e, err := db.prepExpr(f, bp, false, 0)
		if err != nil {
			return nil, err
		}
		s.Filters = append(s.Filters, e)
	}
	var err error
	if s.Probe, err = db.prepKeys(spec, spec.Probe, bp, false); err != nil {
		return nil, err
	}
	if s.Keys, err = db.prepKeys(spec, spec.Keys, bp, true); err != nil {
		return nil, err
	}
	for _, a := range spec.Aggs {
		if a.Fn > BAggAvg || a.Ty > BTStr {
			return nil, fmt.Errorf("rt: batch: aggregate %d of type %d", a.Fn, a.Ty)
		}
		if err := prepSlot(spec.Width, a.Off, a.Ty); err != nil {
			return nil, err
		}
		if a.Fn == BAggAvg {
			if err := prepSlot(spec.Width, a.COff, BTInt); err != nil {
				return nil, err
			}
		}
		switch {
		case a.Fn != BAggCount && a.Ty == BTStr:
			return nil, fmt.Errorf("rt: batch: aggregate %d over strings", a.Fn)
		case a.Fn != BAggCount:
			a.Arg, err = db.prepOperand(a.Arg, a.Ty, bp, probe, 0)
		case a.Arg != nil:
			a.Arg, err = db.prepExpr(a.Arg, bp, probe, 0)
		}
		if err != nil {
			return nil, err
		}
		s.Aggs = append(s.Aggs, a)
	}
	for _, p := range spec.Payload {
		if p.Src == nil || p.Src.Kind != BECol && p.Src.Kind != BEBuildCol {
			return nil, fmt.Errorf("rt: batch: a payload entry is not a column")
		}
		if p.Off < 0 || uint64(p.Off) > spec.Width || p.Src.Elem > spec.Width-uint64(p.Off) {
			return nil, fmt.Errorf("rt: batch: payload slot %d outside the entry", p.Off)
		}
		if p.Src, err = db.prepExpr(p.Src, bp, probe, 0); err != nil {
			return nil, err
		}
		s.Payload = append(s.Payload, p)
	}
	return bp, nil
}

// prepKeys prepares the probe keys or, with sink set, the group or join keys
// of spec: each a column of its type, and a sink key inside its slot. Only a
// probe kernel's sink keys may read the build side.
func (db *DB) prepKeys(spec *BatchSpec, keys []BatchKey, bp *batchProg, sink bool) ([]BatchKey, error) {
	var out []BatchKey
	for _, k := range keys {
		if k.E == nil || k.E.Kind != BECol && k.E.Kind != BEBuildCol || k.E.Ty != k.Ty {
			return nil, fmt.Errorf("rt: batch: a key is not a column of its type")
		}
		if sink {
			if err := prepSlot(spec.Width, k.Off, k.Ty); err != nil {
				return nil, err
			}
		}
		var err error
		if k.E, err = db.prepExpr(k.E, bp, sink && len(spec.Probe) > 0, 0); err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// prepSlot checks that a value of type ty at payload offset off lies inside
// entries of width bytes.
func prepSlot(width uint64, off int64, ty BatchType) error {
	size := uint64(8)
	if ty == BTI128 || ty == BTStr {
		size = 16
	}
	if off < 0 || uint64(off) > width || size > width-uint64(off) {
		return fmt.Errorf("rt: batch: slot %d outside %d-byte entries", off, width)
	}
	return nil
}

// colWidth reports whether elem is a valid element width of type ty.
func colWidth(ty BatchType, elem uint64) bool {
	switch ty {
	case BTInt:
		return elem == 1 || elem == 2 || elem == 4 || elem == 8
	case BTF64:
		return elem == 8
	}
	return elem == 16
}

// prepExpr returns the kernel's copy of e, at the given depth of its tree:
// every pool-slot node becomes the constant its slot holds now, a short
// string constant gets its value's words, and every column reference is
// checked and collected for the per-call bounds checks. On a nil db
// (CheckBatchSpec) it makes the same checks and returns e itself. Build
// columns are allowed only in the sink of a probe kernel (build is set). A
// node of an unknown kind, type or operator, a missing operand or one of
// another type than its parent reads, a pool slot past the pool, a string
// compare other than = and <>, BETWEEN or CASE of strings and a tree deeper
// than BatchMaxDepth are errors.
func (db *DB) prepExpr(e *BatchExpr, bp *batchProg, build bool, depth int) (*BatchExpr, error) {
	if e == nil {
		return nil, fmt.Errorf("rt: batch: missing operand")
	}
	if depth > BatchMaxDepth {
		return nil, fmt.Errorf("rt: batch: expression deeper than %d", BatchMaxDepth)
	}
	if e.Kind > BECase || e.Ty > BTStr {
		return nil, fmt.Errorf("rt: batch: expression kind %d of type %d", e.Kind, e.Ty)
	}
	c := BatchExpr{Kind: e.Kind, Ty: e.Ty}
	var err error
	switch e.Kind {
	case BEConst:
		c.I, c.D, c.F, c.S = e.I, e.D, e.F, e.S
	case BECol, BEBuildCol:
		if e.Kind == BEBuildCol && !build {
			return nil, fmt.Errorf("rt: batch: build column outside a probe kernel's sink")
		}
		if !colWidth(e.Ty, e.Elem) {
			return nil, fmt.Errorf("rt: batch: column of type %d and width %d", e.Ty, e.Elem)
		}
		c.Base, c.Elem = e.Base, e.Elem
	case BEPool:
		if e.Slot >= ConstPoolSlots {
			return nil, fmt.Errorf("rt: batch: pool slot %d past the pool", e.Slot)
		}
		if db == nil {
			break
		}
		addr := db.ConstPoolAddr(int(e.Slot))
		lo, hi := le64(db.M.Mem[addr:]), le64(db.M.Mem[addr+8:])
		c.Kind = BEConst
		switch e.Ty {
		case BTInt:
			c.I = int64(lo)
		case BTI128:
			c.D = I128{Lo: lo, Hi: hi}
		case BTF64:
			c.F = fbits(lo)
		case BTStr:
			var buf [16]byte
			s, err := db.strBytes(lo, hi, &buf)
			if err != nil {
				return nil, err
			}
			c.S = append([]byte(nil), s...)
		}
	case BEArith, BECmp:
		if e.Kind == BEArith && (e.Op > BArithMul || e.Ty == BTStr) ||
			e.Kind == BECmp && (e.Op > BCmpGE || e.Ty == BTStr && e.Op > BCmpNE) {
			return nil, fmt.Errorf("rt: batch: operator %d of type %d", e.Op, e.Ty)
		}
		c.Op = e.Op
		if c.L, err = db.prepOperand(e.L, e.Ty, bp, build, depth+1); err != nil {
			return nil, err
		}
		if c.R, err = db.prepOperand(e.R, e.Ty, bp, build, depth+1); err != nil {
			return nil, err
		}
	case BEBetween, BECase:
		switch {
		case e.Ty == BTStr:
			err = fmt.Errorf("rt: batch: between or case of strings")
		case e.Kind == BEBetween:
			c.L, err = db.prepOperand(e.L, e.Ty, bp, build, depth+1)
		default:
			if c.L, err = db.prepExpr(e.L, bp, build, depth+1); err == nil && c.L.Kind != BECmp && c.L.Kind != BEBetween {
				err = fmt.Errorf("rt: batch: case on a condition of kind %d", c.L.Kind)
			}
		}
		if err != nil {
			return nil, err
		}
		if c.R, err = db.prepOperand(e.R, e.Ty, bp, build, depth+1); err != nil {
			return nil, err
		}
		if c.H, err = db.prepOperand(e.H, e.Ty, bp, build, depth+1); err != nil {
			return nil, err
		}
	}
	if db == nil {
		return e, nil
	}
	if c.Kind == BEConst && c.Ty == BTStr && len(c.S) <= 12 {
		var b [16]byte
		put32(b[:], uint32(len(c.S)))
		copy(b[4:], c.S)
		c.D = I128{Lo: le64(b[:8]), Hi: le64(b[8:])}
	}
	k := new(BatchExpr) // c stays on the stack, so a check allocates no node
	*k = c
	switch k.Kind {
	case BECol:
		bp.cols = append(bp.cols, k)
	case BEBuildCol:
		bp.bcols = append(bp.bcols, k)
	}
	return k, nil
}

// prepOperand is prepExpr of an operand the parent reads as a value of type
// ty: an operand of another type is an error.
func (db *DB) prepOperand(e *BatchExpr, ty BatchType, bp *batchProg, build bool, depth int) (*BatchExpr, error) {
	c, err := db.prepExpr(e, bp, build, depth)
	if err == nil && c.Ty != ty {
		return nil, fmt.Errorf("rt: batch: operand of type %d where %d is read", c.Ty, ty)
	}
	return c, err
}

// --------------------------------------------------------------------------
// Kernel execution.
// --------------------------------------------------------------------------

// scratch is a stack of reusable buffers of one element type: get hands out
// the next buffer, grown to n, and the buffers return when the count is
// reset. Nothing is cleared; callers overwrite what they read.
type scratch[T any] struct {
	bufs [][]T
	used int
}

func (s *scratch[T]) get(n int) []T {
	if s.used == len(s.bufs) {
		s.bufs = append(s.bufs, nil)
	}
	b := s.bufs[s.used]
	if cap(b) < n {
		b = make([]T, n)
		s.bufs[s.used] = b
	}
	s.used++
	return b[:n]
}

// batchScratch is a DB's kernel memory, reused across kernel calls and
// statements: every vector a call evaluates comes from here, and returns
// when the call ends, or at a mark between the filters of a morsel and
// between the chunks of a probe.
type batchScratch struct {
	ints  scratch[int64]
	decs  scratch[I128]
	flts  scratch[float64]
	strs  scratch[[2]uint64]
	words scratch[uint64]
	pos   scratch[int]
	vals  scratch[bVals]
}

type scratchMark [7]int

func (s *batchScratch) mark() scratchMark {
	return scratchMark{s.ints.used, s.decs.used, s.flts.used, s.strs.used, s.words.used, s.pos.used, s.vals.used}
}

func (s *batchScratch) release(m scratchMark) {
	s.ints.used, s.decs.used, s.flts.used, s.strs.used = m[0], m[1], m[2], m[3]
	s.words.used, s.pos.used, s.vals.used = m[4], m[5], m[6]
}

// bRows is what kernel expressions evaluate over, position by position: a
// row of the scanned table and, in a probe kernel's sink, the build entry
// that row matched.
type bRows struct {
	row []int64
	ent []int64
}

// bVals holds one expression's values over the positions it was evaluated
// at, in the slice matching its type. Strings are the 16-byte value halves
// (lo, hi). A constant has no slice: c is its node, read at every position.
type bVals struct {
	i []int64
	d []I128
	f []float64
	s [][2]uint64
	c *BatchExpr
}

func (v *bVals) int(k int) int64 {
	if v.c != nil {
		return v.c.I
	}
	return v.i[k]
}

func (v *bVals) dec(k int) I128 {
	if v.c != nil {
		return v.c.D
	}
	return v.d[k]
}

func (v *bVals) flt(k int) float64 {
	if v.c != nil {
		return v.c.F
	}
	return v.f[k]
}

// bLoad reads a column of type ty and element width elem at base+idx[k]*stride
// for every position k: a table column is (column base, row, width), a build
// column (payload offset, entry, 1).
func (db *DB) bLoad(ty BatchType, elem, base, stride uint64, idx []int64) bVals {
	mem := db.M.Mem
	sc := &db.bscr
	var v bVals
	switch ty {
	case BTInt:
		v.i = sc.ints.get(len(idx))
		switch elem {
		case 1:
			for k, r := range idx {
				v.i[k] = int64(int8(mem[base+uint64(r)*stride]))
			}
		case 2:
			for k, r := range idx {
				v.i[k] = int64(int16(binary.LittleEndian.Uint16(mem[base+uint64(r)*stride:])))
			}
		case 4:
			for k, r := range idx {
				v.i[k] = int64(int32(le32(mem[base+uint64(r)*stride:])))
			}
		default:
			for k, r := range idx {
				v.i[k] = int64(le64(mem[base+uint64(r)*stride:]))
			}
		}
	case BTI128:
		v.d = sc.decs.get(len(idx))
		for k, r := range idx {
			a := base + uint64(r)*stride
			v.d[k] = I128{Lo: le64(mem[a:]), Hi: le64(mem[a+8:])}
		}
	case BTF64:
		v.f = sc.flts.get(len(idx))
		for k, r := range idx {
			v.f[k] = fbits(le64(mem[base+uint64(r)*stride:]))
		}
	case BTStr:
		v.s = sc.strs.get(len(idx))
		for k, r := range idx {
			a := base + uint64(r)*stride
			v.s[k] = [2]uint64{le64(mem[a:]), le64(mem[a+8:])}
		}
	}
	return v
}

// bEval evaluates e at every position of rs. It returns the values and the
// position of the first trapping row (-1 if none) with its trap; values at
// and after a trapping position are unspecified. Evaluation order per row
// matches the tuple code: left operand, right operand, then the operation.
func (db *DB) bEval(e *BatchExpr, rs bRows) (bVals, int, error) {
	n := len(rs.row)
	sc := &db.bscr
	var v bVals
	switch e.Kind {
	case BEConst:
		if e.Ty == BTStr {
			return v, 0, fmt.Errorf("rt: batch: string constant not evaluable as value")
		}
		return bVals{c: e}, -1, nil
	case BECol:
		return db.bLoad(e.Ty, e.Elem, e.Base, e.Elem, rs.row), -1, nil
	case BEBuildCol:
		return db.bLoad(e.Ty, e.Elem, e.Base, 1, rs.ent), -1, nil
	case BECase:
		pos, err := db.bTest(e.L, rs)
		if err != nil {
			return v, 0, err
		}
		th, tT, errT := db.bEval(e.R, rs)
		el, tE, errE := db.bEval(e.H, rs)
		if tT >= 0 || tE >= 0 {
			return v, 0, cmpErr(errT, errE)
		}
		switch e.Ty {
		case BTInt:
			v.i = sc.ints.get(n)
			for k := range v.i {
				v.i[k] = el.int(k)
			}
			for _, k := range pos {
				v.i[k] = th.int(k)
			}
		case BTI128:
			v.d = sc.decs.get(n)
			for k := range v.d {
				v.d[k] = el.dec(k)
			}
			for _, k := range pos {
				v.d[k] = th.dec(k)
			}
		case BTF64:
			v.f = sc.flts.get(n)
			for k := range v.f {
				v.f[k] = el.flt(k)
			}
			for _, k := range pos {
				v.f[k] = th.flt(k)
			}
		default:
			return v, 0, fmt.Errorf("rt: batch: case of type %d", e.Ty)
		}
		return v, -1, nil
	case BEArith:
		lv, tL, errL := db.bEval(e.L, rs)
		rv, tR, errR := db.bEval(e.R, rs)
		stop := n
		if tL >= 0 && tL < stop {
			stop = tL
		}
		if tR >= 0 && tR < stop {
			stop = tR
		}
		switch e.Ty {
		case BTInt:
			v.i = sc.ints.get(n)
			for k := 0; k < stop; k++ {
				a, b := lv.int(k), rv.int(k)
				var r int64
				var ok bool
				switch e.Op {
				case BArithAdd:
					r, ok = sem.SAdd(a, b)
				case BArithSub:
					r, ok = sem.SSub(a, b)
				default:
					r, ok = sem.SMul(a, b)
				}
				if !ok {
					return v, k, &vm.Trap{Code: vt.TrapOverflow}
				}
				v.i[k] = r
			}
		case BTI128:
			v.d = sc.decs.get(n)
			for k := 0; k < stop; k++ {
				a, b := lv.dec(k), rv.dec(k)
				var r I128
				var ok bool
				switch e.Op {
				case BArithAdd:
					r, ok = a.SAdd(b)
				case BArithSub:
					r, ok = a.SSub(b)
				default:
					if r, ok = a.SMul(b); !ok {
						return v, k, &vm.Trap{Code: vt.TrapOverflow, Msg: mul128Msg}
					}
				}
				if !ok {
					return v, k, &vm.Trap{Code: vt.TrapOverflow}
				}
				v.d[k] = r
			}
		case BTF64:
			v.f = sc.flts.get(n)
			for k := 0; k < stop; k++ {
				a, b := lv.flt(k), rv.flt(k)
				switch e.Op {
				case BArithAdd:
					v.f[k] = a + b
				case BArithSub:
					v.f[k] = a - b
				default:
					v.f[k] = a * b
				}
			}
		default:
			return v, 0, fmt.Errorf("rt: batch: arith over type %d", e.Ty)
		}
		// No operation trap before stop; the earliest operand trap (left
		// before right at the same row, matching evaluation order) wins.
		if tL >= 0 && tL == stop {
			return v, tL, errL
		}
		if tR >= 0 && tR == stop {
			return v, tR, errR
		}
		return v, -1, nil
	}
	return v, 0, fmt.Errorf("rt: batch: expr kind %d not evaluable as value", e.Kind)
}

// cmpErr is the error of the first of two trap-free operands that failed.
func cmpErr(l, r error) error {
	if l != nil {
		return l
	}
	return r
}

// inlineMasks are the bits of a string value's two words that hold its
// length and, when it is inline (at most 12 bytes), its n bytes: two inline
// values are equal exactly when their words agree under the masks, whatever
// the unused bytes hold. A longer value's first word is its length and its
// first four bytes.
func inlineMasks(n uint64) (lo, hi uint64) {
	lo, hi = ^uint64(0), ^uint64(0)
	if n < 4 {
		lo = 1<<(32+8*n) - 1
	}
	switch {
	case n <= 4:
		hi = 0
	case n < 12:
		hi = 1<<(8*(n-4)) - 1
	}
	return lo, hi
}

// strEqConst compares a 16-byte string value with a prepared string
// constant: an inline value by its words, a longer one by its bytes.
func (db *DB) strEqConst(lo, hi uint64, c *BatchExpr) (bool, error) {
	n := uint64(uint32(lo))
	if n != uint64(len(c.S)) {
		return false, nil
	}
	if n <= 12 {
		ml, mh := inlineMasks(n)
		return (lo^c.D.Lo)&ml == 0 && (hi^c.D.Hi)&mh == 0, nil
	}
	body, err := db.M.Bytes(hi, n)
	if err != nil {
		return false, err
	}
	return string(body) == string(c.S), nil
}

// strEqVals compares two 16-byte string values by content.
func (db *DB) strEqVals(alo, ahi, blo, bhi uint64) (bool, error) {
	n := uint64(uint32(alo))
	if n != uint64(uint32(blo)) {
		return false, nil
	}
	ml, mh := inlineMasks(n)
	if (alo^blo)&ml != 0 {
		return false, nil
	}
	if n <= 12 {
		return (ahi^bhi)&mh == 0, nil
	}
	a, err := db.M.Bytes(ahi, n)
	if err != nil {
		return false, err
	}
	b, err := db.M.Bytes(bhi, n)
	if err != nil {
		return false, err
	}
	return string(a) == string(b), nil
}

// flipCmp is the predicate p with its operands swapped.
func flipCmp(p uint8) uint8 {
	switch p {
	case BCmpLT:
		return BCmpGT
	case BCmpLE:
		return BCmpGE
	case BCmpGT:
		return BCmpLT
	case BCmpGE:
		return BCmpLE
	}
	return p
}

// constPos appends to out the positions k at which a[k] p c holds, for a
// column compared with a constant: sem.ICmp's signed and sem.FCmp's
// predicates on int64 and float64, one loop per operator.
func constPos[T int64 | float64](p uint8, a []T, c T, out []int) []int {
	switch p {
	case BCmpEQ:
		for k, x := range a {
			if x == c {
				out = append(out, k)
			}
		}
	case BCmpNE:
		for k, x := range a {
			if x != c {
				out = append(out, k)
			}
		}
	case BCmpLT:
		for k, x := range a {
			if x < c {
				out = append(out, k)
			}
		}
	case BCmpLE:
		for k, x := range a {
			if x <= c {
				out = append(out, k)
			}
		}
	case BCmpGT:
		for k, x := range a {
			if x > c {
				out = append(out, k)
			}
		}
	default:
		for k, x := range a {
			if x >= c {
				out = append(out, k)
			}
		}
	}
	return out
}

// bCmps maps the batch comparison operators to QIR predicates.
var bCmps = [...]qir.Cmp{BCmpEQ: qir.CmpEQ, BCmpNE: qir.CmpNE, BCmpLT: qir.CmpSLT,
	BCmpLE: qir.CmpSLE, BCmpGT: qir.CmpSGT, BCmpGE: qir.CmpSGE}

// bTest returns the positions of rs, ascending, at which the boolean
// condition e holds. Conditions are trap-free by construction (column and
// constant operands only); an error here indicates a kernel or spec bug.
func (db *DB) bTest(e *BatchExpr, rs bRows) ([]int, error) {
	n := len(rs.row)
	out := db.bscr.pos.get(n)[:0]
	switch e.Kind {
	case BECmp:
		if int(e.Op) >= len(bCmps) {
			return nil, fmt.Errorf("rt: batch: bad comparison %d", e.Op)
		}
		if e.Ty == BTStr {
			return db.strEqPos(e, rs, out)
		}
		lv, tL, errL := db.bEval(e.L, rs)
		rv, tR, errR := db.bEval(e.R, rs)
		if tL >= 0 || tR >= 0 {
			return nil, cmpErr(errL, errR)
		}
		c := bCmps[e.Op]
		switch e.Ty {
		case BTInt:
			switch {
			case lv.c == nil && rv.c != nil:
				return constPos(e.Op, lv.i[:n], rv.c.I, out), nil
			case lv.c != nil && rv.c == nil:
				return constPos(flipCmp(e.Op), rv.i[:n], lv.c.I, out), nil
			}
			for k := 0; k < n; k++ {
				if sem.ICmp(c, uint64(lv.int(k)), uint64(rv.int(k))) {
					out = append(out, k)
				}
			}
			return out, nil
		case BTF64:
			switch {
			case lv.c == nil && rv.c != nil:
				return constPos(e.Op, lv.f[:n], rv.c.F, out), nil
			case lv.c != nil && rv.c == nil:
				return constPos(flipCmp(e.Op), rv.f[:n], lv.c.F, out), nil
			}
			for k := 0; k < n; k++ {
				if sem.FCmp(c, lv.flt(k), rv.flt(k)) {
					out = append(out, k)
				}
			}
			return out, nil
		case BTI128:
			for k := 0; k < n; k++ {
				if sem.ICmp128(c, lv.dec(k), rv.dec(k)) {
					out = append(out, k)
				}
			}
			return out, nil
		}
	case BEBetween:
		// All three operands evaluate, then (v >= lo) AND (v <= hi) — the
		// tuple expansion is non-short-circuit.
		vv, tV, errV := db.bEval(e.L, rs)
		lv, tLo, errLo := db.bEval(e.R, rs)
		hv, tHi, errHi := db.bEval(e.H, rs)
		if tV >= 0 || tLo >= 0 || tHi >= 0 {
			return nil, cmpErr(errV, cmpErr(errLo, errHi))
		}
		switch e.Ty {
		case BTInt:
			for k := 0; k < n; k++ {
				if x := vv.int(k); x >= lv.int(k) && x <= hv.int(k) {
					out = append(out, k)
				}
			}
			return out, nil
		case BTI128:
			for k := 0; k < n; k++ {
				if x := vv.dec(k); x.Cmp(lv.dec(k)) >= 0 && x.Cmp(hv.dec(k)) <= 0 {
					out = append(out, k)
				}
			}
			return out, nil
		case BTF64:
			for k := 0; k < n; k++ {
				if x := vv.flt(k); x >= lv.flt(k) && x <= hv.flt(k) {
					out = append(out, k)
				}
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("rt: batch: expr kind %d of type %d is not a filter", e.Kind, e.Ty)
}

// strEqPos is bTest of a string equality or inequality. A string constant
// stays raw in the spec (e.S): it has no 16-byte in-memory form, so it
// bypasses bEval and is compared through strEqConst.
func (db *DB) strEqPos(e *BatchExpr, rs bRows, out []int) ([]int, error) {
	n := len(rs.row)
	want := e.Op == BCmpEQ
	l, r := e.L, e.R
	if l.Kind == BEConst {
		l, r = r, l
	}
	if l.Kind == BEConst {
		if (string(l.S) == string(r.S)) == want {
			for k := 0; k < n; k++ {
				out = append(out, k)
			}
		}
		return out, nil
	}
	lv, tL, errL := db.bEval(l, rs)
	if tL >= 0 {
		return nil, errL
	}
	if r.Kind == BEConst {
		for k, s := range lv.s {
			eq, err := db.strEqConst(s[0], s[1], r)
			if err != nil {
				return nil, err
			}
			if eq == want {
				out = append(out, k)
			}
		}
		return out, nil
	}
	rv, tR, errR := db.bEval(r, rs)
	if tR >= 0 {
		return nil, errR
	}
	for k, s := range lv.s {
		eq, err := db.strEqVals(s[0], s[1], rv.s[k][0], rv.s[k][1])
		if err != nil {
			return nil, err
		}
		if eq == want {
			out = append(out, k)
		}
	}
	return out, nil
}

// batchStrHash replicates FnStrHash: CRC32C of the bytes with the length
// folded into the upper word. An inline value hashes from its words.
func (db *DB) batchStrHash(lo, hi uint64) (uint64, error) {
	n := uint64(uint32(lo))
	if n > 12 {
		s, err := db.M.Bytes(hi, n)
		if err != nil {
			return 0, err
		}
		return uint64(vt.Crc32c(0, s)) | n<<32, nil
	}
	w := lo>>32 | hi<<32 // bytes 0-7
	crc, rest := uint32(0), n
	if n >= 8 {
		crc, w, rest = uint32(vt.Crc32c8(0, w)), hi>>32, n-8
	}
	var b [8]byte
	put64(b[:], w)
	return uint64(vt.Crc32c(crc, b[:rest])) | n<<32, nil
}

// batchHashes computes the key-tuple hash of positions [0, stop): CRC32C
// folding per 64-bit word with the final long-mul-fold mix, exactly the
// chain hashKeys emits. Keys are columns (batchPrepare).
func (db *DB) batchHashes(keys []BatchKey, keyV []bVals, stop int, out []uint64) error {
	for k := 0; k < stop; k++ {
		h := uint64(0)
		for i := range keys {
			switch keys[i].Ty {
			case BTStr:
				sh, err := db.batchStrHash(keyV[i].s[k][0], keyV[i].s[k][1])
				if err != nil {
					return err
				}
				h = vt.Crc32c8(h, sh)
			case BTI128:
				h = vt.Crc32c8(h, keyV[i].d[k].Lo)
				h = vt.Crc32c8(h, keyV[i].d[k].Hi)
			case BTF64:
				h = vt.Crc32c8(h, toBits(keyV[i].f[k]))
			default:
				h = vt.Crc32c8(h, uint64(keyV[i].i[k]))
			}
		}
		mhi, mlo := bits.Mul64(h, 0x2545F4914F6CDD1D)
		out[k] = mlo ^ mhi
	}
	return nil
}

// batchKeysEqual compares the stored widened key slots at payload p against
// position k of the evaluated keys, replicating the generated chain-walk
// comparison (string keys by content, everything else on the 64-bit words).
func (db *DB) batchKeysEqual(keys []BatchKey, keyV []bVals, k int, p uint64) (bool, error) {
	mem := db.M.Mem
	for i := range keys {
		off := p + uint64(keys[i].Off)
		switch keys[i].Ty {
		case BTStr:
			eq, err := db.strEqVals(le64(mem[off:]), le64(mem[off+8:]), keyV[i].s[k][0], keyV[i].s[k][1])
			if err != nil || !eq {
				return false, err
			}
		case BTI128:
			if le64(mem[off:]) != keyV[i].d[k].Lo || le64(mem[off+8:]) != keyV[i].d[k].Hi {
				return false, nil
			}
		case BTF64:
			if fbits(le64(mem[off:])) != keyV[i].f[k] {
				return false, nil
			}
		default:
			if int64(le64(mem[off:])) != keyV[i].i[k] {
				return false, nil
			}
		}
	}
	return true, nil
}

// batchExec runs the prepared kernel over table rows [lo, hi): bounds
// pre-check, selection-vector filtering, then — for a probe kernel, per
// chunk of matching (row, entry) pairs — vectorized key/argument evaluation
// and the ordered sink loop. probe is the probed join table of a probe
// kernel, nil for a scan kernel. On a trapping row, every earlier row's
// sink effect has been applied and the row's own has not — the same partial
// state tuple-at-a-time execution leaves behind.
func (db *DB) batchExec(bp *batchProg, sink, probe *hashTable, lo, hi int64) error {
	ctrBatchCalls.Inc()
	spec := bp.spec
	if (probe != nil) != (len(spec.Probe) > 0) {
		return fmt.Errorf("rt: batch: kernel with %d probe keys called with probe table %v", len(spec.Probe), probe != nil)
	}
	if sink.width != spec.Width {
		return fmt.Errorf("rt: batch: sink entries of %d bytes, kernel writes %d", sink.width, spec.Width)
	}
	if probe != nil {
		ctrBatchProbeCalls.Inc()
		for _, k := range spec.Probe {
			if err := prepSlot(probe.width, k.Off, k.Ty); err != nil {
				return err
			}
		}
		for _, c := range bp.bcols {
			if c.Base > probe.width || c.Elem > probe.width-c.Base {
				return fmt.Errorf("rt: batch: build column at %d outside %d-byte entries", c.Base, probe.width)
			}
		}
	}
	if hi <= lo {
		return nil
	}
	ctrBatchRows.Add(hi - lo)
	for _, c := range bp.cols {
		if _, err := db.M.Bytes(c.Base+uint64(lo)*c.Elem, uint64(hi-lo)*c.Elem); err != nil {
			return err
		}
	}

	sc := &db.bscr
	defer sc.release(sc.mark())
	sel := sc.ints.get(int(hi - lo))
	for i := range sel {
		sel[i] = lo + int64(i)
	}
	m := sc.mark()
	for _, f := range spec.Filters {
		pos, err := db.bTest(f, bRows{row: sel})
		if err != nil {
			return err
		}
		for j, k := range pos {
			sel[j] = sel[k]
		}
		sel = sel[:len(pos)]
		sc.release(m)
		if len(sel) == 0 {
			return nil
		}
	}
	if probe == nil {
		return db.batchSink(bp, sink, bRows{row: sel})
	}

	// Probe: hash every surviving row's keys, walk its bucket chain in the
	// tuple code's order, and hand the matching pairs to the sink a chunk
	// at a time.
	pk := sc.vals.get(len(spec.Probe))
	for i := range spec.Probe {
		v, t, err := db.bEval(spec.Probe[i].E, bRows{row: sel})
		if t >= 0 {
			return err
		}
		pk[i] = v
	}
	hashes := sc.words.get(len(sel))
	if err := db.batchHashes(spec.Probe, pk, len(sel), hashes); err != nil {
		return err
	}
	chunk := len(sel)
	pairs := bRows{row: sc.ints.get(chunk)[:0], ent: sc.ints.get(chunk)[:0]}
	m = sc.mark()
	for k, r := range sel {
		h := hashes[k]
		for p := db.htLookup(probe, h); p != 0; p = le64(db.M.Mem[p-entryHeader:]) {
			if le64(db.M.Mem[p-8:]) != h {
				continue
			}
			eq, err := db.batchKeysEqual(spec.Probe, pk, k, p)
			if err != nil {
				return err
			}
			if !eq {
				continue
			}
			pairs.row = append(pairs.row, r)
			pairs.ent = append(pairs.ent, int64(p))
			if len(pairs.row) == chunk {
				if err := db.batchSink(bp, sink, pairs); err != nil {
					return err
				}
				sc.release(m)
				pairs.row, pairs.ent = pairs.row[:0], pairs.ent[:0]
			}
		}
	}
	if len(pairs.row) == 0 {
		return nil
	}
	return db.batchSink(bp, sink, pairs)
}

// batchSink evaluates the sink's keys and arguments at every position of rs,
// in tuple evaluation order, and applies the sink position by position up to
// the earliest trapping one (ties to the earlier expression).
func (db *DB) batchSink(bp *batchProg, sink *hashTable, rs bRows) error {
	spec := bp.spec
	sc := &db.bscr
	trapAt, trapErr := len(rs.row), error(nil)
	keyV := sc.vals.get(len(spec.Keys))
	for i := range spec.Keys {
		v, t, err := db.bEval(spec.Keys[i].E, rs)
		keyV[i] = v
		if t >= 0 && t < trapAt {
			trapAt, trapErr = t, err
		}
	}
	argV := sc.vals.get(len(spec.Aggs))
	for i := range spec.Aggs {
		argV[i] = bVals{}
		if spec.Aggs[i].Arg != nil {
			v, t, err := db.bEval(spec.Aggs[i].Arg, rs)
			argV[i] = v
			if t >= 0 && t < trapAt {
				trapAt, trapErr = t, err
			}
		}
	}
	stop := trapAt

	hashes := sc.words.get(stop)
	if err := db.batchHashes(spec.Keys, keyV, stop, hashes); err != nil {
		return err
	}
	var err error
	switch spec.Sink {
	case BatchSinkAgg:
		err = db.batchAggSink(spec, sink, keyV, argV, stop, hashes)
	case BatchSinkBuild:
		err = db.batchBuildSink(spec, sink, keyV, rs, stop, hashes)
	default:
		err = fmt.Errorf("rt: batch: bad sink kind %d", spec.Sink)
	}
	if err != nil {
		return err
	}
	return trapErr
}

func (db *DB) storeKeys(keys []BatchKey, keyV []bVals, k int, p uint64) {
	mem := db.M.Mem
	for i := range keys {
		off := p + uint64(keys[i].Off)
		switch keys[i].Ty {
		case BTStr:
			put64(mem[off:], keyV[i].s[k][0])
			put64(mem[off+8:], keyV[i].s[k][1])
		case BTI128:
			put64(mem[off:], keyV[i].d[k].Lo)
			put64(mem[off+8:], keyV[i].d[k].Hi)
		case BTF64:
			put64(mem[off:], toBits(keyV[i].f[k]))
		default:
			put64(mem[off:], uint64(keyV[i].i[k]))
		}
	}
}

// batchAggSink is the aggregation sink: per position, probe the group
// table and update (with the tuple code's overflow traps, in aggregate
// order) or insert a fresh group.
func (db *DB) batchAggSink(spec *BatchSpec, ht *hashTable, keyV, argV []bVals, stop int, hashes []uint64) error {
	mem := db.M.Mem
	for k := 0; k < stop; k++ {
		h := hashes[k]
		p := db.htLookup(ht, h)
		for p != 0 {
			if le64(mem[p-8:]) == h {
				eq, err := db.batchKeysEqual(spec.Keys, keyV, k, p)
				if err != nil {
					return err
				}
				if eq {
					break
				}
			}
			p = le64(mem[p-entryHeader:])
		}
		if p != 0 {
			// Found: update in place, aggregate by aggregate.
			for i := range spec.Aggs {
				a := &spec.Aggs[i]
				off := p + uint64(a.Off)
				switch a.Fn {
				case BAggCount:
					put64(mem[off:], le64(mem[off:])+1)
				case BAggSum, BAggAvg:
					switch a.Ty {
					case BTF64:
						put64(mem[off:], toBits(fbits(le64(mem[off:]))+argV[i].flt(k)))
					case BTI128:
						cur := I128{Lo: le64(mem[off:]), Hi: le64(mem[off+8:])}
						r, ok := cur.SAdd(argV[i].dec(k))
						if !ok {
							return &vm.Trap{Code: vt.TrapOverflow}
						}
						put64(mem[off:], r.Lo)
						put64(mem[off+8:], r.Hi)
					default:
						s, ok := sem.SAdd(int64(le64(mem[off:])), argV[i].int(k))
						if !ok {
							return &vm.Trap{Code: vt.TrapOverflow}
						}
						put64(mem[off:], uint64(s))
					}
					if a.Fn == BAggAvg {
						coff := p + uint64(a.COff)
						put64(mem[coff:], le64(mem[coff:])+1)
					}
				case BAggMin, BAggMax:
					switch a.Ty {
					case BTF64:
						cur := fbits(le64(mem[off:]))
						v := argV[i].flt(k)
						better := v < cur
						if a.Fn == BAggMax {
							better = v > cur
						}
						if better {
							put64(mem[off:], toBits(v))
						}
					case BTI128:
						cur := I128{Lo: le64(mem[off:]), Hi: le64(mem[off+8:])}
						v := argV[i].dec(k)
						c := v.Cmp(cur)
						if (a.Fn == BAggMin && c < 0) || (a.Fn == BAggMax && c > 0) {
							put64(mem[off:], v.Lo)
							put64(mem[off+8:], v.Hi)
						}
					default:
						cur := int64(le64(mem[off:]))
						v := argV[i].int(k)
						if (a.Fn == BAggMin && v < cur) || (a.Fn == BAggMax && v > cur) {
							put64(mem[off:], uint64(v))
						}
					}
				}
			}
		} else {
			// Miss: insert a fresh group with the initial aggregate state.
			np := db.htInsert(ht, h)
			mem = db.M.Mem // htInsert may grow machine memory
			db.storeKeys(spec.Keys, keyV, k, np)
			for i := range spec.Aggs {
				a := &spec.Aggs[i]
				off := np + uint64(a.Off)
				switch a.Fn {
				case BAggCount:
					put64(mem[off:], 1)
				case BAggSum, BAggMin, BAggMax, BAggAvg:
					switch a.Ty {
					case BTF64:
						put64(mem[off:], toBits(argV[i].flt(k)))
					case BTI128:
						v := argV[i].dec(k)
						put64(mem[off:], v.Lo)
						put64(mem[off+8:], v.Hi)
					default:
						put64(mem[off:], uint64(argV[i].int(k)))
					}
					if a.Fn == BAggAvg {
						put64(mem[np+uint64(a.COff):], 1)
					}
				}
			}
		}
	}
	return nil
}

// batchBuildSink is the join-build sink: insert every position with widened
// keys and a verbatim copy of the payload columns, read from the scanned
// row or from the build entry it matched.
func (db *DB) batchBuildSink(spec *BatchSpec, ht *hashTable, keyV []bVals, rs bRows, stop int, hashes []uint64) error {
	for k := 0; k < stop; k++ {
		np := db.htInsert(ht, hashes[k])
		mem := db.M.Mem
		db.storeKeys(spec.Keys, keyV, k, np)
		for _, pc := range spec.Payload {
			src := pc.Src
			a := src.Base + uint64(rs.row[k])*src.Elem
			if src.Kind == BEBuildCol {
				a = uint64(rs.ent[k]) + src.Base
			}
			dst := np + uint64(pc.Off)
			copy(mem[dst:dst+src.Elem], mem[a:a+src.Elem])
		}
	}
	return nil
}
