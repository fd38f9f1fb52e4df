package rt

import (
	"fmt"
	"math/bits"

	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/sem"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Batch (vectorized) operator kernels. A batch-eligible pipeline compiles
// to a tiny main function that calls batch_exec once per morsel instead of
// looping tuple-at-a-time through generated code; the kernel runs the
// pipeline's filters, key/argument expressions, and aggregation or
// join-build sink over the whole morsel with selection vectors, amortizing
// VM dispatch over thousands of rows (the hybrid compiled+vectorized mode
// of Kashuba & Mühleisen).
//
// The kernel is driven by a BatchSpec the code generator serializes into a
// string constant (so it participates in code caching like any other baked
// constant) and hands to batch_prepare during pipeline setup. A query
// literal enters the spec as a constant-pool slot (BEPool) that
// batch_prepare reads from the bound pool, so the spec, and with it the
// compiled code, is the same for every constant variant of a query. Semantics
// replicate the tuple-at-a-time code exactly — same CRC32C/long-mul-fold
// hash, same widened slot layout, same overflow traps in the same per-row
// order — so batch and tuple execution are byte-equivalent, including which
// trap fires first on poisoned data.

var (
	ctrBatchCalls = obs.NewCounter("rt_batch_kernel_calls")
	ctrBatchRows  = obs.NewCounter("rt_batch_rows")
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
	// BindConstPool); batchPrepare turns it into the BEConst of the value
	// the slot holds when the pipeline is set up.
	BEPool
)

// Batch arithmetic operators (overflow-trapping, SQL semantics).
const (
	BArithAdd uint8 = iota
	BArithSub
	BArithMul
)

// Batch comparison predicates.
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
	// Ty is the value type (BEConst/BEPool/BECol/BEArith) or the operand
	// type (BECmp/BEBetween).
	Ty BatchType
	// Op is the arithmetic or comparison operator.
	Op uint8
	// Base/Elem describe a column: base address and element width.
	Base, Elem uint64
	// Constant payloads.
	I int64
	D I128
	F float64
	S []byte
	// Slot is a BEPool node's constant-pool slot.
	Slot uint64
	// Children: L/R for arith and cmp; L=value, R=lo, H=hi for between.
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

// BatchCol is one join-build payload column, copied into the entry verbatim
// (the payload slot is pre-zeroed, so narrow columns match the tuple-mode
// typed store byte-for-byte).
type BatchCol struct {
	Off  int64
	Base uint64
	Elem uint64
}

// BatchSpec is the complete kernel program for one batch pipeline.
type BatchSpec struct {
	Sink    uint8
	Width   uint64
	Filters []*BatchExpr
	Keys    []BatchKey
	Aggs    []BatchAgg
	Payload []BatchCol
}

// --------------------------------------------------------------------------
// Descriptor serialization. The generator bakes the encoded spec into the
// module as a string constant; batch_prepare decodes it at setup time.
// --------------------------------------------------------------------------

const batchMagic uint64 = 0x3142435148435442 // "BTCHQCB1"

// BatchMaxDepth is the deepest expression node a descriptor may hold (a
// root is at depth 0). The code generator keeps batch pipelines within it.
const BatchMaxDepth = 64

func bputU(b []byte, v uint64) []byte {
	var t [8]byte
	put64(t[:], v)
	return append(b, t[:]...)
}

func encExpr(b []byte, e *BatchExpr) []byte {
	b = bputU(b, uint64(e.Kind))
	switch e.Kind {
	case BEConst:
		b = bputU(b, uint64(e.Ty))
		switch e.Ty {
		case BTInt:
			b = bputU(b, uint64(e.I))
		case BTI128:
			b = bputU(b, e.D.Lo)
			b = bputU(b, e.D.Hi)
		case BTF64:
			b = bputU(b, toBits(e.F))
		case BTStr:
			b = bputU(b, uint64(len(e.S)))
			b = append(b, e.S...)
		}
	case BEPool:
		b = bputU(b, uint64(e.Ty))
		b = bputU(b, e.Slot)
	case BECol:
		b = bputU(b, uint64(e.Ty))
		b = bputU(b, e.Base)
		b = bputU(b, e.Elem)
	case BEArith, BECmp:
		b = bputU(b, uint64(e.Ty))
		b = bputU(b, uint64(e.Op))
		b = encExpr(b, e.L)
		b = encExpr(b, e.R)
	case BEBetween:
		b = bputU(b, uint64(e.Ty))
		b = encExpr(b, e.L)
		b = encExpr(b, e.R)
		b = encExpr(b, e.H)
	}
	return b
}

// Encode serializes the spec for embedding as a module string constant.
func (s *BatchSpec) Encode() []byte {
	b := bputU(nil, batchMagic)
	b = bputU(b, uint64(s.Sink))
	b = bputU(b, s.Width)
	b = bputU(b, uint64(len(s.Filters)))
	for _, f := range s.Filters {
		b = encExpr(b, f)
	}
	b = bputU(b, uint64(len(s.Keys)))
	for _, k := range s.Keys {
		b = bputU(b, uint64(k.Off))
		b = bputU(b, uint64(k.Ty))
		b = encExpr(b, k.E)
	}
	b = bputU(b, uint64(len(s.Aggs)))
	for _, a := range s.Aggs {
		b = bputU(b, uint64(a.Fn))
		b = bputU(b, uint64(a.Ty))
		b = bputU(b, uint64(a.Off))
		b = bputU(b, uint64(a.COff))
		if a.Arg != nil {
			b = bputU(b, 1)
			b = encExpr(b, a.Arg)
		} else {
			b = bputU(b, 0)
		}
	}
	b = bputU(b, uint64(len(s.Payload)))
	for _, p := range s.Payload {
		b = bputU(b, uint64(p.Off))
		b = bputU(b, p.Base)
		b = bputU(b, p.Elem)
	}
	return b
}

type bdec struct {
	b   []byte
	pos int
	err error
}

func (d *bdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("rt: batch descriptor: "+format, args...)
	}
}

func (d *bdec) u() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.b) {
		d.fail("truncated at %d", d.pos)
		return 0
	}
	v := le64(d.b[d.pos:])
	d.pos += 8
	return v
}

// code reads a field whose valid values are 0..n-1. Rejecting the rest keeps
// decoding one-to-one: an accepted descriptor re-encodes to its own bytes.
func (d *bdec) code(n uint64, what string) uint64 {
	v := d.u()
	if v >= n {
		d.fail("bad %s %d", what, v)
	}
	return v
}

func (d *bdec) ty() BatchType { return BatchType(d.code(uint64(BTStr)+1, "type")) }

func (d *bdec) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.pos) {
		d.fail("truncated at %d", d.pos)
		return nil
	}
	out := d.b[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out
}

func (d *bdec) expr(depth int) *BatchExpr {
	if d.err != nil {
		return nil
	}
	if depth > BatchMaxDepth {
		d.fail("expression too deep")
		return nil
	}
	e := &BatchExpr{Kind: BatchExprKind(d.code(uint64(BEPool)+1, "expression kind"))}
	switch e.Kind {
	case BEConst:
		e.Ty = d.ty()
		switch e.Ty {
		case BTInt:
			e.I = int64(d.u())
		case BTI128:
			e.D.Lo = d.u()
			e.D.Hi = d.u()
		case BTF64:
			e.F = fbits(d.u())
		case BTStr:
			n := d.u()
			e.S = append([]byte(nil), d.bytes(n)...)
		}
	case BEPool:
		e.Ty = d.ty()
		e.Slot = d.code(ConstPoolSlots, "pool slot")
	case BECol:
		e.Ty = d.ty()
		e.Base = d.u()
		e.Elem = d.u()
	case BEArith:
		e.Ty = d.ty()
		e.Op = uint8(d.code(uint64(BArithMul)+1, "arithmetic operator"))
		e.L = d.expr(depth + 1)
		e.R = d.expr(depth + 1)
	case BECmp:
		e.Ty = d.ty()
		e.Op = uint8(d.code(uint64(BCmpGE)+1, "comparison"))
		e.L = d.expr(depth + 1)
		e.R = d.expr(depth + 1)
	case BEBetween:
		e.Ty = d.ty()
		e.L = d.expr(depth + 1)
		e.R = d.expr(depth + 1)
		e.H = d.expr(depth + 1)
	}
	return e
}

// DecodeBatchSpec parses an encoded kernel program. It accepts exactly the
// outputs of BatchSpec.Encode: every code is in range, a pool slot is below
// ConstPoolSlots, and no bytes follow the spec.
func DecodeBatchSpec(b []byte) (*BatchSpec, error) {
	d := &bdec{b: b}
	if d.u() != batchMagic {
		return nil, fmt.Errorf("rt: batch descriptor: bad magic")
	}
	s := &BatchSpec{Sink: uint8(d.code(uint64(BatchSinkBuild)+1, "sink")), Width: d.u()}
	if s.Sink == 0 {
		d.fail("bad sink 0")
	}
	nf := d.u()
	for i := uint64(0); i < nf && d.err == nil; i++ {
		s.Filters = append(s.Filters, d.expr(0))
	}
	nk := d.u()
	for i := uint64(0); i < nk && d.err == nil; i++ {
		k := BatchKey{Off: int64(d.u()), Ty: d.ty()}
		k.E = d.expr(0)
		s.Keys = append(s.Keys, k)
	}
	na := d.u()
	for i := uint64(0); i < na && d.err == nil; i++ {
		a := BatchAgg{Fn: uint8(d.code(uint64(BAggAvg)+1, "aggregate")), Ty: d.ty(), Off: int64(d.u()), COff: int64(d.u())}
		if d.code(2, "argument flag") == 1 {
			a.Arg = d.expr(0)
		}
		s.Aggs = append(s.Aggs, a)
	}
	np := d.u()
	for i := uint64(0); i < np && d.err == nil; i++ {
		s.Payload = append(s.Payload, BatchCol{Off: int64(d.u()), Base: d.u(), Elem: d.u()})
	}
	if d.err == nil && d.pos != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.pos)
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// --------------------------------------------------------------------------
// Kernel execution.
// --------------------------------------------------------------------------

// batchProg is a prepared kernel: the decoded spec plus flattened column
// references for the per-morsel bounds pre-check, and reusable scratch.
type batchProg struct {
	spec *BatchSpec
	cols []*BatchExpr
	sel  []int64
	hash []uint64
}

func (db *DB) batchPrepare(desc []byte) (*batchProg, error) {
	spec, err := DecodeBatchSpec(desc)
	if err != nil {
		return nil, err
	}
	bp := &batchProg{spec: spec}
	for _, f := range spec.Filters {
		if err := db.prepExpr(f, bp); err != nil {
			return nil, err
		}
	}
	for _, k := range spec.Keys {
		if err := db.prepExpr(k.E, bp); err != nil {
			return nil, err
		}
	}
	for _, a := range spec.Aggs {
		if err := db.prepExpr(a.Arg, bp); err != nil {
			return nil, err
		}
	}
	return bp, nil
}

// prepExpr readies e for the kernel: every pool-slot node becomes the
// constant its slot holds now, and every column reference is collected for
// the per-morsel bounds pre-check.
func (db *DB) prepExpr(e *BatchExpr, bp *batchProg) error {
	if e == nil {
		return nil
	}
	switch e.Kind {
	case BECol:
		bp.cols = append(bp.cols, e)
	case BEPool:
		addr := db.ConstPoolAddr(int(e.Slot))
		lo, hi := le64(db.M.Mem[addr:]), le64(db.M.Mem[addr+8:])
		*e = BatchExpr{Kind: BEConst, Ty: e.Ty}
		switch e.Ty {
		case BTInt:
			e.I = int64(lo)
		case BTI128:
			e.D = I128{Lo: lo, Hi: hi}
		case BTF64:
			e.F = fbits(lo)
		case BTStr:
			var buf [16]byte
			s, err := db.strBytes(lo, hi, &buf)
			if err != nil {
				return err
			}
			e.S = append([]byte(nil), s...)
		}
	}
	if err := db.prepExpr(e.L, bp); err != nil {
		return err
	}
	if err := db.prepExpr(e.R, bp); err != nil {
		return err
	}
	return db.prepExpr(e.H, bp)
}

// bVals holds one expression's values over the selection vector, in the
// slice matching its type. Strings are the 16-byte value halves (lo, hi).
type bVals struct {
	i []int64
	d []I128
	f []float64
	s [][2]uint64
}

// bEval evaluates e over the selected rows. It returns the values and the
// sel-index of the first trapping row (-1 if none) with its trap; values at
// and after a trapping index are unspecified. Evaluation order per row
// matches the tuple code: left operand, right operand, then the operation.
func (db *DB) bEval(e *BatchExpr, sel []int64) (bVals, int, error) {
	n := len(sel)
	mem := db.M.Mem
	var v bVals
	switch e.Kind {
	case BEConst:
		switch e.Ty {
		case BTInt:
			v.i = make([]int64, n)
			for k := range v.i {
				v.i[k] = e.I
			}
		case BTI128:
			v.d = make([]I128, n)
			for k := range v.d {
				v.d[k] = e.D
			}
		case BTF64:
			v.f = make([]float64, n)
			for k := range v.f {
				v.f[k] = e.F
			}
		default:
			return v, 0, fmt.Errorf("rt: batch: const of type %d not evaluable", e.Ty)
		}
		return v, -1, nil
	case BECol:
		switch e.Ty {
		case BTInt:
			v.i = make([]int64, n)
			switch e.Elem {
			case 1:
				for k, r := range sel {
					v.i[k] = int64(int8(mem[e.Base+uint64(r)]))
				}
			case 2:
				for k, r := range sel {
					a := e.Base + uint64(r)*2
					v.i[k] = int64(int16(uint16(mem[a]) | uint16(mem[a+1])<<8))
				}
			case 4:
				for k, r := range sel {
					v.i[k] = int64(int32(le32(mem[e.Base+uint64(r)*4:])))
				}
			case 8:
				for k, r := range sel {
					v.i[k] = int64(le64(mem[e.Base+uint64(r)*8:]))
				}
			default:
				return v, 0, fmt.Errorf("rt: batch: bad int column width %d", e.Elem)
			}
		case BTI128:
			v.d = make([]I128, n)
			for k, r := range sel {
				a := e.Base + uint64(r)*16
				v.d[k] = I128{Lo: le64(mem[a:]), Hi: le64(mem[a+8:])}
			}
		case BTF64:
			v.f = make([]float64, n)
			for k, r := range sel {
				v.f[k] = fbits(le64(mem[e.Base+uint64(r)*8:]))
			}
		case BTStr:
			v.s = make([][2]uint64, n)
			for k, r := range sel {
				a := e.Base + uint64(r)*16
				v.s[k] = [2]uint64{le64(mem[a:]), le64(mem[a+8:])}
			}
		}
		return v, -1, nil
	case BEArith:
		lv, tL, errL := db.bEval(e.L, sel)
		rv, tR, errR := db.bEval(e.R, sel)
		stop := n
		if tL >= 0 && tL < stop {
			stop = tL
		}
		if tR >= 0 && tR < stop {
			stop = tR
		}
		switch e.Ty {
		case BTInt:
			v.i = make([]int64, n)
			for k := 0; k < stop; k++ {
				a, b := lv.i[k], rv.i[k]
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
			v.d = make([]I128, n)
			for k := 0; k < stop; k++ {
				a, b := lv.d[k], rv.d[k]
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
			v.f = make([]float64, n)
			for k := 0; k < stop; k++ {
				a, b := lv.f[k], rv.f[k]
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

// strEqRaw compares a 16-byte string value against raw bytes.
func (db *DB) strEqRaw(lo, hi uint64, b []byte) (bool, error) {
	n := uint64(uint32(lo))
	if n != uint64(len(b)) {
		return false, nil
	}
	if n <= 12 {
		var t [16]byte
		put64(t[:8], lo)
		put64(t[8:], hi)
		return string(t[4:4+n]) == string(b), nil
	}
	body, err := db.M.Bytes(hi, n)
	if err != nil {
		return false, err
	}
	return string(body) == string(b), nil
}

// strEqVals compares two 16-byte string values by content.
func (db *DB) strEqVals(alo, ahi, blo, bhi uint64) (bool, error) {
	an := uint64(uint32(alo))
	bn := uint64(uint32(blo))
	if an != bn {
		return false, nil
	}
	var abuf, bbuf [16]byte
	a, err := db.strBytes(alo, ahi, &abuf)
	if err != nil {
		return false, err
	}
	b, err := db.strBytes(blo, bhi, &bbuf)
	if err != nil {
		return false, err
	}
	return string(a) == string(b), nil
}

// bCmps maps the batch comparison operators to QIR predicates.
var bCmps = [...]qir.Cmp{BCmpEQ: qir.CmpEQ, BCmpNE: qir.CmpNE, BCmpLT: qir.CmpSLT,
	BCmpLE: qir.CmpSLE, BCmpGT: qir.CmpSGT, BCmpGE: qir.CmpSGE}

// bFilter refines the selection vector by one boolean conjunct, in place.
// Eligible filters are trap-free by construction (column and constant
// operands only); an error here indicates a kernel or descriptor bug.
func (db *DB) bFilter(e *BatchExpr, sel []int64) ([]int64, error) {
	switch e.Kind {
	case BECmp:
		// A string constant operand stays raw in the descriptor (e.S) — it
		// has no 16-byte in-memory form, so it bypasses bEval and the BTStr
		// arm below compares against the raw bytes directly.
		var lv, rv bVals
		if e.Ty != BTStr || e.L.Kind != BEConst {
			v, tL, errL := db.bEval(e.L, sel)
			if tL >= 0 {
				return nil, errL
			}
			lv = v
		}
		if e.Ty != BTStr || e.R.Kind != BEConst {
			v, tR, errR := db.bEval(e.R, sel)
			if tR >= 0 {
				return nil, errR
			}
			rv = v
		}
		if int(e.Op) >= len(bCmps) {
			return nil, fmt.Errorf("rt: batch: bad comparison %d", e.Op)
		}
		c := bCmps[e.Op]
		out := sel[:0]
		switch e.Ty {
		case BTInt:
			for k, r := range sel {
				if sem.ICmp(c, uint64(lv.i[k]), uint64(rv.i[k])) {
					out = append(out, r)
				}
			}
		case BTI128:
			for k, r := range sel {
				if sem.ICmp128(c, lv.d[k], rv.d[k]) {
					out = append(out, r)
				}
			}
		case BTF64:
			for k, r := range sel {
				if sem.FCmp(c, lv.f[k], rv.f[k]) {
					out = append(out, r)
				}
			}
		case BTStr:
			// Only equality forms are batch-eligible; one side may be a
			// raw constant from the descriptor.
			for k, r := range sel {
				var eq bool
				var err error
				switch {
				case e.L.Kind == BEConst && e.R.Kind == BEConst:
					eq = string(e.L.S) == string(e.R.S)
				case e.R.Kind == BEConst:
					eq, err = db.strEqRaw(lv.s[k][0], lv.s[k][1], e.R.S)
				case e.L.Kind == BEConst:
					eq, err = db.strEqRaw(rv.s[k][0], rv.s[k][1], e.L.S)
				default:
					eq, err = db.strEqVals(lv.s[k][0], lv.s[k][1], rv.s[k][0], rv.s[k][1])
				}
				if err != nil {
					return nil, err
				}
				if (e.Op == BCmpEQ) == eq {
					out = append(out, r)
				}
			}
		}
		return out, nil
	case BEBetween:
		// All three operands evaluate, then (v >= lo) AND (v <= hi) — the
		// tuple expansion is non-short-circuit.
		vv, tV, errV := db.bEval(e.L, sel)
		if tV >= 0 {
			return nil, errV
		}
		lv, tLo, errLo := db.bEval(e.R, sel)
		if tLo >= 0 {
			return nil, errLo
		}
		hv, tHi, errHi := db.bEval(e.H, sel)
		if tHi >= 0 {
			return nil, errHi
		}
		out := sel[:0]
		switch e.Ty {
		case BTInt:
			for k, r := range sel {
				if vv.i[k] >= lv.i[k] && vv.i[k] <= hv.i[k] {
					out = append(out, r)
				}
			}
		case BTI128:
			for k, r := range sel {
				if vv.d[k].Cmp(lv.d[k]) >= 0 && vv.d[k].Cmp(hv.d[k]) <= 0 {
					out = append(out, r)
				}
			}
		case BTF64:
			for k, r := range sel {
				if vv.f[k] >= lv.f[k] && vv.f[k] <= hv.f[k] {
					out = append(out, r)
				}
			}
		default:
			return nil, fmt.Errorf("rt: batch: between over type %d", e.Ty)
		}
		return out, nil
	}
	return nil, fmt.Errorf("rt: batch: expr kind %d is not a filter", e.Kind)
}

// batchStrHash replicates FnStrHash: CRC32C of the bytes with the length
// folded into the upper word.
func (db *DB) batchStrHash(lo, hi uint64) (uint64, error) {
	var buf [16]byte
	s, err := db.strBytes(lo, hi, &buf)
	if err != nil {
		return 0, err
	}
	return uint64(vt.Crc32c(0, s)) | uint64(len(s))<<32, nil
}

// batchHashes computes the key-tuple hash for rows [0, stop): CRC32C
// folding per 64-bit word with the final long-mul-fold mix, exactly the
// chain hashKeys emits.
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
// row k of the evaluated keys, replicating the generated chain-walk
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
// pre-check, selection-vector filtering, vectorized key/argument
// evaluation, then the row-ordered sink loop. On a trapping row, every
// earlier row's sink effect has been applied and the row's own has not —
// the same partial state tuple-at-a-time execution leaves behind.
func (db *DB) batchExec(bp *batchProg, ht *hashTable, lo, hi int64) error {
	ctrBatchCalls.Inc()
	if hi > lo {
		ctrBatchRows.Add(hi - lo)
	}
	if hi <= lo {
		return nil
	}
	spec := bp.spec
	for _, c := range bp.cols {
		if _, err := db.M.Bytes(c.Base+uint64(lo)*c.Elem, uint64(hi-lo)*c.Elem); err != nil {
			return err
		}
	}
	for _, p := range spec.Payload {
		if _, err := db.M.Bytes(p.Base+uint64(lo)*p.Elem, uint64(hi-lo)*p.Elem); err != nil {
			return err
		}
	}

	if cap(bp.sel) < int(hi-lo) {
		bp.sel = make([]int64, hi-lo)
	}
	sel := bp.sel[:hi-lo]
	for i := range sel {
		sel[i] = lo + int64(i)
	}
	var err error
	for _, f := range spec.Filters {
		sel, err = db.bFilter(f, sel)
		if err != nil {
			return err
		}
		if len(sel) == 0 {
			return nil
		}
	}

	// Keys, then aggregate arguments, in tuple evaluation order; the
	// earliest trapping row across all expressions (ties to the earlier
	// expression) bounds how many rows reach the sink.
	trapAt, trapErr := len(sel), error(nil)
	note := func(t int, err error) {
		if t >= 0 && t < trapAt {
			trapAt, trapErr = t, err
		}
	}
	keyV := make([]bVals, len(spec.Keys))
	for i := range spec.Keys {
		v, t, kerr := db.bEval(spec.Keys[i].E, sel)
		keyV[i] = v
		note(t, kerr)
	}
	argV := make([]bVals, len(spec.Aggs))
	for i := range spec.Aggs {
		if spec.Aggs[i].Arg != nil {
			v, t, aerr := db.bEval(spec.Aggs[i].Arg, sel)
			argV[i] = v
			note(t, aerr)
		}
	}
	stop := trapAt

	if cap(bp.hash) < stop {
		bp.hash = make([]uint64, stop)
	}
	hashes := bp.hash[:stop]
	if err := db.batchHashes(spec.Keys, keyV, stop, hashes); err != nil {
		return err
	}

	switch spec.Sink {
	case BatchSinkAgg:
		err = db.batchAggSink(spec, ht, keyV, argV, stop, hashes)
	case BatchSinkBuild:
		err = db.batchBuildSink(spec, ht, keyV, sel, stop, hashes)
	default:
		err = fmt.Errorf("rt: batch: bad sink kind %d", spec.Sink)
	}
	if err != nil {
		return err
	}
	if trapErr != nil {
		return trapErr
	}
	return nil
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

// batchAggSink is the aggregation sink: per surviving row, probe the group
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
						put64(mem[off:], toBits(fbits(le64(mem[off:]))+argV[i].f[k]))
					case BTI128:
						cur := I128{Lo: le64(mem[off:]), Hi: le64(mem[off+8:])}
						r, ok := cur.SAdd(argV[i].d[k])
						if !ok {
							return &vm.Trap{Code: vt.TrapOverflow}
						}
						put64(mem[off:], r.Lo)
						put64(mem[off+8:], r.Hi)
					default:
						s, ok := sem.SAdd(int64(le64(mem[off:])), argV[i].i[k])
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
						v := argV[i].f[k]
						better := v < cur
						if a.Fn == BAggMax {
							better = v > cur
						}
						if better {
							put64(mem[off:], toBits(v))
						}
					case BTI128:
						cur := I128{Lo: le64(mem[off:]), Hi: le64(mem[off+8:])}
						v := argV[i].d[k]
						c := v.Cmp(cur)
						if (a.Fn == BAggMin && c < 0) || (a.Fn == BAggMax && c > 0) {
							put64(mem[off:], v.Lo)
							put64(mem[off+8:], v.Hi)
						}
					default:
						cur := int64(le64(mem[off:]))
						v := argV[i].i[k]
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
						put64(mem[off:], toBits(argV[i].f[k]))
					case BTI128:
						put64(mem[off:], argV[i].d[k].Lo)
						put64(mem[off+8:], argV[i].d[k].Hi)
					default:
						put64(mem[off:], uint64(argV[i].i[k]))
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

// batchBuildSink is the join-build sink: insert every surviving row with
// widened keys and a verbatim copy of the payload columns.
func (db *DB) batchBuildSink(spec *BatchSpec, ht *hashTable, keyV []bVals, sel []int64, stop int, hashes []uint64) error {
	for k := 0; k < stop; k++ {
		np := db.htInsert(ht, hashes[k])
		mem := db.M.Mem
		db.storeKeys(spec.Keys, keyV, k, np)
		r := uint64(sel[k])
		for _, pc := range spec.Payload {
			dst := np + uint64(pc.Off)
			src := pc.Base + r*pc.Elem
			copy(mem[dst:dst+pc.Elem], mem[src:src+pc.Elem])
		}
	}
	return nil
}
