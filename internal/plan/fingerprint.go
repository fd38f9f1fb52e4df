package plan

import "encoding/binary"

// Fingerprint is the canonical form of a plan with its literal values masked:
// two plans with equal keys differ at most in the values of their literals —
// the ConstInt, ConstDec, ConstFloat and ConstStr nodes and the Like patterns
// — which Lits lists. A cache of compiled programs names a plan's literals by
// their ordinal in Lits, which equal keys make comparable across plans; the
// cached code is reusable for the new plan as far as it reads the literals as
// run-time parameters (codegen.Compiled.PoolLits).
//
// The key holds everything else code generation reads: every node and
// expression kind, scan schemas (column types), column indices, types,
// operators, aggregate functions, join, group and sort keys, sort directions
// and Limit.N. Names of output columns are not in it; they label results and
// come from the plan at hand. Of a table it holds the name only: what the
// catalog knows about it (row count, column addresses) is the caller's to
// append, from Tables.
//
// A Fingerprint is reusable: Reset empties it and keeps its storage. Write
// appends, so a caller can put a prefix of its own into Key first.
type Fingerprint struct {
	// Key is the canonical byte string.
	Key []byte
	// Lits holds each distinct literal node once, in traversal order. A node
	// the tree reaches again is written as a reference to its first
	// occurrence, so equal keys imply the same sharing.
	Lits []Expr
	// Tables names the table of every Scan, in traversal order.
	Tables []string

	bad bool
}

// Node and expression tags of the canonical form.
const (
	fpNil byte = iota
	fpScan
	fpSelect
	fpProject
	fpHashJoin
	fpGroupBy
	fpSort
	fpLimit
	fpCol
	fpConstInt
	fpConstDec
	fpConstFloat
	fpConstStr
	fpLitRef
	fpArith
	fpCmp
	fpLogic
	fpNot
	fpLike
	fpBetween
	fpCase
	fpCast
)

// Reset empties the fingerprint, keeping its storage.
func (fp *Fingerprint) Reset() {
	fp.Key = fp.Key[:0]
	clear(fp.Lits) // drop the references to the last plan
	fp.Lits = fp.Lits[:0]
	fp.Tables = fp.Tables[:0]
	fp.bad = false
}

// Write appends the canonical form of n. It reports false for a plan holding
// a node or expression type this package does not define: such a plan has no
// canonical form and must not be looked up by what was written.
func (fp *Fingerprint) Write(n Node) bool {
	fp.node(n)
	return !fp.bad
}

func (fp *Fingerprint) tag(t byte)    { fp.Key = append(fp.Key, t) }
func (fp *Fingerprint) uint(v uint64) { fp.Key = binary.AppendUvarint(fp.Key, v) }
func (fp *Fingerprint) str(s string)  { fp.uint(uint64(len(s))); fp.Key = append(fp.Key, s...) }
func (fp *Fingerprint) exprs(es []Expr) {
	fp.uint(uint64(len(es)))
	for _, e := range es {
		fp.expr(e)
	}
}

func (fp *Fingerprint) node(n Node) {
	switch x := n.(type) {
	case *Scan:
		fp.tag(fpScan)
		fp.str(x.Table)
		fp.Tables = append(fp.Tables, x.Table)
		fp.uint(uint64(len(x.Cols)))
		for _, c := range x.Cols {
			fp.uint(uint64(c.Type))
		}
		fp.expr(x.Filter)
	case *Select:
		fp.tag(fpSelect)
		fp.node(x.Input)
		fp.expr(x.Pred)
	case *Project:
		fp.tag(fpProject)
		fp.node(x.Input)
		fp.exprs(x.Exprs)
	case *HashJoin:
		fp.tag(fpHashJoin)
		fp.node(x.Build)
		fp.node(x.Probe)
		fp.exprs(x.BuildKeys)
		fp.exprs(x.ProbeKeys)
	case *GroupBy:
		fp.tag(fpGroupBy)
		fp.node(x.Input)
		fp.exprs(x.Keys)
		fp.uint(uint64(len(x.Aggs)))
		for i := range x.Aggs {
			fp.uint(uint64(x.Aggs[i].Fn))
			fp.expr(x.Aggs[i].Arg)
		}
	case *Sort:
		fp.tag(fpSort)
		fp.node(x.Input)
		fp.uint(uint64(len(x.Keys)))
		for _, k := range x.Keys {
			fp.expr(k.E)
			if k.Desc {
				fp.tag(1)
			} else {
				fp.tag(0)
			}
		}
	case *Limit:
		fp.tag(fpLimit)
		fp.node(x.Input)
		fp.uint(uint64(x.N))
	default:
		fp.bad = true
	}
}

func (fp *Fingerprint) expr(e Expr) {
	switch x := e.(type) {
	case nil:
		fp.tag(fpNil)
	case *Col:
		fp.tag(fpCol)
		fp.uint(uint64(x.Idx))
		fp.uint(uint64(x.Ty))
	case *ConstInt:
		if fp.literal(e, fpConstInt) {
			fp.uint(uint64(x.Ty))
		}
	case *ConstDec:
		fp.literal(e, fpConstDec)
	case *ConstFloat:
		fp.literal(e, fpConstFloat)
	case *ConstStr:
		fp.literal(e, fpConstStr)
	case *Arith:
		fp.tag(fpArith)
		fp.uint(uint64(x.Op))
		fp.expr(x.L)
		fp.expr(x.R)
	case *Cmp:
		fp.tag(fpCmp)
		fp.uint(uint64(x.Op))
		fp.expr(x.L)
		fp.expr(x.R)
	case *Logic:
		fp.tag(fpLogic)
		fp.uint(uint64(x.Op))
		fp.expr(x.L)
		fp.expr(x.R)
	case *Not:
		fp.tag(fpNot)
		fp.expr(x.E)
	case *Like:
		// The node is its pattern's literal; a shared Like is evaluated in
		// full at each occurrence, so only the pattern is a reference.
		fp.literal(e, fpLike)
		fp.expr(x.E)
	case *Between:
		fp.tag(fpBetween)
		fp.expr(x.E)
		fp.expr(x.Lo)
		fp.expr(x.Hi)
	case *Case:
		fp.tag(fpCase)
		fp.expr(x.Cond)
		fp.expr(x.Then)
		fp.expr(x.Else)
	case *Cast:
		fp.tag(fpCast)
		fp.uint(uint64(x.To))
		fp.expr(x.E)
	default:
		fp.bad = true
	}
}

// literal writes literal node e under tag and lists it, or, when the tree
// already reached this very node, a reference to that occurrence. It reports
// whether e is new.
func (fp *Fingerprint) literal(e Expr, tag byte) bool {
	if i, seen := fp.Ordinal(e); seen {
		fp.tag(fpLitRef)
		fp.uint(uint64(i))
		return false
	}
	fp.Lits = append(fp.Lits, e)
	fp.tag(tag)
	return true
}

// Ordinal returns the position of literal node e in Lits, found by identity.
// Statements have a handful of literals, which a scan finds without
// allocating.
func (fp *Fingerprint) Ordinal(e Expr) (int, bool) {
	for i, l := range fp.Lits {
		if l == e {
			return i, true
		}
	}
	return 0, false
}
