package sql

import (
	"fmt"
	"strings"

	"qcc/internal/plan"
	"qcc/internal/qir"
)

// Join planning. A FROM clause names its tables left to right — a table of
// the catalog, or a derived table `(SELECT …) alias` — and each JOIN equates
// an expression over the new table with one over the tables before it. The
// joins stay left-deep in that order; the parser plans the rest as an
// optimizer would, by three rules:
//
//   - WHERE is split at its top-level ANDs. A conjunct that reads one table
//     and cannot trap — it holds no plan.Arith, the one expression that can —
//     filters that table: it goes into a plan.Select directly above the scan.
//   - Every other conjunct goes above the lowest join that sees all the
//     columns it reads, in the order written, except that one which can trap
//     stays above the whole tree, where it was always evaluated. AND
//     evaluates both of its operands, so whether a conjunct traps depends on
//     the rows it sees alone. On top it sees the rows that passed the other
//     conjuncts — a subset of what it saw before; below a join, or on a scan,
//     it would see rows that join drops. Planning may remove a trap, never
//     add one.
//   - Each HashJoin builds on the input with the smaller estimated
//     cardinality: a table's catalog row count, divided by filterCut if it
//     has a filter, and a join's its probe side's (a probe row finds one
//     partner, as along a foreign key). A derived table is estimated by the
//     same rules, as its FROM clause (estimate). On a tie the table named
//     later builds, as every join did before planning.
//
// Names resolve as they always did, against the columns in the order the
// unplanned tree had them — each joined table's ahead of the tables named
// before it — and binding.at maps that order to the planned tree's, so the
// ordinals above a re-oriented join are remapped instead of restored by a
// projection. SELECT * alone gets that projection (binding.fromOrder). A
// statement over one table plans exactly as before.

// filterCut divides the row count of a table with a filter: whatever its
// conjuncts, a filter is assumed to keep half the rows. (One cut per
// conjunct builds q12-shaped joins on a filtered lineitem instead of orders,
// and runs 0.99–1.10× the instructions.)
const filterCut = 2

// from is a FROM clause as parsed: its tables in the order named and each
// join's keys, resolved while parsing so that errors surface where they
// always did.
type from struct {
	tabs []fromTable
	// keys[k-1] are the keys of the join that adds tabs[k]: the first over
	// the columns of tabs[:k] as bind had them then, the second over those
	// of tabs[k].
	keys [][2]plan.Expr
	// bind resolves names over every table, each one's columns ahead of the
	// tables named before it.
	bind *binding
}

type fromTable struct {
	node plan.Node // a scan, or a derived table's plan
	est  float64   // estimated cardinality
	off  int       // where the table's columns start in bind, set by plan
}

// fromWhere parses the FROM clause and an optional WHERE clause and plans
// them.
func (p *parser) fromWhere() (plan.Node, *binding, error) {
	f, err := p.fromClause()
	if err != nil {
		return nil, nil, err
	}
	var conj []plan.Expr
	if p.accept("WHERE") {
		cs, err := p.conjuncts()
		if err != nil {
			return nil, nil, err
		}
		for _, c := range cs {
			e, err := c(f.bind)
			if err != nil {
				return nil, nil, err
			}
			conj = append(conj, e)
		}
	}
	if len(f.tabs) > 1 {
		return f.plan(conj)
	}
	node := f.tabs[0].node
	if conj != nil {
		var pred plan.Expr
		for _, e := range conj {
			pred = and(pred, e)
		}
		if pred.Type() != qir.I1 {
			return nil, nil, fmt.Errorf("sql: WHERE predicate is %s", pred.Type())
		}
		node = &plan.Select{Input: node, Pred: pred}
	}
	return node, f.bind, nil
}

// fromClause parses `table [alias] (JOIN table [alias] ON a = b)*`.
func (p *parser) fromClause() (*from, error) {
	t, bind, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	f := &from{tabs: []fromTable{t}, bind: bind}
	for p.accept("JOIN") {
		r, rbind, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		le, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		re, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		// Resolve each side against whichever input defines it.
		var lkey, rkey plan.Expr
		if lx, lerr := le(f.bind); lerr == nil {
			lkey = lx
			if rkey, err = re(rbind); err != nil {
				return nil, fmt.Errorf("sql: join key: %w", err)
			}
		} else {
			if rkey, err = le(rbind); err != nil {
				return nil, fmt.Errorf("sql: join key: %w", err)
			}
			if lkey, err = re(f.bind); err != nil {
				return nil, fmt.Errorf("sql: join key: %w", err)
			}
		}
		if rkey, lkey, err = p.coercePair(rkey, lkey); err != nil {
			return nil, err
		}
		f.keys = append(f.keys, [2]plan.Expr{lkey, rkey})
		f.tabs = append(f.tabs, r)
		f.bind = &binding{tabs: append(rbind.tabs, f.bind.tabs...)}
	}
	return f, nil
}

func (p *parser) tableRef() (fromTable, *binding, error) {
	if t := p.peek(); t.kind == tkPunct && t.text == "(" {
		return p.derivedTable()
	}
	t := p.next()
	if t.kind != tkIdent {
		return fromTable{}, nil, fmt.Errorf("sql: expected table name")
	}
	tbl, err := p.cat.Table(strings.ToLower(t.raw))
	if err != nil {
		return fromTable{}, nil, err
	}
	alias := tbl.Name
	if p.peek().kind == tkIdent && !reserved(p.peek().text) {
		alias = p.next().raw
	}
	cols := make([]plan.ColInfo, len(tbl.Cols))
	for i, c := range tbl.Cols {
		cols[i] = plan.ColInfo{Name: c.Name, Type: c.Type}
	}
	return fromTable{node: &plan.Scan{Table: tbl.Name, Cols: cols}, est: float64(tbl.Rows)},
		&binding{tabs: []boundTable{{qual: alias, cols: cols}}}, nil
}

// derivedTable parses `(SELECT …) [alias]`, a table whose columns are named
// as its select list names them.
func (p *parser) derivedTable() (fromTable, *binding, error) {
	p.next() // '('
	node, err := p.selectStmt((*parser).fromWhere)
	if err != nil {
		return fromTable{}, nil, err
	}
	if err := p.expect(")"); err != nil {
		return fromTable{}, nil, err
	}
	bind := schemaBinding(node)
	if t := p.peek(); t.kind == tkIdent && !reserved(t.text) {
		bind.tabs[0].qual = p.next().raw
	}
	return fromTable{node: node, est: p.estimate(node)}, bind, nil
}

// estimate is a derived table's estimated cardinality, by plan's rules: a
// table's row count, divided by filterCut under a filter on its scan, and a
// join its probe side's. The operators above pass their input's estimate on,
// so a grouping or a LIMIT is taken at the size of what it reads.
func (p *parser) estimate(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		t, _ := p.cat.Table(x.Table) // the scan was built from the catalog
		return float64(t.Rows)
	case *plan.Select:
		if s, ok := x.Input.(*plan.Scan); ok {
			return p.estimate(s) / filterCut
		}
	case *plan.HashJoin:
		return p.estimate(x.Probe)
	}
	return p.estimate(n.Children()[0])
}

// plan builds the join tree of two or more tables with the WHERE conjuncts,
// resolved against f.bind, placed on it, and the binding the rest of the
// statement resolves names in.
func (f *from) plan(conj []plan.Expr) (plan.Node, *binding, error) {
	n, width := len(f.tabs), 0
	for t := n - 1; t >= 0; t-- {
		f.tabs[t].off = width
		width += len(f.tabs[t].node.Schema())
	}
	// slot[i] says where conj[i] goes: t < n filters table t, n+k sits above
	// the join that adds table k.
	slot := make([]int, len(conj))
	for i, e := range conj {
		if e.Type() != qir.I1 {
			return nil, nil, fmt.Errorf("sql: WHERE conjunct is %s", e.Type())
		}
		lo, hi, traps := f.reads(e)
		switch {
		case traps:
			slot[i] = n + n - 1
		case lo == hi && lo >= 0:
			slot[i] = lo
			remap(e, -f.tabs[lo].off, nil)
		default:
			slot[i] = n + max(hi, 1)
		}
	}
	// where collects the conjuncts of one slot, in the order written.
	where := func(s int, at []int) plan.Expr {
		var pred plan.Expr
		for i, e := range conj {
			if slot[i] == s {
				if at != nil {
					remap(e, 0, at)
				}
				pred = and(pred, e)
			}
		}
		return pred
	}
	// scan returns table t with its filter and its estimated cardinality.
	scan := func(t int) (plan.Node, float64) {
		if pred := where(t, nil); pred != nil {
			return &plan.Select{Input: f.tabs[t].node, Pred: pred}, f.tabs[t].est / filterCut
		}
		return f.tabs[t].node, f.tabs[t].est
	}

	// pos[i] is the ordinal in node of bind's column i.
	pos := make([]int, width)
	for i := f.tabs[0].off; i < width; i++ {
		pos[i] = i - f.tabs[0].off
	}
	node, est := scan(0)
	for k := 1; k < n; k++ {
		lkey, rkey := f.keys[k-1][0], f.keys[k-1][1]
		left := f.tabs[k-1].off // where the tables node joins start in bind
		remap(lkey, left, pos)
		r, rest := scan(k)
		off, w := f.tabs[k].off, len(f.tabs[k].node.Schema())
		if est < rest {
			node = &plan.HashJoin{Build: node, Probe: r,
				BuildKeys: []plan.Expr{lkey}, ProbeKeys: []plan.Expr{rkey}}
			for j := 0; j < w; j++ {
				pos[off+j] = width - left + j
			}
			est = rest
		} else {
			node = &plan.HashJoin{Build: r, Probe: node,
				BuildKeys: []plan.Expr{rkey}, ProbeKeys: []plan.Expr{lkey}}
			for j := 0; j < w; j++ {
				pos[off+j] = j
			}
			for i := left; i < width; i++ {
				pos[i] += w
			}
		}
		if pred := where(n+k, pos); pred != nil {
			node = &plan.Select{Input: node, Pred: pred}
		}
	}
	for i, p := range pos {
		if p != i {
			return node, &binding{tabs: f.bind.tabs, at: pos}, nil
		}
	}
	return node, f.bind, nil
}

// reads returns the first and the last table, in FROM order, whose columns e
// reads (-1 for none) and whether e can trap.
func (f *from) reads(e plan.Expr) (lo, hi int, traps bool) {
	lo, hi = -1, -1
	plan.Walk(e, func(x plan.Expr) {
		switch x := x.(type) {
		case *plan.Arith:
			traps = true
		case *plan.Col:
			t := 0
			for f.tabs[t].off > x.Idx {
				t++
			}
			if lo < 0 || t < lo {
				lo = t
			}
			hi = max(hi, t)
		}
	})
	return lo, hi, traps
}

// remap moves every column e reads from ordinal i to at[i+shift], or to
// i+shift when at is nil. The parser built e, so it shares no column node.
func remap(e plan.Expr, shift int, at []int) {
	plan.Walk(e, func(x plan.Expr) {
		if c, ok := x.(*plan.Col); ok {
			c.Idx += shift
			if at != nil {
				c.Idx = at[c.Idx]
			}
		}
	})
}

// fromOrder projects node, whose columns b.at lays out, onto b's own order:
// SELECT * over a re-oriented join returns the columns it always did.
func (b *binding) fromOrder(node plan.Node) (plan.Node, *binding) {
	pr := &plan.Project{Input: node}
	i := 0
	for _, t := range b.tabs {
		for _, c := range t.cols {
			pr.Exprs = append(pr.Exprs, &plan.Col{Idx: b.at[i], Ty: c.Type, Name: c.Name})
			pr.Names = append(pr.Names, c.Name)
			i++
		}
	}
	return pr, &binding{tabs: b.tabs}
}
