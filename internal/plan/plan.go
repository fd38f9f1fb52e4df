package plan

import (
	"fmt"
	"strings"

	"qcc/internal/qir"
)

// ColInfo describes one output column of an operator.
type ColInfo struct {
	Name string
	Type qir.Type
}

// Node is a relational operator.
type Node interface {
	// Schema returns the operator's output columns.
	Schema() []ColInfo
	// Children returns input operators (build side first for joins).
	Children() []Node
	name() string
}

// Scan reads a base table. Filter (optional) is evaluated against the
// table's full schema before any other processing — the common pushed-down
// predicate position.
type Scan struct {
	Table  string
	Cols   []ColInfo // full table schema, set by the binder/generator
	Filter Expr
}

// Schema implements Node.
func (s *Scan) Schema() []ColInfo { return s.Cols }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }
func (s *Scan) name() string     { return "scan(" + s.Table + ")" }

// Select filters tuples by a boolean predicate over the input schema.
type Select struct {
	Input Node
	Pred  Expr
}

// Schema implements Node.
func (s *Select) Schema() []ColInfo { return s.Input.Schema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }
func (s *Select) name() string     { return "select" }

// Project computes new columns from the input schema.
type Project struct {
	Input Node
	Exprs []Expr
	Names []string
}

// Schema implements Node.
func (p *Project) Schema() []ColInfo {
	out := make([]ColInfo, len(p.Exprs))
	for i, e := range p.Exprs {
		name := ""
		if i < len(p.Names) {
			name = p.Names[i]
		}
		out[i] = ColInfo{Name: name, Type: e.Type()}
	}
	return out
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }
func (p *Project) name() string     { return "project" }

// HashJoin joins Build and Probe on equality of the key expressions
// (inner join). The output schema is build columns followed by probe
// columns.
type HashJoin struct {
	Build, Probe         Node
	BuildKeys, ProbeKeys []Expr
}

// Schema implements Node.
func (j *HashJoin) Schema() []ColInfo {
	return append(append([]ColInfo{}, j.Build.Schema()...), j.Probe.Schema()...)
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Build, j.Probe} }
func (j *HashJoin) name() string     { return "hashjoin" }

// AggFn is an aggregation function.
type AggFn uint8

// Aggregation functions. Avg is computed as a running sum plus count and
// finalized on group output.
const (
	AggSum AggFn = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

var aggNames = [...]string{"sum", "count", "min", "max", "avg"}

// AggExpr is one aggregate in a GroupBy. Arg is nil for Count.
type AggExpr struct {
	Fn   AggFn
	Arg  Expr
	Name string
}

// Type returns the aggregate's output type. Sums and averages over small
// integers widen to I64 (running sums are kept at that width); integer
// averages truncate.
func (a *AggExpr) Type() qir.Type {
	switch a.Fn {
	case AggCount:
		return qir.I64
	case AggSum, AggAvg:
		switch t := a.Arg.Type(); t {
		case qir.I1, qir.I8, qir.I16, qir.I32:
			return qir.I64
		default:
			return t
		}
	default:
		return a.Arg.Type()
	}
}

// GroupBy groups tuples by key expressions and computes aggregates. It is a
// full pipeline breaker. The output schema is keys followed by aggregates.
type GroupBy struct {
	Input Node
	Keys  []Expr
	Names []string // key output names (optional)
	Aggs  []AggExpr
}

// Schema implements Node.
func (g *GroupBy) Schema() []ColInfo {
	out := make([]ColInfo, 0, len(g.Keys)+len(g.Aggs))
	for i, k := range g.Keys {
		name := ""
		if i < len(g.Names) {
			name = g.Names[i]
		}
		out = append(out, ColInfo{Name: name, Type: k.Type()})
	}
	for _, a := range g.Aggs {
		out = append(out, ColInfo{Name: a.Name, Type: a.Type()})
	}
	return out
}

// Children implements Node.
func (g *GroupBy) Children() []Node { return []Node{g.Input} }
func (g *GroupBy) name() string     { return "groupby" }

// SortKey orders by one expression.
type SortKey struct {
	E    Expr
	Desc bool
}

// Sort orders the input; a full pipeline breaker.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() []ColInfo { return s.Input.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }
func (s *Sort) name() string     { return "sort" }

// Limit passes at most N tuples.
type Limit struct {
	Input Node
	N     int64
}

// Schema implements Node.
func (l *Limit) Schema() []ColInfo { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }
func (l *Limit) name() string     { return "limit" }

// Validate type-checks expressions against input schemas over the whole
// tree, returning the first inconsistency.
func Validate(n Node) error {
	_, err := validate(n)
	return err
}

// validate checks n's subtree, children first, and returns n's schema: each
// node's schema is computed once, however many expressions read it.
func validate(n Node) ([]ColInfo, error) {
	var input Node
	switch x := n.(type) {
	case *Select:
		input = x.Input
	case *Project:
		input = x.Input
	case *GroupBy:
		input = x.Input
	case *Sort:
		input = x.Input
	case *Limit:
		input = x.Input
	}
	var in []ColInfo // input's schema
	if input != nil {
		var err error
		if in, err = validate(input); err != nil {
			return nil, err
		}
	}
	switch x := n.(type) {
	case *Scan:
		if len(x.Cols) == 0 {
			return nil, fmt.Errorf("plan: scan of %s has no schema", x.Table)
		}
		if x.Filter != nil {
			if x.Filter.Type() != qir.I1 {
				return nil, fmt.Errorf("plan: scan filter is %s, not boolean", x.Filter.Type())
			}
			if err := checkCols(n, x.Filter, x.Cols); err != nil {
				return nil, err
			}
		}
		return x.Cols, nil
	case *Select:
		if x.Pred.Type() != qir.I1 {
			return nil, fmt.Errorf("plan: select predicate is %s, not boolean", x.Pred.Type())
		}
		return in, checkCols(n, x.Pred, in)
	case *Project:
		for _, e := range x.Exprs {
			if err := checkCols(n, e, in); err != nil {
				return nil, err
			}
		}
	case *HashJoin:
		build, err := validate(x.Build)
		if err != nil {
			return nil, err
		}
		probe, err := validate(x.Probe)
		if err != nil {
			return nil, err
		}
		if len(x.BuildKeys) != len(x.ProbeKeys) || len(x.BuildKeys) == 0 {
			return nil, fmt.Errorf("plan: hashjoin with %d/%d keys", len(x.BuildKeys), len(x.ProbeKeys))
		}
		for i := range x.BuildKeys {
			if x.BuildKeys[i].Type() != x.ProbeKeys[i].Type() {
				return nil, fmt.Errorf("plan: join key %d type mismatch: %s vs %s",
					i, x.BuildKeys[i].Type(), x.ProbeKeys[i].Type())
			}
			if err := checkCols(n, x.BuildKeys[i], build); err != nil {
				return nil, err
			}
			if err := checkCols(n, x.ProbeKeys[i], probe); err != nil {
				return nil, err
			}
		}
		return append(build[:len(build):len(build)], probe...), nil
	case *GroupBy:
		for _, k := range x.Keys {
			if err := checkCols(n, k, in); err != nil {
				return nil, err
			}
		}
		for _, a := range x.Aggs {
			if a.Fn != AggCount && a.Arg == nil {
				return nil, fmt.Errorf("plan: aggregate %s without argument", aggNames[a.Fn])
			}
			if a.Arg != nil {
				if err := checkCols(n, a.Arg, in); err != nil {
					return nil, err
				}
			}
		}
	case *Sort:
		for _, k := range x.Keys {
			if err := checkCols(n, k.E, in); err != nil {
				return nil, err
			}
		}
		return in, nil
	case *Limit:
		if x.N < 0 {
			return nil, fmt.Errorf("plan: negative limit")
		}
		return in, nil
	}
	return n.Schema(), nil
}

// checkCols checks every column e reads against the schema of n's input.
func checkCols(n Node, e Expr, schema []ColInfo) error {
	var err error
	Walk(e, func(x Expr) {
		if c, ok := x.(*Col); ok && err == nil {
			if c.Idx < 0 || c.Idx >= len(schema) {
				err = fmt.Errorf("plan: %s: column #%d out of range (%d cols)", n.name(), c.Idx, len(schema))
			} else if schema[c.Idx].Type != c.Ty {
				err = fmt.Errorf("plan: %s: column #%d is %s, referenced as %s",
					n.name(), c.Idx, schema[c.Idx].Type, c.Ty)
			}
		}
	})
	return err
}

// Dump renders the plan tree for debugging.
func Dump(n Node) string {
	var sb strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.name())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}
