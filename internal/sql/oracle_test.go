package sql

import (
	"fmt"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// oldParse is Parse as it was before joins were planned, kept as the oracle
// the planned joins are checked against: the whole WHERE above the join tree,
// every join building on the table named after the others.
func oldParse(query string, cat *rt.Catalog) (plan.Node, error) {
	return parse(query, cat, oldFromWhere)
}

func oldFromWhere(p *parser) (plan.Node, *binding, error) {
	node, bind, err := oldFromClause(p)
	if err != nil {
		return nil, nil, err
	}
	if p.accept("WHERE") {
		pe, err := p.parseExprDeferred()
		if err != nil {
			return nil, nil, err
		}
		pred, err := pe(bind)
		if err != nil {
			return nil, nil, err
		}
		if pred.Type() != qir.I1 {
			return nil, nil, fmt.Errorf("sql: WHERE predicate is %s", pred.Type())
		}
		node = &plan.Select{Input: node, Pred: pred}
	}
	return node, bind, nil
}

// oldFromClause parses `table [alias] (JOIN table [alias] ON a = b)*`,
// building left-deep hash joins with the new table on the build side.
func oldFromClause(p *parser) (plan.Node, *binding, error) {
	t, bind, err := p.tableRef()
	if err != nil {
		return nil, nil, err
	}
	node := t.node
	for p.accept("JOIN") {
		r, rbind, err := p.tableRef()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, nil, err
		}
		// Join keys are simple column expressions around the equality.
		le, err := p.addExpr()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, nil, err
		}
		re, err := p.addExpr()
		if err != nil {
			return nil, nil, err
		}
		// Resolve each side against whichever input defines it.
		lx, lerr := le(bind)
		var buildKey, probeKey plan.Expr
		if lerr == nil {
			probeKey = lx
			bk, err := re(rbind)
			if err != nil {
				return nil, nil, fmt.Errorf("sql: join key: %w", err)
			}
			buildKey = bk
		} else {
			bk, err := le(rbind)
			if err != nil {
				return nil, nil, fmt.Errorf("sql: join key: %w", err)
			}
			buildKey = bk
			pk, err := re(bind)
			if err != nil {
				return nil, nil, fmt.Errorf("sql: join key: %w", err)
			}
			probeKey = pk
		}
		buildKey, probeKey, err = coercePair(buildKey, probeKey)
		if err != nil {
			return nil, nil, err
		}
		node = &plan.HashJoin{
			Build: r.node, Probe: node,
			BuildKeys: []plan.Expr{buildKey},
			ProbeKeys: []plan.Expr{probeKey},
		}
		// Join schema: build columns, then probe columns.
		bind = &binding{tabs: append(append([]boundTable{}, rbind.tabs...), bind.tabs...)}
	}
	return node, bind, nil
}
