// Package sql implements a small SQL front-end over the plan layer:
// SELECT-FROM-JOIN-WHERE-GROUP BY-HAVING-ORDER BY-LIMIT with the scalar
// expressions query compilation exercises (decimal arithmetic, LIKE,
// BETWEEN, CASE). Decimal literals use a fixed scale of 2 (cents).
package sql

import (
	"fmt"
	"strconv"
	"strings"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// Parse compiles a SQL string into a validated plan against the catalog.
func Parse(query string, cat *rt.Catalog) (plan.Node, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, cat: cat}
	n, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tkEOF {
		return nil, fmt.Errorf("sql: trailing input at %q", p.peek().text)
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	return n, nil
}

type tkKind uint8

const (
	tkEOF tkKind = iota
	tkIdent
	tkNumber
	tkString
	tkPunct
)

type token struct {
	kind tkKind
	text string // uppercased for idents
	raw  string
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("sql: unterminated string")
			}
			toks = append(toks, token{kind: tkString, raw: src[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tkNumber, raw: src[i:j]})
			i = j
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(src) && (src[j] == '_' || src[j] == '.' ||
				src[j] >= 'a' && src[j] <= 'z' || src[j] >= 'A' && src[j] <= 'Z' ||
				src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, token{kind: tkIdent, text: strings.ToUpper(src[i:j]), raw: src[i:j]})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=":
				toks = append(toks, token{kind: tkPunct, text: two})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>':
				toks = append(toks, token{kind: tkPunct, text: string(c)})
				i++
			default:
				return nil, fmt.Errorf("sql: bad character %q", string(c))
			}
		}
	}
	toks = append(toks, token{kind: tkEOF})
	return toks, nil
}

// binding maps visible column names to output ordinals and types.
type binding struct {
	names []string // qualified "table.col" and bare "col" both resolve
	types []qir.Type
}

// lookup resolves a column reference, case-insensitively: an exact match of
// the whole (possibly qualified) name first, then a match of the part after
// the table qualifier, which must be unique. It runs once per identifier per
// visible column and does not allocate.
func (b *binding) lookup(name string) (int, qir.Type, bool) {
	for i, n := range b.names {
		if strings.EqualFold(n, name) {
			return i, b.types[i], true
		}
	}
	found := -1
	for i, n := range b.names {
		if strings.EqualFold(n[strings.LastIndexByte(n, '.')+1:], name) {
			if found >= 0 {
				return 0, 0, false // ambiguous
			}
			found = i
		}
	}
	if found >= 0 {
		return found, b.types[found], true
	}
	return 0, 0, false
}

type parser struct {
	toks []token
	pos  int
	cat  *rt.Catalog
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(word string) bool {
	t := p.peek()
	if t.kind == tkIdent && t.text == word || t.kind == tkPunct && t.text == word {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(word string) error {
	if !p.accept(word) {
		return fmt.Errorf("sql: expected %s, got %q", word, p.peek().raw+p.peek().text)
	}
	return nil
}

// selectStmt parses one SELECT statement.
func (p *parser) selectStmt() (plan.Node, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	type selItem struct {
		agg  *plan.AggFn
		expr func(b *binding) (plan.Expr, error) // nil for COUNT(*)
		name string
	}
	var items []selItem
	star := p.peek().kind == tkPunct && p.peek().text == "*"
	if star {
		// SELECT *: one item with no expression.
		p.next()
		items = append(items, selItem{})
	}
	for !star {
		it := selItem{}
		t := p.peek()
		if t.kind == tkIdent && isAggName(t.text) && p.toks[p.pos+1].text == "(" {
			fn := aggByName(t.text)
			p.next()
			p.next() // '('
			it.agg = &fn
			if p.peek().text == "*" {
				p.next()
			} else {
				e, err := p.parseExprDeferred()
				if err != nil {
					return nil, err
				}
				it.expr = e
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseExprDeferred()
			if err != nil {
				return nil, err
			}
			it.expr = e
		}
		if p.accept("AS") {
			it.name = p.next().raw
		}
		items = append(items, it)
		if !p.accept(",") {
			break
		}
	}

	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	node, bind, err := p.fromClause()
	if err != nil {
		return nil, err
	}

	if p.accept("WHERE") {
		pe, err := p.parseExprDeferred()
		if err != nil {
			return nil, err
		}
		pred, err := pe(bind)
		if err != nil {
			return nil, err
		}
		if pred.Type() != qir.I1 {
			return nil, fmt.Errorf("sql: WHERE predicate is %s", pred.Type())
		}
		node = &plan.Select{Input: node, Pred: pred}
	}

	hasAgg := false
	for _, it := range items {
		if it.agg != nil {
			hasAgg = true
		}
	}
	var groupKeys []func(b *binding) (plan.Expr, error)
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExprDeferred()
			if err != nil {
				return nil, err
			}
			groupKeys = append(groupKeys, e)
			if !p.accept(",") {
				break
			}
		}
		hasAgg = true
	}

	outBind := bind
	if hasAgg {
		g := &plan.GroupBy{Input: node}
		nb := &binding{}
		for ki, ke := range groupKeys {
			e, err := ke(bind)
			if err != nil {
				return nil, err
			}
			g.Keys = append(g.Keys, e)
			name := fmt.Sprintf("key%d", ki)
			if c, ok := e.(*plan.Col); ok && c.Name != "" {
				name = c.Name
			}
			g.Names = append(g.Names, name)
			nb.names = append(nb.names, name)
			nb.types = append(nb.types, e.Type())
		}
		for i, it := range items {
			if it.agg == nil {
				continue
			}
			var arg plan.Expr
			if it.expr != nil {
				a, err := it.expr(bind)
				if err != nil {
					return nil, err
				}
				arg = a
			}
			name := it.name
			if name == "" {
				name = fmt.Sprintf("agg%d", i)
			}
			g.Aggs = append(g.Aggs, plan.AggExpr{Fn: *it.agg, Arg: arg, Name: name})
		}
		node = g
		sch := g.Schema()
		nb2 := &binding{}
		for _, ci := range sch {
			nb2.names = append(nb2.names, ci.Name)
			nb2.types = append(nb2.types, ci.Type)
		}
		outBind = nb2

		// Non-aggregate select items must be group keys; build the final
		// projection mapping select order onto the group-by schema.
		var exprs []plan.Expr
		var names []string
		keyIdx := 0
		aggIdx := len(g.Keys)
		for _, it := range items {
			if it.agg != nil {
				exprs = append(exprs, &plan.Col{Idx: aggIdx, Ty: sch[aggIdx].Type, Name: sch[aggIdx].Name})
				names = append(names, sch[aggIdx].Name)
				aggIdx++
			} else {
				if keyIdx >= len(g.Keys) {
					return nil, fmt.Errorf("sql: non-aggregate select item without matching GROUP BY key")
				}
				exprs = append(exprs, &plan.Col{Idx: keyIdx, Ty: sch[keyIdx].Type, Name: sch[keyIdx].Name})
				names = append(names, sch[keyIdx].Name)
				keyIdx++
			}
		}
		if p.accept("HAVING") {
			he, err := p.parseExprDeferred()
			if err != nil {
				return nil, err
			}
			pred, err := he(outBind)
			if err != nil {
				return nil, err
			}
			node = &plan.Select{Input: node, Pred: pred}
		}
		node = &plan.Project{Input: node, Exprs: exprs, Names: names}
		pb := &binding{}
		for i, e := range exprs {
			pb.names = append(pb.names, names[i])
			pb.types = append(pb.types, e.Type())
		}
		outBind = pb
	} else {
		// Plain projection (unless SELECT *).
		if !star {
			var exprs []plan.Expr
			var names []string
			for i, it := range items {
				e, err := it.expr(bind)
				if err != nil {
					return nil, err
				}
				exprs = append(exprs, e)
				name := it.name
				if name == "" {
					if c, ok := e.(*plan.Col); ok && c.Name != "" {
						name = c.Name
					} else {
						name = fmt.Sprintf("col%d", i)
					}
				}
				names = append(names, name)
			}
			node = &plan.Project{Input: node, Exprs: exprs, Names: names}
			pb := &binding{}
			for i, e := range exprs {
				pb.names = append(pb.names, names[i])
				pb.types = append(pb.types, e.Type())
			}
			outBind = pb
		}
	}

	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		s := &plan.Sort{Input: node}
		for {
			e, err := p.parseExprDeferred()
			if err != nil {
				return nil, err
			}
			ex, err := e(outBind)
			if err != nil {
				return nil, err
			}
			key := plan.SortKey{E: ex}
			if p.accept("DESC") {
				key.Desc = true
			} else {
				p.accept("ASC")
			}
			s.Keys = append(s.Keys, key)
			if !p.accept(",") {
				break
			}
		}
		node = s
	}
	if p.accept("LIMIT") {
		t := p.next()
		if t.kind != tkNumber {
			return nil, fmt.Errorf("sql: LIMIT expects a number")
		}
		n, err := strconv.ParseInt(t.raw, 10, 64)
		if err != nil {
			return nil, err
		}
		node = &plan.Limit{Input: node, N: n}
	}
	return node, nil
}

func isAggName(s string) bool {
	switch s {
	case "SUM", "COUNT", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

func aggByName(s string) plan.AggFn {
	switch s {
	case "SUM":
		return plan.AggSum
	case "COUNT":
		return plan.AggCount
	case "AVG":
		return plan.AggAvg
	case "MIN":
		return plan.AggMin
	}
	return plan.AggMax
}

// fromClause parses `table [alias] (JOIN table [alias] ON a = b)*`,
// building left-deep hash joins with the new table on the build side.
func (p *parser) fromClause() (plan.Node, *binding, error) {
	node, bind, err := p.tableRef()
	if err != nil {
		return nil, nil, err
	}
	for p.accept("JOIN") {
		rnode, rbind, err := p.tableRef()
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
			Build: rnode, Probe: node,
			BuildKeys: []plan.Expr{buildKey},
			ProbeKeys: []plan.Expr{probeKey},
		}
		// Join schema: build columns, then probe columns.
		nb := &binding{}
		nb.names = append(nb.names, rbind.names...)
		nb.names = append(nb.names, bind.names...)
		nb.types = append(nb.types, rbind.types...)
		nb.types = append(nb.types, bind.types...)
		// Rebase probe-side column ordinals.
		bind = nb
	}
	return node, bind, nil
}

func (p *parser) tableRef() (plan.Node, *binding, error) {
	t := p.next()
	if t.kind != tkIdent {
		return nil, nil, fmt.Errorf("sql: expected table name")
	}
	tbl, err := p.cat.Table(strings.ToLower(t.raw))
	if err != nil {
		return nil, nil, err
	}
	alias := tbl.Name
	if p.peek().kind == tkIdent && !reserved(p.peek().text) {
		alias = p.next().raw
	}
	var cols []plan.ColInfo
	b := &binding{}
	for _, c := range tbl.Cols {
		cols = append(cols, plan.ColInfo{Name: c.Name, Type: c.Type})
		b.names = append(b.names, alias+"."+c.Name)
		b.types = append(b.types, c.Type)
	}
	return &plan.Scan{Table: tbl.Name, Cols: cols}, b, nil
}

func reserved(s string) bool {
	switch s {
	case "JOIN", "ON", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "AS", "BY", "SELECT", "FROM":
		return true
	}
	return false
}
