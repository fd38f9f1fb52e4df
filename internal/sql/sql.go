// Package sql implements a small SQL front-end over the plan layer:
// SELECT-FROM-JOIN-WHERE-GROUP BY-HAVING-ORDER BY-LIMIT, derived tables in
// FROM, and the scalar expressions query compilation exercises (decimal
// arithmetic, LIKE, BETWEEN, CASE, CAST to BIGINT). A number with a point is
// read exactly: against a floating-point operand it is the F64 value it
// writes, anywhere else a decimal of scale 2 (cents), and a literal that has
// more fractional digits than that is an error (Convert).
package sql

import (
	"fmt"
	"strconv"
	"strings"

	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

var obsParsed = obs.NewCounter("sql.statements_parsed")

// Parse compiles a SQL string into a validated plan against the catalog.
// The FROM and WHERE clauses of a join are planned (from.go): single-table
// filters sit on their scans and every hash join builds on its smaller input.
func Parse(query string, cat *rt.Catalog) (plan.Node, error) {
	n, _, err := parse(query, cat, (*parser).fromWhere)
	return n, err
}

// parse is Parse with the FROM and WHERE clauses built by fromWhere. It also
// returns the parser, whose records say how the plan's literals derive from
// the text (shape.go).
func parse(query string, cat *rt.Catalog, fromWhere func(*parser) (plan.Node, *binding, error)) (plan.Node, *parser, error) {
	obsParsed.Inc()
	toks, err := lex(query)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks, cat: cat}
	n, err := p.selectStmt(fromWhere)
	if err != nil {
		return nil, nil, err
	}
	if t := p.peek(); t.kind != tkEOF {
		return nil, nil, fmt.Errorf("sql: trailing input at %q", t.raw+t.text)
	}
	if err := p.inexact(n); err != nil {
		return nil, nil, err
	}
	if err := plan.Validate(n); err != nil {
		return nil, nil, err
	}
	return n, p, nil
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
	text string // punctuation; for an identifier its keyword upper-cased, or ""
	raw  string
	// site numbers the statement's literals in order: every number and
	// string but LIMIT's count, which is part of the statement's shape. It
	// is -1 for every other token.
	site int32
}

// keywords holds every word the grammar reads, upper-cased.
var keywords = map[string]string{}

func init() {
	for _, w := range []string{"SELECT", "FROM", "JOIN", "ON", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
		"ASC", "DESC", "LIMIT", "AS", "AND", "OR", "NOT", "LIKE", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE",
		"END", "CAST", "SUM", "COUNT", "AVG", "MIN", "MAX"} {
		keywords[w] = w
	}
}

// keyword returns the keyword identifier raw spells in any case, or "".
func keyword(raw string) string {
	var up [7]byte // BETWEEN is the longest keyword
	if len(raw) > len(up) {
		return ""
	}
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return keywords[string(up[:len(raw)])]
}

func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/5+2) // statements average five bytes a token
	s := scanner{src: src}
	for {
		t, err := s.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tkEOF {
			return toks, nil
		}
	}
}

// scanner reads a statement's tokens one at a time: lex collects them for
// the parser, ShapeKey reads them without keeping any.
type scanner struct {
	src   string
	i     int
	sites int32
	limit bool // the last token was LIMIT
}

// next returns the next token, tkEOF at the end of the text.
func (s *scanner) next() (token, error) {
	t, err := s.scan()
	if t.kind == tkNumber && s.limit || t.kind != tkNumber && t.kind != tkString {
		t.site = -1
	} else {
		t.site = s.sites
		s.sites++
	}
	s.limit = t.kind == tkIdent && t.text == "LIMIT"
	return t, err
}

func (s *scanner) scan() (token, error) {
	src := s.src
	for s.i < len(src) {
		i := s.i
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.i++
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j >= len(src) {
				return token{}, fmt.Errorf("sql: unterminated string")
			}
			s.i = j + 1
			return token{kind: tkString, raw: src[i+1 : j]}, nil
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			s.i = j
			return token{kind: tkNumber, raw: src[i:j]}, nil
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(src) && (src[j] == '_' || src[j] == '.' ||
				src[j] >= 'a' && src[j] <= 'z' || src[j] >= 'A' && src[j] <= 'Z' ||
				src[j] >= '0' && src[j] <= '9') {
				j++
			}
			s.i = j
			return token{kind: tkIdent, text: keyword(src[i:j]), raw: src[i:j]}, nil
		default:
			if i+1 < len(src) {
				switch two := src[i : i+2]; two {
				case "<=", ">=", "<>", "!=":
					s.i += 2
					return token{kind: tkPunct, text: two}, nil
				}
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>':
				s.i++
				return token{kind: tkPunct, text: src[i : i+1]}, nil
			}
			return token{}, fmt.Errorf("sql: bad character %q", string(c))
		}
	}
	return token{kind: tkEOF}, nil
}

// binding maps visible column names to ordinals and types: the columns of
// tabs in order, each named by its table's qualifier and its own name.
type binding struct {
	tabs []boundTable
	// at maps a column's position in tabs to the ordinal of the input it
	// resolves to; nil is the identity. A planned join lays its inputs out in
	// another order than the one names resolve in (from.go).
	at []int
}

// boundTable is one table's columns as a binding sees them.
type boundTable struct {
	qual string // "" for columns named without a qualifier
	cols []plan.ColInfo
}

// lookup resolves a column reference, case-insensitively: an exact match of
// the whole (possibly qualified) name first, then a match of the part after
// the table qualifier, which must be unique. It runs once per identifier per
// visible column and does not allocate.
func (b *binding) lookup(name string) (int, qir.Type, bool) {
	i := 0
	for _, t := range b.tabs {
		for _, c := range t.cols {
			if named(t.qual, c.Name, name) {
				return b.ord(i), c.Type, true
			}
			i++
		}
	}
	if strings.IndexByte(name, '.') >= 0 {
		return 0, 0, false // the part after a column's qualifier has no dot
	}
	found, ty := -1, qir.Type(0)
	i = 0
	for _, t := range b.tabs {
		for _, c := range t.cols {
			if k := len(c.Name) - len(name); k >= 0 && (k == 0 || c.Name[k-1] == '.') && strings.EqualFold(c.Name[k:], name) {
				if found >= 0 {
					return 0, 0, false // ambiguous
				}
				found, ty = i, c.Type
			}
			i++
		}
	}
	if found >= 0 {
		return b.ord(found), ty, true
	}
	return 0, 0, false
}

// named reports whether name spells column col of a table qualified as qual
// ("" for none), ignoring case, as comparing it with qual+"."+col would.
func named(qual, col, name string) bool {
	if qual == "" {
		return strings.EqualFold(col, name)
	}
	return len(name) == len(qual)+1+len(col) && name[len(qual)] == '.' &&
		strings.EqualFold(name[:len(qual)], qual) && strings.EqualFold(name[len(qual)+1:], col)
}

func (b *binding) ord(i int) int {
	if b.at == nil {
		return i
	}
	return b.at[i]
}

// schemaBinding binds the output columns of a node by their bare names.
func schemaBinding(n plan.Node) *binding {
	return &binding{tabs: []boundTable{{cols: n.Schema()}}}
}

type parser struct {
	toks []token
	pos  int
	cat  *rt.Catalog
	// What the plan's literals derive from (shape.go).
	lits   []litRec
	checks []check
	negs   []*plan.Arith
	// opaque is set when the plan depends on the text in a way the records
	// do not capture: a name spelled by a keyword or a literal, or group
	// keys matched by their text.
	opaque bool
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

// selectStmt parses one SELECT statement, its FROM and WHERE clauses with
// fromWhere.
func (p *parser) selectStmt(fromWhere func(*parser) (plan.Node, *binding, error)) (plan.Node, error) {
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
				if fn != plan.AggCount {
					return nil, fmt.Errorf("sql: %s(*)", t.text)
				}
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
			it.name = p.name(p.next())
		}
		items = append(items, it)
		if !p.accept(",") {
			break
		}
	}

	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	node, bind, err := fromWhere(p)
	if err != nil {
		return nil, err
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
		outBind = schemaBinding(g)
		sch := outBind.tabs[0].cols

		// Each select item is an aggregate or equals a group key: the final
		// projection maps the select list onto the group-by schema, and is
		// left out when it would pass that schema through unchanged.
		var exprs []plan.Expr
		var names []string
		identity := len(items) == len(sch)
		aggIdx := len(g.Keys)
		for i, it := range items {
			k := aggIdx
			if it.agg != nil {
				aggIdx++
			} else if k, err = p.keyOf(it.expr, bind, g.Keys); err != nil {
				return nil, err
			}
			name := sch[k].Name
			if it.agg == nil && it.name != "" {
				name = it.name
			}
			exprs = append(exprs, &plan.Col{Idx: k, Ty: sch[k].Type, Name: sch[k].Name})
			names = append(names, name)
			identity = identity && k == i && name == sch[k].Name
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
		if !identity {
			node = &plan.Project{Input: node, Exprs: exprs, Names: names}
			outBind = schemaBinding(node)
		}
	} else if star {
		if bind.at != nil {
			// Over a re-oriented join: the columns in the order names resolve.
			node, outBind = bind.fromOrder(node)
		}
	} else {
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
		outBind = schemaBinding(node)
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

// keyOf returns the position of the group key a non-aggregate select item
// equals, in any order of the select list; an item that equals no key is an
// error.
func (p *parser) keyOf(item deferred, bind *binding, keys []plan.Expr) (int, error) {
	if item == nil {
		return 0, fmt.Errorf("sql: SELECT * with GROUP BY or aggregates")
	}
	e, err := item(bind)
	if err != nil {
		return 0, err
	}
	for k, key := range keys {
		if p.sameExpr(e, key) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sql: select item %s is neither an aggregate nor a GROUP BY key", e)
}

// sameExpr reports whether two expressions resolved against one binding are
// the same: the same column however it is named, or else the same text. The
// text holds literal values, so the plan then depends on them (opaque).
func (p *parser) sameExpr(a, b plan.Expr) bool {
	if x, ok := a.(*plan.Col); ok {
		y, ok := b.(*plan.Col)
		return ok && x.Idx == y.Idx
	}
	p.opaque = true
	return a.String() == b.String()
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

func reserved(s string) bool {
	switch s {
	case "JOIN", "ON", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "AS", "BY", "SELECT", "FROM":
		return true
	}
	return false
}
