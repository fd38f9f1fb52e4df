package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// Literals and statement shapes. Every literal of a plan the parser builds
// holds the value Convert gives one literal of the text at the type the
// parser chose for it, and the parser records which (litRec). Two statements
// whose ShapeKeys are equal run through the parser alike: they differ only in
// literal values, and the parser's choices depend on those values only where
// it converts a literal to a narrow integer type, which it records as a
// check. A cache of statement shapes can therefore bind a later statement of
// the same shape without parsing it: convert each of its literals as the
// recorded literal was, and hold it to the checks (Shape).

// Lit is one literal of a statement as written: a number, with or without a
// point, or the text of a string.
type Lit struct {
	kind tkKind
	raw  string
}

func (l Lit) point() bool { return l.kind == tkNumber && strings.IndexByte(l.raw, '.') >= 0 }

// natural is the type a literal has before anything coerces it.
func (l Lit) natural() qir.Type {
	switch {
	case l.kind == tkString:
		return qir.Str
	case l.point():
		return qir.I128
	}
	return qir.I64
}

// Convert is the value literal l takes as a literal of type ty: the one
// conversion from text to value, which the parser and a cache of statement
// shapes both call. An integer converts to any integer type that holds it. A
// number with a point converts to F64 as strconv.ParseFloat reads it, and to
// I128 as a decimal of scale 2 when it is exactly one; digits past the second
// that are not zeros are an error that names the literal. A string converts
// only to Str.
func Convert(l Lit, ty qir.Type) (qir.PoolConst, error) {
	switch {
	case l.kind == tkString:
		if ty == qir.Str {
			return qir.PoolConst{Type: qir.Str, Str: l.raw}, nil
		}
	case l.point():
		switch ty {
		case qir.F64:
			f, err := strconv.ParseFloat(l.raw, 64)
			if err != nil {
				return qir.PoolConst{}, fmt.Errorf("sql: bad number %q", l.raw)
			}
			return qir.PoolConst{Type: qir.F64, Lo: math.Float64bits(f)}, nil
		case qir.I128:
			v, err := cents(l.raw)
			if err != nil {
				return qir.PoolConst{}, err
			}
			d := rt.I128FromInt64(v)
			return qir.PoolConst{Type: qir.I128, Lo: d.Lo, Hi: d.Hi}, nil
		}
	default:
		v, err := strconv.ParseInt(l.raw, 10, 64)
		if err != nil {
			return qir.PoolConst{}, fmt.Errorf("sql: bad number %q", l.raw)
		}
		switch {
		case ty == qir.I128:
			d := rt.I128FromInt64(v)
			return qir.PoolConst{Type: qir.I128, Lo: d.Lo, Hi: d.Hi}, nil
		case fits(v, ty):
			return qir.PoolConst{Type: ty, Lo: uint64(v)}, nil
		case ty.IsInt():
			return qir.PoolConst{}, fmt.Errorf("sql: %s does not fit %s", l.raw, ty)
		}
	}
	return qir.PoolConst{}, fmt.Errorf("sql: literal %s cannot be %s", l.raw, ty)
}

// cents reads a number with a point as a count of hundredths.
func cents(raw string) (int64, error) {
	whole, frac, _ := strings.Cut(raw, ".")
	w, err := strconv.ParseInt(whole, 10, 64)
	if err != nil || w > (math.MaxInt64-99)/100 || strings.IndexByte(frac, '.') >= 0 {
		return 0, fmt.Errorf("sql: bad number %q", raw)
	}
	if len(frac) > 2 {
		if strings.Trim(frac[2:], "0") != "" {
			return 0, fmt.Errorf("sql: literal %s has more than two decimal places, and a decimal holds hundredths", raw)
		}
		frac = frac[:2]
	}
	c := int64(0)
	for i := 0; i < 2; i++ {
		c *= 10
		if i < len(frac) {
			c += int64(frac[i] - '0')
		}
	}
	return w*100 + c, nil
}

// litExpr is the plan literal holding v.
func litExpr(v qir.PoolConst) plan.Expr {
	switch v.Type {
	case qir.Str:
		return &plan.ConstStr{V: v.Str}
	case qir.I128:
		return &plan.ConstDec{V: rt.I128{Lo: v.Lo, Hi: v.Hi}}
	case qir.F64:
		return &plan.ConstFloat{V: math.Float64frombits(v.Lo)}
	}
	return &plan.ConstInt{Ty: v.Type, V: int64(v.Lo)}
}

// litRec says that literal node e holds statement literal site, lit, as a
// value of type ty, or, for a literal the parser made itself (site < 0), the
// value v. err is set for a number with a point that is no decimal of scale
// 2: the plan may hold it only as F64 (parser.inexact).
type litRec struct {
	e    plan.Expr
	site int32
	lit  Lit
	ty   qir.Type
	v    qir.PoolConst
	err  error
}

// check records that the parser's choice rested on whether statement
// literal site converts to ty: ok says whether it did.
type check struct {
	site int32
	ty   qir.Type
	ok   bool
}

// literal parses the literal token t: an integer is I64, a number with a
// point a decimal and a string Str, until an operand coerces it.
func (p *parser) literal(t token) (deferred, error) {
	l := Lit{t.kind, t.raw}
	ty := l.natural()
	v, err := Convert(l, ty)
	var inexact error
	if err != nil {
		// A number with a point that is no decimal of scale 2 may still be
		// an F64 literal, which its operand decides.
		if _, ferr := Convert(l, qir.F64); !l.point() || ferr != nil {
			return nil, err
		}
		inexact, v = err, qir.PoolConst{Type: qir.I128}
	}
	e := litExpr(v)
	p.note(e, t, ty)
	p.lits[len(p.lits)-1].err = inexact
	return constDeferred(e), nil
}

// note records that literal node e holds token t's literal as type ty.
func (p *parser) note(e plan.Expr, t token, ty qir.Type) {
	if t.site < 0 {
		p.opaque = true // a LIMIT count read as a value
	}
	p.lits = append(p.lits, litRec{e: e, site: t.site, lit: Lit{t.kind, t.raw}, ty: ty})
}

// rec returns the record of literal node e in lits, nil for a node that is
// no literal the parser made.
func rec(lits []litRec, e plan.Expr) *litRec {
	for i := len(lits) - 1; i >= 0; i-- {
		if lits[i].e == e {
			return &lits[i]
		}
	}
	return nil
}

// retype is literal e as a literal of type ty: converted from its text when
// it holds a literal of the statement, else by value.
func (p *parser) retype(e plan.Expr, ty qir.Type) (plan.Expr, error) {
	r := rec(p.lits, e)
	if r == nil || r.site < 0 {
		return p.made(qir.PoolConst{Type: ty, Lo: uint64(e.(*plan.ConstInt).V)}), nil
	}
	v, err := Convert(r.lit, ty)
	if err != nil {
		return nil, err
	}
	x := litExpr(v)
	p.lits = append(p.lits, litRec{e: x, site: r.site, lit: r.lit, ty: ty})
	return x, nil
}

// made is a literal of value v that the parser makes itself; an I128 value
// is the sign extension of Lo.
func (p *parser) made(v qir.PoolConst) plan.Expr {
	if v.Type == qir.I128 {
		d := rt.I128FromInt64(int64(v.Lo))
		v.Lo, v.Hi = d.Lo, d.Hi
	}
	e := litExpr(v)
	p.lits = append(p.lits, litRec{e: e, site: -1, v: v})
	return e
}

// fitsLit reports whether integer literal c is a value of type t, and
// records the answer as a check when it depends on c's value.
func (p *parser) fitsLit(c *plan.ConstInt, t qir.Type) bool {
	ok := fits(c.V, t)
	if r := rec(p.lits, c); r != nil && r.site >= 0 && (t == qir.I8 || t == qir.I16 || t == qir.I32) {
		p.checks = append(p.checks, check{r.site, t, ok})
	}
	return ok
}

// pointLit reports whether e is a decimal literal written with a point, or
// the negation of one.
func (p *parser) pointLit(e plan.Expr) bool {
	if a, ok := e.(*plan.Arith); ok {
		for _, n := range p.negs {
			if n == a {
				return p.pointLit(a.R)
			}
		}
		return false
	}
	r := rec(p.lits, e)
	return r != nil && r.site >= 0 && r.ty == qir.I128 && r.lit.point()
}

// negate is 0 - x, the parser's unary minus.
func (p *parser) negate(x plan.Expr) (plan.Expr, error) {
	a, err := plan.NewArith(plan.OpSub, p.made(qir.PoolConst{Type: x.Type()}), x)
	if err != nil {
		return nil, err
	}
	p.negs = append(p.negs, a)
	return a, nil
}

// name is the name token t spells, as written. A keyword or a literal used
// as a name makes the plan depend on its case or its value, which a shape
// does not record.
func (p *parser) name(t token) string {
	if t.kind != tkIdent || t.text != "" {
		p.opaque = true
	}
	return t.raw
}

// inexact returns the error of a number with a point that n holds as a
// decimal it is not exactly.
func (p *parser) inexact(n plan.Node) error {
	bad := false
	for i := range p.lits {
		bad = bad || p.lits[i].err != nil
	}
	if !bad {
		return nil
	}
	var fp plan.Fingerprint
	fp.Write(n)
	for _, e := range fp.Lits {
		if r := rec(p.lits, e); r != nil && r.err != nil {
			return r.err
		}
	}
	return nil
}

// ShapeKey appends the shape of statement query to key and its literals, in
// order, to lits. The shape is the statement's token stream with keywords
// upper-cased and each literal written as its kind alone — integer, number
// with a point, string — except LIMIT's count, which is written out. It
// reads the text once and builds no token list. The error is the lexer's.
func ShapeKey(key []byte, lits []Lit, query string) ([]byte, []Lit, error) {
	s := scanner{src: query}
	for {
		t, err := s.next()
		switch {
		case err != nil:
			return key, lits, err
		case t.kind == tkEOF:
			return key, lits, nil
		case t.site >= 0:
			l := Lit{t.kind, t.raw}
			lits = append(lits, l)
			switch l.natural() {
			case qir.Str:
				key = append(key, 's')
			case qir.I128:
				key = append(key, 'p')
			default:
				key = append(key, 'i')
			}
		case t.kind == tkIdent && t.text != "":
			key = append(append(append(key, 'K'), t.text...), 0)
		default:
			key = append(append(append(append(key, '0'+byte(t.kind)), t.raw...), t.text...), 0)
		}
	}
}

// Shape is what a plan parsed from a statement rests on besides the
// statement's ShapeKey: which statement literal each literal node holds, at
// which type, and the checks on literal values the parser's choices rest on.
type Shape struct {
	lits   []litRec
	checks []check
}

// ParseShape is Parse, and also returns the statement's Shape, or nil when
// the plan depends on the text in a way a Shape does not record: a name
// spelled by a keyword or a literal, or a select item matched to a GROUP BY
// key by its text.
func ParseShape(query string, cat *rt.Catalog) (plan.Node, *Shape, error) {
	n, p, err := parse(query, cat, (*parser).fromWhere)
	if err != nil || p.opaque {
		return n, nil, err
	}
	return n, &Shape{lits: p.lits, checks: p.checks}, nil
}

// Binder derives the literal values of a plan from the literals of a
// statement of the shape it was parsed from.
type Binder struct {
	lits   []bindLit // by ordinal in the plan's literal list
	checks []check
}

// bindLit is a plan literal's source: statement literal site converted to
// ty, or v.
type bindLit struct {
	site int32
	ty   qir.Type
	v    qir.PoolConst
}

// Binder returns the binder of the plan ParseShape returned with s, whose
// literal nodes are lits (plan.Fingerprint.Lits), for a statement of nlits
// literals; nil when a node is no literal the parser recorded.
func (s *Shape) Binder(lits []plan.Expr, nlits int) *Binder {
	b := &Binder{lits: make([]bindLit, len(lits)), checks: s.checks}
	for i, e := range lits {
		r := rec(s.lits, e)
		if r == nil || int(r.site) >= nlits {
			return nil
		}
		b.lits[i] = bindLit{site: r.site, ty: r.ty, v: r.v}
	}
	return b
}

// Bind appends to vals the values of the plan's literals for a statement of
// the same shape whose literals are lits, each as Convert gives it — what
// parsing that statement would give — or reports that parsing it would not
// give a plan of the same shape: a literal does not convert, or a check the
// parser's choices rest on comes out otherwise.
func (b *Binder) Bind(vals []qir.PoolConst, lits []Lit) ([]qir.PoolConst, bool) {
	for _, k := range b.checks {
		if int(k.site) >= len(lits) {
			return vals, false
		}
		if _, err := Convert(lits[k.site], k.ty); (err == nil) != k.ok {
			return vals, false
		}
	}
	for _, l := range b.lits {
		v := l.v
		if l.site >= 0 {
			var err error
			if int(l.site) >= len(lits) {
				return vals, false
			}
			if v, err = Convert(lits[l.site], l.ty); err != nil {
				return vals, false
			}
		}
		vals = append(vals, v)
	}
	return vals, true
}

// Footprint is the heap the binder holds.
func (b *Binder) Footprint() int64 {
	n := int64(unsafe.Sizeof(*b)) + int64(len(b.lits))*int64(unsafe.Sizeof(bindLit{})) +
		int64(len(b.checks))*int64(unsafe.Sizeof(check{}))
	for _, l := range b.lits {
		n += int64(len(l.v.Str))
	}
	return n
}
