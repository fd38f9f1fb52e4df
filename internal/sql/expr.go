package sql

import (
	"fmt"
	"strconv"
	"strings"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// deferred is an expression resolved against a binding later (the binder
// needs the full FROM clause before names can resolve).
type deferred func(b *binding) (plan.Expr, error)

func (p *parser) parseExprDeferred() (deferred, error) { return p.orExpr() }

func (p *parser) orExpr() (deferred, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	return p.orRest(l)
}

// orRest parses the OR operands that follow l.
func (p *parser) orRest(l deferred) (deferred, error) {
	for p.accept("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		lc, rc := l, r
		l = func(b *binding) (plan.Expr, error) {
			le, err := lc(b)
			if err != nil {
				return nil, err
			}
			re, err := rc(b)
			if err != nil {
				return nil, err
			}
			return &plan.Logic{Op: plan.OpOr, L: le, R: re}, nil
		}
	}
	return l, nil
}

// conjuncts parses a predicate as the operands of its top-level AND: one
// operand when an OR binds them.
func (p *parser) conjuncts() ([]deferred, error) {
	c, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	cs, err := p.andRest(c)
	if err != nil || p.peek().text != "OR" {
		return cs, err
	}
	l, err := p.orRest(andDeferred(cs))
	return []deferred{l}, err
}

func (p *parser) andExpr() (deferred, error) {
	c, err := p.notExpr()
	if err != nil || p.peek().text != "AND" {
		return c, err
	}
	cs, err := p.andRest(c)
	if err != nil {
		return nil, err
	}
	return andDeferred(cs), nil
}

// andRest parses the AND operands that follow first and returns them all.
func (p *parser) andRest(first deferred) ([]deferred, error) {
	cs := []deferred{first}
	for p.accept("AND") {
		c, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// andDeferred resolves each operand in turn and joins them with and.
func andDeferred(cs []deferred) deferred {
	if len(cs) == 1 {
		return cs[0]
	}
	return func(b *binding) (plan.Expr, error) {
		var e plan.Expr
		for _, c := range cs {
			x, err := c(b)
			if err != nil {
				return nil, err
			}
			e = and(e, x)
		}
		return e, nil
	}
}

// and is l AND r, or r alone when l is nil: folded left to right, a list of
// operands makes the tree the grammar's left-associative AND makes.
func and(l, r plan.Expr) plan.Expr {
	if l == nil {
		return r
	}
	return &plan.Logic{Op: plan.OpAnd, L: l, R: r}
}

func (p *parser) notExpr() (deferred, error) {
	if p.accept("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return func(b *binding) (plan.Expr, error) {
			x, err := e(b)
			if err != nil {
				return nil, err
			}
			return &plan.Not{E: x}, nil
		}, nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]plan.CmpOp{
	"=": plan.CmpEQ, "<>": plan.CmpNE, "!=": plan.CmpNE,
	"<": plan.CmpLT, "<=": plan.CmpLE, ">": plan.CmpGT, ">=": plan.CmpGE,
}

func (p *parser) cmpExpr() (deferred, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tkPunct {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			lc, rc := l, r
			return func(b *binding) (plan.Expr, error) {
				le, err := lc(b)
				if err != nil {
					return nil, err
				}
				re, err := rc(b)
				if err != nil {
					return nil, err
				}
				le, re, err = coerceCmp(le, re)
				if err != nil {
					return nil, err
				}
				return plan.NewCmp(op, le, re)
			}, nil
		}
	}
	if t.kind == tkIdent && t.text == "LIKE" {
		p.next()
		pat := p.next()
		if pat.kind != tkString {
			return nil, fmt.Errorf("sql: LIKE expects a string literal")
		}
		lc := l
		return func(b *binding) (plan.Expr, error) {
			le, err := lc(b)
			if err != nil {
				return nil, err
			}
			if le.Type() != qir.Str {
				return nil, fmt.Errorf("sql: LIKE on %s", le.Type())
			}
			return &plan.Like{E: le, Pattern: pat.raw}, nil
		}, nil
	}
	if t.kind == tkIdent && t.text == "BETWEEN" {
		p.next()
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		lc := l
		return func(b *binding) (plan.Expr, error) {
			le, err := lc(b)
			if err != nil {
				return nil, err
			}
			loe, err := lo(b)
			if err != nil {
				return nil, err
			}
			hie, err := hi(b)
			if err != nil {
				return nil, err
			}
			le2, loe, err := coerceCmp(le, loe)
			if err != nil {
				return nil, err
			}
			le3, hie, err := coerceCmp(le2, hie)
			if err != nil {
				return nil, err
			}
			// Re-coerce lo to the final type if the hi coercion widened.
			if loe.Type() != le3.Type() {
				loe, err = coerceTo(loe, le3.Type())
				if err != nil {
					return nil, err
				}
			}
			return &plan.Between{E: le3, Lo: loe, Hi: hie}, nil
		}, nil
	}
	return l, nil
}

var arithOps = map[string]plan.ArithOp{
	"+": plan.OpAdd, "-": plan.OpSub, "*": plan.OpMul, "/": plan.OpDiv, "%": plan.OpMod,
}

func (p *parser) addExpr() (deferred, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tkPunct || t.text != "+" && t.text != "-" {
			return l, nil
		}
		p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = binArith(arithOps[t.text], l, r)
	}
}

func (p *parser) mulExpr() (deferred, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tkPunct || t.text != "*" && t.text != "/" && t.text != "%" {
			return l, nil
		}
		p.next()
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = binArith(arithOps[t.text], l, r)
	}
}

func binArith(op plan.ArithOp, l, r deferred) deferred {
	return func(b *binding) (plan.Expr, error) {
		le, err := l(b)
		if err != nil {
			return nil, err
		}
		re, err := r(b)
		if err != nil {
			return nil, err
		}
		le, re, err = coercePair(le, re)
		if err != nil {
			return nil, err
		}
		return plan.NewArith(op, le, re)
	}
}

func (p *parser) primary() (deferred, error) {
	t := p.peek()
	switch {
	case t.kind == tkNumber:
		p.next()
		if strings.Contains(t.raw, ".") {
			parts := strings.SplitN(t.raw, ".", 2)
			whole, err := strconv.ParseInt(parts[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.raw)
			}
			frac := parts[1] + "00"
			cents, err := strconv.ParseInt(frac[:2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.raw)
			}
			v := whole*100 + cents
			return constDeferred(&plan.ConstDec{V: rt.I128FromInt64(v)}), nil
		}
		v, err := strconv.ParseInt(t.raw, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.raw)
		}
		return constDeferred(&plan.ConstInt{Ty: qir.I64, V: v}), nil
	case t.kind == tkString:
		p.next()
		return constDeferred(&plan.ConstStr{V: t.raw}), nil
	case t.kind == tkPunct && t.text == "(":
		p.next()
		e, err := p.parseExprDeferred()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tkPunct && t.text == "-":
		p.next()
		e, err := p.primary()
		if err != nil {
			return nil, err
		}
		return func(b *binding) (plan.Expr, error) {
			x, err := e(b)
			if err != nil {
				return nil, err
			}
			var zero plan.Expr
			switch x.Type() {
			case qir.I128:
				zero = &plan.ConstDec{V: rt.I128{}}
			case qir.F64:
				zero = &plan.ConstFloat{V: 0}
			default:
				zero = &plan.ConstInt{Ty: x.Type(), V: 0}
			}
			return plan.NewArith(plan.OpSub, zero, x)
		}, nil
	case t.kind == tkIdent && t.text == "CASE":
		p.next()
		if err := p.expect("WHEN"); err != nil {
			return nil, err
		}
		cond, err := p.parseExprDeferred()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExprDeferred()
		if err != nil {
			return nil, err
		}
		if err := p.expect("ELSE"); err != nil {
			return nil, err
		}
		el, err := p.parseExprDeferred()
		if err != nil {
			return nil, err
		}
		if err := p.expect("END"); err != nil {
			return nil, err
		}
		return func(b *binding) (plan.Expr, error) {
			ce, err := cond(b)
			if err != nil {
				return nil, err
			}
			te, err := th(b)
			if err != nil {
				return nil, err
			}
			ee, err := el(b)
			if err != nil {
				return nil, err
			}
			te, ee, err = coercePair(te, ee)
			if err != nil {
				return nil, err
			}
			return &plan.Case{Cond: ce, Then: te, Else: ee}, nil
		}, nil
	case t.kind == tkIdent && t.text == "CAST":
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		e, err := p.parseExprDeferred()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AS"); err != nil {
			return nil, err
		}
		if to := p.next(); to.kind != tkIdent || !strings.EqualFold(to.raw, "BIGINT") {
			return nil, fmt.Errorf("sql: CAST to %q: BIGINT is the only type CAST converts to", to.raw+to.text)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return func(b *binding) (plan.Expr, error) {
			x, err := e(b)
			if err != nil {
				return nil, err
			}
			if !x.Type().IsInt() {
				return nil, fmt.Errorf("sql: CAST of %s to BIGINT", x.Type())
			}
			if x.Type() == qir.I64 {
				return x, nil
			}
			return &plan.Cast{E: x, To: qir.I64}, nil
		}, nil
	case t.kind == tkIdent:
		p.next()
		name := t.raw
		return func(b *binding) (plan.Expr, error) {
			idx, ty, ok := b.lookup(name)
			if !ok {
				return nil, fmt.Errorf("sql: unknown or ambiguous column %q", name)
			}
			return &plan.Col{Idx: idx, Ty: ty, Name: name}, nil
		}, nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q", t.raw+t.text)
}

func constDeferred(e plan.Expr) deferred {
	return func(b *binding) (plan.Expr, error) { return e, nil }
}

// Type coercion: widen integers toward I128; mix of float and int converts
// the integer side. An integer literal is never cast: coerced, it becomes a
// literal of the target type (a ConstDec for I128), and in a comparison or a
// BETWEEN one that fits the other operand's integer type takes that type
// instead of widening the other operand. Arithmetic never narrows: an I32
// column plus a literal is I64 arithmetic, which cannot overflow where the
// column's own width would.
func rank(t qir.Type) int {
	switch t {
	case qir.I1:
		return 1
	case qir.I8:
		return 2
	case qir.I16:
		return 3
	case qir.I32:
		return 4
	case qir.I64:
		return 5
	case qir.I128:
		return 6
	}
	return 0
}

func coerceTo(e plan.Expr, t qir.Type) (plan.Expr, error) {
	if e.Type() == t {
		return e, nil
	}
	if c, ok := e.(*plan.ConstInt); ok && t.IsInt() {
		return intLit(c.V, t), nil
	}
	if e.Type().IsInt() && (t.IsInt() || t == qir.F64) {
		return &plan.Cast{E: e, To: t}, nil
	}
	return nil, fmt.Errorf("sql: cannot convert %s to %s", e.Type(), t)
}

func coercePair(l, r plan.Expr) (plan.Expr, plan.Expr, error) {
	lt, rt_ := l.Type(), r.Type()
	if lt == rt_ {
		return l, r, nil
	}
	switch {
	case lt.IsInt() && rt_.IsInt():
		if rank(lt) < rank(rt_) {
			le, err := coerceTo(l, rt_)
			return le, r, err
		}
		re, err := coerceTo(r, lt)
		return l, re, err
	case lt == qir.F64 && rt_.IsInt():
		re, err := coerceTo(r, qir.F64)
		return l, re, err
	case rt_ == qir.F64 && lt.IsInt():
		le, err := coerceTo(l, qir.F64)
		return le, r, err
	}
	return nil, nil, fmt.Errorf("sql: incompatible types %s and %s", lt, rt_)
}

// coerceCmp is coercePair for the operands of a comparison: an integer
// literal that fits the other operand's integer type takes that type.
func coerceCmp(l, r plan.Expr) (plan.Expr, plan.Expr, error) {
	if c, ok := r.(*plan.ConstInt); ok && fits(c.V, l.Type()) {
		r = intLit(c.V, l.Type())
	} else if c, ok := l.(*plan.ConstInt); ok && fits(c.V, r.Type()) {
		l = intLit(c.V, r.Type())
	}
	return coercePair(l, r)
}

// fits reports whether v is a value of the integer type t.
func fits(v int64, t qir.Type) bool {
	switch t {
	case qir.I8, qir.I16, qir.I32:
		bits := 8 * t.Size()
		return v >= -1<<(bits-1) && v < 1<<(bits-1)
	case qir.I64, qir.I128:
		return true
	}
	return false
}

// intLit is the literal v of the integer type t.
func intLit(v int64, t qir.Type) plan.Expr {
	if t == qir.I128 {
		return &plan.ConstDec{V: rt.I128FromInt64(v)}
	}
	return &plan.ConstInt{Ty: t, V: v}
}
