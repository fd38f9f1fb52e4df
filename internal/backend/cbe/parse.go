package cbe

import "fmt"

// cType is a C-subset type.
type cType uint8

// C types.
const (
	ctVoid cType = iota
	ctI1
	ctI8
	ctI16
	ctI32
	ctI64
	ctI128
	ctU64
	ctF64
	ctPtr
)

var typeNamesC = map[string]cType{
	"void": ctVoid, "i1": ctI1, "i8": ctI8, "i16": ctI16, "i32": ctI32,
	"i64": ctI64, "i128": ctI128, "u64": ctU64, "f64": ctF64, "ptr": ctPtr,
}

// isInt reports a type whose values occupy one integer register.
func (t cType) isInt() bool { return t != ctVoid && t != ctI128 && t != ctF64 }

func (t cType) bits() int {
	switch t {
	case ctI1:
		return 1
	case ctI8:
		return 8
	case ctI16:
		return 16
	case ctI32:
		return 32
	case ctI128:
		return 128
	}
	return 64
}

// Expression AST.
type ckind uint8

const (
	eNum ckind = iota
	eVar
	eBin
	eUn
	eCast
	eLoad
	eCall
	eAddr
)

type cexpr struct {
	kind ckind
	num  int64
	name string
	op   string
	ct   cType
	// unchecked marks loads whose deref type carried the __unchecked
	// qualifier: bounds/null checks were discharged at compile time.
	unchecked bool
	l, r      *cexpr
	args      []*cexpr
}

// Statement AST.
type skind uint8

const (
	sDecl skind = iota
	sAssign
	sStore
	sIfGoto
	sGoto
	sLabel
	sReturn
	sCall
	sTrap
)

type cstmt struct {
	kind      skind
	ct        cType
	unchecked bool   // __unchecked-qualified store
	name      string // var, label
	addr      *cexpr // store address
	rhs       *cexpr
}

type cparam struct {
	ct   cType
	name string
}

type cfunc struct {
	name   string
	ret    cType
	params []cparam
	body   []cstmt
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func parseUnit(toks []token) ([]*cfunc, error) {
	p := &parser{toks: toks}
	var fns []*cfunc
	for p.peek().kind != tEOF {
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		fns = append(fns, fn)
	}
	return fns, nil
}

func (p *parser) peek() token  { return p.toks[p.pos] }
func (p *parser) peek2() token { return p.toks[p.pos+1] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(text string) error {
	t := p.advance()
	if t.kind != tPunct || t.text != text {
		return fmt.Errorf("cbe: parse error at %d: expected %q, got %q", t.pos, text, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.advance()
	if t.kind != tIdent {
		return "", fmt.Errorf("cbe: parse error at %d: expected identifier", t.pos)
	}
	return t.text, nil
}

func (p *parser) isType(t token) (cType, bool) {
	if t.kind != tIdent {
		return 0, false
	}
	ct, ok := typeNamesC[t.text]
	return ct, ok
}

func (p *parser) parseFunc() (*cfunc, error) {
	ret, ok := p.isType(p.peek())
	if !ok {
		return nil, fmt.Errorf("cbe: parse error at %d: expected return type", p.peek().pos)
	}
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	fn := &cfunc{name: name, ret: ret}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for p.peek().text != ")" {
		pt, ok := p.isType(p.peek())
		if !ok {
			return nil, fmt.Errorf("cbe: parse error at %d: expected parameter type", p.peek().pos)
		}
		p.advance()
		pn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		fn.params = append(fn.params, cparam{ct: pt, name: pn})
		if p.peek().text == "," {
			p.advance()
		}
	}
	p.advance() // ')'
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	for p.peek().text != "}" {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		fn.body = append(fn.body, st...)
	}
	p.advance() // '}'
	return fn, nil
}

// parseStmt parses one statement (declarations may yield several).
func (p *parser) parseStmt() ([]cstmt, error) {
	t := p.peek()
	// Store: *(T*)(addr) = v;
	if t.kind == tPunct && t.text == "*" {
		return p.parseStore()
	}
	if t.kind != tIdent {
		return nil, fmt.Errorf("cbe: parse error at %d: unexpected %q", t.pos, t.text)
	}
	// Declaration.
	if ct, ok := p.isType(t); ok {
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []cstmt{{kind: sDecl, ct: ct, name: name}}, nil
	}
	switch t.text {
	case "if":
		p.advance()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		kw, err := p.expectIdent()
		if err != nil || kw != "goto" {
			return nil, fmt.Errorf("cbe: parse error: expected goto after if")
		}
		lbl, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []cstmt{{kind: sIfGoto, rhs: cond, name: lbl}}, nil
	case "goto":
		p.advance()
		lbl, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []cstmt{{kind: sGoto, name: lbl}}, nil
	case "return":
		p.advance()
		if p.peek().text == ";" {
			p.advance()
			return []cstmt{{kind: sReturn}}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []cstmt{{kind: sReturn, rhs: e}}, nil
	case "__trap":
		p.advance()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []cstmt{{kind: sTrap}}, nil
	}
	// Label: ident ':' ';'?
	if p.peek2().kind == tPunct && p.peek2().text == ":" {
		p.advance()
		p.advance()
		if p.peek().text == ";" {
			p.advance()
		}
		return []cstmt{{kind: sLabel, name: t.text}}, nil
	}
	// Assignment or call statement.
	name := t.text
	if p.peek2().text == "=" {
		p.advance()
		p.advance()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []cstmt{{kind: sAssign, name: name, rhs: rhs}}, nil
	}
	if p.peek2().text == "(" {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []cstmt{{kind: sCall, rhs: e}}, nil
	}
	return nil, fmt.Errorf("cbe: parse error at %d: cannot start statement with %q", t.pos, name)
}

// eatUnchecked consumes an optional __unchecked qualifier before the type
// in a deref cast and reports whether it was present.
func (p *parser) eatUnchecked() bool {
	if t := p.peek(); t.kind == tIdent && t.text == "__unchecked" {
		p.advance()
		return true
	}
	return false
}

func (p *parser) parseStore() ([]cstmt, error) {
	p.advance() // '*'
	if err := p.expect("("); err != nil {
		return nil, err
	}
	unchecked := p.eatUnchecked()
	ct, ok := p.isType(p.peek())
	if !ok {
		return nil, fmt.Errorf("cbe: parse error at %d: expected type in store", p.peek().pos)
	}
	p.advance()
	if err := p.expect("*"); err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	addr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return []cstmt{{kind: sStore, ct: ct, unchecked: unchecked, addr: addr, rhs: rhs}}, nil
}

// Expression parsing by precedence climbing.
var precOf = map[string]int{
	"|": 1, "^": 2, "&": 3,
	"==": 4, "!=": 4,
	"<": 5, "<=": 5, ">": 5, ">=": 5,
	"<<": 6, ">>": 6,
	"+": 7, "-": 7,
	"*": 8, "/": 8, "%": 8,
}

func (p *parser) parseExpr() (*cexpr, error) { return p.parseBin(1) }

func (p *parser) parseBin(minPrec int) (*cexpr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tPunct {
			return lhs, nil
		}
		prec, ok := precOf[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &cexpr{kind: eBin, op: t.text, l: lhs, r: rhs}
	}
}

func (p *parser) parseUnary() (*cexpr, error) {
	t := p.peek()
	if t.kind == tPunct {
		switch t.text {
		case "-", "~", "!":
			p.advance()
			sub, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &cexpr{kind: eUn, op: t.text, l: sub}, nil
		case "*":
			// Load: *(T*)(expr) or *(__unchecked T*)(expr)
			p.advance()
			if err := p.expect("("); err != nil {
				return nil, err
			}
			unchecked := p.eatUnchecked()
			ct, ok := p.isType(p.peek())
			if !ok {
				return nil, fmt.Errorf("cbe: parse error at %d: expected type in load", p.peek().pos)
			}
			p.advance()
			if err := p.expect("*"); err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			addr, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &cexpr{kind: eLoad, ct: ct, unchecked: unchecked, l: addr}, nil
		case "&":
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &cexpr{kind: eAddr, name: name}, nil
		case "(":
			// Cast or parenthesized expression.
			if ct, ok := p.isType(p.peek2()); ok {
				p.advance()
				p.advance()
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				sub, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &cexpr{kind: eCast, ct: ct, l: sub}, nil
			}
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	if t.kind == tNumber {
		p.advance()
		return &cexpr{kind: eNum, num: t.num}, nil
	}
	if t.kind == tIdent {
		p.advance()
		if p.peek().text == "(" {
			p.advance()
			call := &cexpr{kind: eCall, name: t.text}
			for p.peek().text != ")" {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.args = append(call.args, a)
				if p.peek().text == "," {
					p.advance()
				}
			}
			p.advance()
			return call, nil
		}
		return &cexpr{kind: eVar, name: t.text}, nil
	}
	return nil, fmt.Errorf("cbe: parse error at %d: unexpected token %q", t.pos, t.text)
}
