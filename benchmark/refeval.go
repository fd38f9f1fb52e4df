package main

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"qcc/internal/qir"
	"qcc/internal/rt"
)

// shape is a single-table aggregation: conjunctive column-vs-constant
// predicates, at most two group keys, and SUM/COUNT/MIN/MAX/AVG aggregates.
// The statement generator renders shapes to SQL text and the reference
// evaluator computes their result straight from the catalog, sharing no code
// with the compiler under test (arithmetic is math/big, not rt.I128).
type shape struct {
	Table string
	Preds []pred
	Keys  []string
	Aggs  []agg
}

// pred compares a column with a constant; Op is one of < <= > >= =.
type pred struct {
	Col   string
	Op    string
	Int   int64
	Str   string
	IsStr bool
}

// agg is one aggregate. Arg is ignored for COUNT, which counts rows.
type agg struct {
	Fn  string // SUM, COUNT, MIN, MAX, AVG
	Arg argExpr
}

// argExpr is Col, Col*Times, or Col*(Complement-Times) when Complement is
// non-zero — enough for TPC-H's revenue and discount expressions.
type argExpr struct {
	Col        string
	Times      string
	Complement int64
}

func (a argExpr) sql() string {
	switch {
	case a.Times == "":
		return a.Col
	case a.Complement != 0:
		return fmt.Sprintf("%s * (%d - %s)", a.Col, a.Complement, a.Times)
	}
	return a.Col + " * " + a.Times
}

// sql renders the shape as a statement the repo's SQL front end accepts.
func (s shape) sql() string {
	var items []string
	items = append(items, s.Keys...)
	for _, a := range s.Aggs {
		if a.Fn == "COUNT" {
			items = append(items, "COUNT(*)")
		} else {
			items = append(items, a.Fn+"("+a.Arg.sql()+")")
		}
	}
	var sb strings.Builder
	sb.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + s.Table)
	for i, p := range s.Preds {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		if p.IsStr {
			fmt.Fprintf(&sb, "%s %s '%s'", p.Col, p.Op, p.Str)
		} else {
			fmt.Fprintf(&sb, "%s %s %d", p.Col, p.Op, p.Int)
		}
	}
	if len(s.Keys) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(s.Keys, ", "))
	}
	return sb.String()
}

// colReader reads one column's value at a row as a big integer or a string.
type colReader struct {
	cat *rt.Catalog
	col *rt.Column
}

func (c colReader) isStr() bool { return c.col.Type == qir.Str }

func (c colReader) num(row int64) *big.Int {
	if c.col.Type == qir.I128 {
		v := c.cat.GetI128(c.col, row)
		// Two's complement {Lo, Hi} to a signed big integer.
		b := new(big.Int).SetUint64(v.Hi)
		b.Lsh(b, 64).Or(b, new(big.Int).SetUint64(v.Lo))
		if int64(v.Hi) < 0 {
			b.Sub(b, new(big.Int).Lsh(big.NewInt(1), 128))
		}
		return b
	}
	return big.NewInt(c.cat.GetInt(c.col, row))
}

func (c colReader) str(row int64) (string, error) { return c.cat.GetStr(c.col, row) }

// refEval evaluates s over cat and returns the canonical result lines.
func refEval(cat *rt.Catalog, s shape) ([]string, error) {
	t, err := cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	reader := func(name string) (colReader, error) {
		c, err := t.Col(name)
		return colReader{cat, c}, err
	}
	type predCol struct {
		pred
		r colReader
	}
	preds := make([]predCol, len(s.Preds))
	for i, p := range s.Preds {
		r, err := reader(p.Col)
		if err != nil {
			return nil, err
		}
		if r.isStr() != p.IsStr {
			return nil, fmt.Errorf("refeval: predicate on %s has the wrong constant type", p.Col)
		}
		preds[i] = predCol{p, r}
	}
	keys := make([]colReader, len(s.Keys))
	for i, k := range s.Keys {
		if keys[i], err = reader(k); err != nil {
			return nil, err
		}
	}
	type aggCols struct{ col, times colReader }
	args := make([]aggCols, len(s.Aggs))
	for i, a := range s.Aggs {
		if a.Fn == "COUNT" {
			continue
		}
		if args[i].col, err = reader(a.Arg.Col); err != nil {
			return nil, err
		}
		if a.Arg.Times != "" {
			if args[i].times, err = reader(a.Arg.Times); err != nil {
				return nil, err
			}
		}
	}

	type group struct {
		key   string
		count int64
		acc   []*big.Int // running sum, or current min/max
	}
	groups := map[string]*group{}
	for row := int64(0); row < t.Rows; row++ {
		keep := true
		for _, p := range preds {
			var c int
			if p.IsStr {
				v, err := p.r.str(row)
				if err != nil {
					return nil, err
				}
				c = strings.Compare(v, p.Str)
			} else {
				c = p.r.num(row).Cmp(big.NewInt(p.Int))
			}
			switch p.Op {
			case "<":
				keep = c < 0
			case "<=":
				keep = c <= 0
			case ">":
				keep = c > 0
			case ">=":
				keep = c >= 0
			case "=":
				keep = c == 0
			default:
				return nil, fmt.Errorf("refeval: bad operator %q", p.Op)
			}
			if !keep {
				break
			}
		}
		if !keep {
			continue
		}
		parts := make([]string, len(keys))
		for i, k := range keys {
			if k.isStr() {
				if parts[i], err = k.str(row); err != nil {
					return nil, err
				}
			} else {
				parts[i] = k.num(row).String()
			}
		}
		key := strings.Join(parts, "|")
		g := groups[key]
		if g == nil {
			g = &group{key: key, acc: make([]*big.Int, len(s.Aggs))}
			groups[key] = g
		}
		g.count++
		for i, a := range s.Aggs {
			if a.Fn == "COUNT" {
				continue
			}
			v := args[i].col.num(row)
			if a.Arg.Times != "" {
				f := args[i].times.num(row)
				if a.Arg.Complement != 0 {
					f = new(big.Int).Sub(big.NewInt(a.Arg.Complement), f)
				}
				v = new(big.Int).Mul(v, f)
			}
			switch cur := g.acc[i]; {
			case cur == nil:
				g.acc[i] = v
			case a.Fn == "SUM" || a.Fn == "AVG":
				cur.Add(cur, v)
			case a.Fn == "MIN" && v.Cmp(cur) < 0, a.Fn == "MAX" && v.Cmp(cur) > 0:
				g.acc[i] = v
			}
		}
	}

	lines := make([]string, 0, len(groups))
	for _, g := range groups {
		var parts []string
		if len(keys) > 0 {
			parts = append(parts, g.key)
		}
		for i, a := range s.Aggs {
			switch a.Fn {
			case "COUNT":
				parts = append(parts, fmt.Sprint(g.count))
			case "AVG": // integer average, truncated toward zero
				parts = append(parts, new(big.Int).Quo(g.acc[i], big.NewInt(g.count)).String())
			default:
				parts = append(parts, g.acc[i].String())
			}
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return lines, nil
}
