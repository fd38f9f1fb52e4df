package plan

import (
	"bytes"
	"testing"

	"qcc/internal/qir"
	"qcc/internal/rt"
)

// fpPlan is a plan with one of everything the fingerprint has to cover; the
// arguments are its literal values and a knob per non-literal property.
type fpKnobs struct {
	lim    int64
	table  string
	colIdx int
	cmp    CmpOp
	agg    AggFn
	desc   bool
	litTy  qir.Type
	name   string
}

func fpPlan(i int64, d int64, f float64, s, pat string, k fpKnobs) Node {
	sc := &Scan{Table: k.table, Cols: schema(), Filter: &Logic{Op: OpAnd,
		L: &Cmp{Op: k.cmp, L: &Col{Idx: k.colIdx, Ty: k.litTy, Name: k.name}, R: &ConstInt{Ty: k.litTy, V: i}},
		R: &Like{E: &Col{Idx: 2, Ty: qir.Str}, Pattern: pat}}}
	sel := &Select{Input: sc, Pred: &Logic{Op: OpOr,
		L: &Cmp{Op: CmpEQ, L: &Col{Idx: 2, Ty: qir.Str}, R: &ConstStr{V: s}},
		R: &Cmp{Op: CmpLT, L: &Cast{E: &Col{Idx: 0, Ty: qir.I64}, To: qir.F64}, R: &ConstFloat{V: f}}}}
	g := &GroupBy{Input: sel, Keys: []Expr{&Col{Idx: 2, Ty: qir.Str}}, Names: []string{k.name},
		Aggs: []AggExpr{{Fn: AggCount}, {Fn: k.agg, Arg: &Arith{Op: OpMul, L: &Col{Idx: 3, Ty: qir.I128}, R: &ConstDec{V: rt.I128FromInt64(d)}}, Name: k.name}}}
	return &Limit{Input: &Sort{Input: g, Keys: []SortKey{{E: &Col{Idx: 1, Ty: qir.I64}, Desc: k.desc}}}, N: k.lim}
}

func fpOf(t *testing.T, n Node) *Fingerprint {
	t.Helper()
	fp := &Fingerprint{}
	if !fp.Write(n) {
		t.Fatal("plan has no fingerprint")
	}
	return fp
}

func TestFingerprintMasksLiteralValuesOnly(t *testing.T) {
	base := fpKnobs{lim: 10, table: "t", colIdx: 0, cmp: CmpGT, agg: AggSum, litTy: qir.I64, name: "a"}
	ref := fpOf(t, fpPlan(1, 2, 3.5, "x", "%y%", base))
	if len(ref.Lits) != 5 || len(ref.Tables) != 1 || ref.Tables[0] != "t" {
		t.Fatalf("%d literals, tables %v; want 5 literals of table t", len(ref.Lits), ref.Tables)
	}
	// Traversal order: the scan filter's integer and pattern, the select's
	// string and float, the aggregate's decimal.
	if _, ok := ref.Lits[0].(*ConstInt); !ok {
		t.Errorf("literal 0 is %T", ref.Lits[0])
	}
	if l, ok := ref.Lits[1].(*Like); !ok || l.Pattern != "%y%" {
		t.Errorf("literal 1 is %v", ref.Lits[1])
	}
	if _, ok := ref.Lits[4].(*ConstDec); !ok {
		t.Errorf("literal 4 is %T", ref.Lits[4])
	}

	same := func(name string, n Node) {
		if fp := fpOf(t, n); !bytes.Equal(fp.Key, ref.Key) {
			t.Errorf("%s changes the key", name)
		}
	}
	same("other literal values", fpPlan(-7, 1<<40, -0.25, "a much longer string than before", "_", base))
	renamed := base
	renamed.name = "b"
	same("output and column names", fpPlan(1, 2, 3.5, "x", "%y%", renamed))

	differs := func(name string, k fpKnobs) {
		if fp := fpOf(t, fpPlan(1, 2, 3.5, "x", "%y%", k)); bytes.Equal(fp.Key, ref.Key) {
			t.Errorf("%s does not change the key", name)
		}
	}
	for name, edit := range map[string]func(*fpKnobs){
		"Limit.N":        func(k *fpKnobs) { k.lim = 5 },
		"the table":      func(k *fpKnobs) { k.table = "u" },
		"a column index": func(k *fpKnobs) { k.colIdx = 1 },
		"a comparison":   func(k *fpKnobs) { k.cmp = CmpGE },
		"an aggregate":   func(k *fpKnobs) { k.agg = AggMin },
		"sort direction": func(k *fpKnobs) { k.desc = true },
		"a literal type": func(k *fpKnobs) { k.litTy = qir.I32 },
	} {
		k := base
		edit(&k)
		differs(name, k)
	}
}

func TestFingerprintSharedLiteral(t *testing.T) {
	lit := &ConstInt{Ty: qir.I64, V: 3}
	col := &Col{Idx: 0, Ty: qir.I64}
	shared := &Select{Input: scan(), Pred: &Logic{Op: OpAnd,
		L: &Cmp{Op: CmpGT, L: col, R: lit}, R: &Cmp{Op: CmpLT, L: col, R: lit}}}
	apart := &Select{Input: scan(), Pred: &Logic{Op: OpAnd,
		L: &Cmp{Op: CmpGT, L: col, R: &ConstInt{Ty: qir.I64, V: 3}}, R: &Cmp{Op: CmpLT, L: col, R: &ConstInt{Ty: qir.I64, V: 3}}}}
	a, b := fpOf(t, shared), fpOf(t, apart)
	if len(a.Lits) != 1 || len(b.Lits) != 2 {
		t.Errorf("%d and %d literals listed, want 1 (shared node) and 2", len(a.Lits), len(b.Lits))
	}
	if bytes.Equal(a.Key, b.Key) {
		t.Error("one literal used twice and two equal literals share a key: the second plan's literals can diverge")
	}
	if i, ok := a.Ordinal(lit); !ok || i != 0 {
		t.Errorf("Ordinal of the shared literal = %d %v", i, ok)
	}
	if _, ok := a.Ordinal(&ConstInt{Ty: qir.I64, V: 3}); ok {
		t.Error("Ordinal finds a node that is not in the plan")
	}
}

// A long statement with shared literals: ordinals follow traversal order.
func TestFingerprintManyLiterals(t *testing.T) {
	var pred Expr
	var lits []Expr
	for i := 0; i < 100; i++ {
		l := &ConstInt{Ty: qir.I64, V: int64(i)}
		lits = append(lits, l)
		var c Expr = &Cmp{Op: CmpNE, L: &Col{Idx: 0, Ty: qir.I64}, R: l}
		if i%10 == 9 {
			c = &Logic{Op: OpAnd, L: c, R: &Cmp{Op: CmpNE, L: &Col{Idx: 0, Ty: qir.I64}, R: lits[i-5]}} // shared
		}
		if pred == nil {
			pred = c
		} else {
			pred = &Logic{Op: OpAnd, L: pred, R: c}
		}
	}
	fp := fpOf(t, &Select{Input: scan(), Pred: pred})
	if len(fp.Lits) != 100 {
		t.Fatalf("%d literals, want 100", len(fp.Lits))
	}
	for i, l := range lits {
		if got, ok := fp.Ordinal(l); !ok || got != i {
			t.Errorf("Ordinal(literal %d) = %d %v", i, got, ok)
		}
	}
}

type strangeExpr struct{}

func (strangeExpr) Type() qir.Type { return qir.I1 }
func (strangeExpr) String() string { return "?" }

func TestFingerprintRefusesUnknownAndReuses(t *testing.T) {
	fp := &Fingerprint{}
	if fp.Write(&Select{Input: scan(), Pred: strangeExpr{}}) {
		t.Error("a plan with an expression type the package does not define got a fingerprint")
	}
	n := fpPlan(1, 2, 3.5, "x", "%y%", fpKnobs{lim: 10, table: "t", cmp: CmpGT, agg: AggSum, litTy: qir.I64})
	fp.Reset()
	if !fp.Write(n) {
		t.Fatal("Reset does not clear the refusal")
	}
	key := append([]byte(nil), fp.Key...)
	if allocs := testing.AllocsPerRun(20, func() {
		fp.Reset()
		fp.Write(n)
	}); allocs != 0 {
		t.Errorf("a reused fingerprint allocates %v times per plan", allocs)
	}
	if !bytes.Equal(fp.Key, key) {
		t.Error("the key changes between writes of one plan")
	}
}
