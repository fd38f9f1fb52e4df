package cbe

import (
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/pcc"
	"qcc/internal/codegen"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// TestRendersOnlyMissedUnits: through the code cache, a module whose units
// are cached but for k of its n functions renders exactly those k as C —
// c_source_bytes is the length of their C and nothing else — on the
// sequential and the parallel driver. Uncached, it renders all n, which
// GenerateC prints as one translation unit.
func TestRendersOnlyMissedUnits(t *testing.T) {
	db := rt.NewDB(vm.New(vm.Config{Arch: vt.VX64, MemSize: 64 << 20}))
	cat := rt.NewCatalog(db)
	tab := cat.CreateTable("t", 16, rt.ColSpec{Name: "x", Type: qir.I64}, rt.ColSpec{Name: "s", Type: qir.Str})
	for i := int64(0); i < 16; i++ {
		cat.SetInt(tab.MustCol("x"), i, i%5)
		cat.SetStr(tab.MustCol("s"), i, "a-string-longer-than-twelve")
	}
	cols := []plan.ColInfo{{Name: "x", Type: qir.I64}, {Name: "s", Type: qir.Str}}
	x := &plan.Col{Idx: 0, Ty: qir.I64}
	node := &plan.Sort{Keys: []plan.SortKey{{E: &plan.Col{Idx: 0, Ty: qir.I64}}}, Input: &plan.GroupBy{
		Input: &plan.Select{Input: &plan.Scan{Table: "t", Cols: cols},
			Pred: &plan.Cmp{Op: plan.CmpGT, L: x, R: &plan.ConstInt{Ty: qir.I64, V: 1}}},
		Keys: []plan.Expr{x}, Names: []string{"x"},
		Aggs: []plan.AggExpr{{Fn: plan.AggSum, Arg: x, Name: "sx"}, {Fn: plan.AggCount, Name: "n"}}}}
	c, err := codegen.Compile("q", node, cat)
	if err != nil {
		t.Fatal(err)
	}
	mod := c.Module
	env := &backend.Env{DB: db, Arch: vt.VX64}
	cBytes := func(funcs []int) int64 {
		var n int64
		for _, i := range funcs {
			src, err := funcC(mod.Funcs[i], env)
			if err != nil {
				t.Fatal(err)
			}
			n += int64(len(src))
		}
		return n
	}
	var all []int
	for i := range mod.Funcs {
		all = append(all, i)
	}
	if len(all) < 3 {
		t.Fatalf("the module has %d functions, want a few", len(all))
	}
	_, st, err := New().Compile(mod, env)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Counters["c_source_bytes"], cBytes(all); got != want {
		t.Fatalf("uncached: c_source_bytes %d, want %d, the C of all %d functions", got, want, len(all))
	}
	// The whole translation unit is a header and each function's C, each
	// followed by a blank line.
	unit, err := GenerateC(mod, env)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(len(unit)), int64(len("/* generated by qcc */\n")+len(all))+cBytes(all); got != want {
		t.Errorf("GenerateC: %d bytes, want %d", got, want)
	}
	for _, jobs := range []int{1, 2} {
		cache := pcc.NewCache(0)
		eng := pcc.Wrap(New(), pcc.Config{Jobs: jobs, Cache: cache})
		if _, _, err := eng.Compile(mod, env); err != nil {
			t.Fatal(err)
		}
		// Change one constant in every other function: those, and only
		// those, miss.
		var missed []int
		for i, f := range mod.Funcs {
			if i%2 == 1 {
				continue
			}
			for v := range f.Instrs {
				if in := &f.Instrs[v]; in.Op == qir.OpConst && in.Type == qir.I64 {
					in.Imm += 1000
					missed = append(missed, i)
					break
				}
			}
		}
		_, st, err := eng.Compile(mod, env)
		if err != nil {
			t.Fatal(err)
		}
		if m := st.Counters["cache_misses"]; m != int64(len(missed)) || len(missed) == 0 {
			t.Fatalf("jobs %d: %d misses, want %d", jobs, m, len(missed))
		}
		if got, want := st.Counters["c_source_bytes"], cBytes(missed); got != want {
			t.Errorf("jobs %d: c_source_bytes %d, want %d, the C of the %d missed functions of %d",
				jobs, got, want, len(missed), len(all))
		}
		for _, i := range missed {
			for v := range mod.Funcs[i].Instrs {
				if in := &mod.Funcs[i].Instrs[v]; in.Op == qir.OpConst && in.Type == qir.I64 {
					in.Imm -= 1000
					break
				}
			}
		}
	}
}
