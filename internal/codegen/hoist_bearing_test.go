package codegen

import (
	"reflect"
	"slices"
	"testing"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/sa"
)

// bearingCase is a hand-built setup function f(state ptr, x i64) over a
// 64-byte state block whose literals the hoisting pass has to classify. No
// plan the generator emits today has a range-load-bearing literal, so these
// are the only inputs on which a literal stays inline.
type bearingCase struct {
	name string
	// build emits the body and returns the hoist candidates in emission
	// order.
	build func(b *qir.Builder) []qir.Value
	// pooled says, per candidate, whether it may move to the constant pool.
	pooled []bool
}

var bearingCases = []bearingCase{
	{
		// idx = x & 7 bounds the offset to [0,56]: the 8-byte load stays
		// inside the 64 state bytes only while the mask is a known 7.
		name: "mask-bounds-index",
		build: func(b *qir.Builder) []qir.Value {
			lit := b.ConstInt(qir.I64, 7)
			idx := b.Bin(qir.OpAnd, b.Param(1), lit)
			b.Load(qir.I64, b.GEP(b.Param(0), 0, idx, 8))
			b.Ret(qir.NoValue)
			return []qir.Value{lit}
		},
		pooled: []bool{false},
	},
	{
		// The literal never flows into the address; it reaches the load only
		// as the bound of the dominating `x u< 8` branch, which pins x to
		// [0,7] in the block that loads state[x*8].
		name: "bound-through-branch",
		build: func(b *qir.Builder) []qir.Value {
			lit := b.ConstInt(qir.I64, 8)
			in, out := b.NewBlock(), b.NewBlock()
			b.CondBr(b.ICmp(qir.CmpULT, b.Param(1), lit), in, out)
			b.SetBlock(in)
			b.Load(qir.I64, b.GEP(b.Param(0), 0, b.Param(1), 8))
			b.Br(out)
			b.SetBlock(out)
			b.Ret(qir.NoValue)
			return []qir.Value{lit}
		},
		pooled: []bool{false},
	},
	{
		// Two candidates: the mask is load-bearing, the addend only feeds a
		// stored value. Exactly the second moves to the pool.
		name: "one-of-two",
		build: func(b *qir.Builder) []qir.Value {
			mask := b.ConstInt(qir.I64, 7)
			idx := b.Bin(qir.OpAnd, b.Param(1), mask)
			v := b.Load(qir.I64, b.GEP(b.Param(0), 0, idx, 8))
			add := b.ConstInt(qir.I64, 1000)
			b.Store(b.GEP(b.Param(0), 8, qir.NoValue, 0), b.Bin(qir.OpAdd, v, add))
			b.Ret(qir.NoValue)
			return []qir.Value{mask, add}
		},
		pooled: []bool{false, true},
	},
	{
		// The literal is compared and stored, never near an address: one
		// analysis decides, as for every generated plan.
		name: "value-only",
		build: func(b *qir.Builder) []qir.Value {
			lit := b.ConstInt(qir.I64, 42)
			eq := b.ICmp(qir.CmpEQ, b.Load(qir.I64, b.GEP(b.Param(0), 16, qir.NoValue, 0)), lit)
			b.Store(b.GEP(b.Param(0), 24, qir.NoValue, 0), b.Convert(qir.OpZExt, qir.I64, eq))
			b.Ret(qir.NoValue)
			return []qir.Value{lit}
		},
		pooled: []bool{true},
	},
}

// compileBearing builds the case's function as the setup function of a
// one-pipeline module and runs the hoisting/elimination pass over it.
func compileBearing(bc bearingCase, opts Options) (*Compiler, *qir.Func, []qir.Value) {
	mod := qir.NewModule("bearing")
	b := qir.NewFunc(mod, "f", qir.Void, qir.Ptr, qir.I64)
	cands := bc.build(b)
	f := b.Func()
	c := &Compiler{mod: mod, opts: opts}
	if opts.Hoist {
		// Every candidate here is an integer constant; give each the plan
		// literal the generator would have emitted it for.
		lits := make([]plan.Expr, len(cands))
		for i, v := range cands {
			lits[i] = &plan.ConstInt{Ty: f.Instrs[v].Type, V: f.Instrs[v].Imm}
		}
		c.hoistCands = map[*qir.Func][]qir.Value{f: cands}
		c.hoistLits = map[*qir.Func][]plan.Expr{f: lits}
	}
	c.out = &Compiled{Module: mod, StateSize: 64,
		Pipelines: []Pipeline{{SetupFn: 0, MainFn: -1, CleanupFn: -1, MergeFn: -1}}}
	c.hoistAndEliminate(nil)
	return c, f, cands
}

func uncheckedSet(f *qir.Func) []qir.Value {
	var out []qir.Value
	for v := range f.Instrs {
		if f.Instrs[v].Unchecked() {
			out = append(out, qir.Value(v))
		}
	}
	return out
}

func countSafe(accs []sa.Access) int {
	n := 0
	for i := range accs {
		if accs[i].Safe {
			n++
		}
	}
	return n
}

// oldClassifyHoists is the classifier by hypothetical widening that the
// reachability rule replaced, kept as the oracle: a literal may be hoisted only
// if the analysis proves as many accesses safe with it widened as with every
// literal inline — baseline, all widened, then greedy per candidate, each a
// standalone analysis of the unrewritten function.
func oldClassifyHoists(f *qir.Func, facts func() *sa.Facts, cands []qir.Value) []qir.Value {
	elimCount := func(wide []qir.Value) int {
		ft := facts()
		ft.WideConsts = wide
		return countSafe(sa.Analyze(f, ft).Accesses())
	}
	base := elimCount(nil)
	if elimCount(cands) == base {
		return cands
	}
	var cur, hoist []qir.Value
	for _, v := range cands {
		cur = append(cur, v)
		if elimCount(cur) < base {
			cur = cur[:len(cur)-1]
			continue
		}
		hoist = append(hoist, v)
	}
	return hoist
}

// TestRangeLoadBearingLiterals: a literal whose widening would lose an
// eliminated check stays inline, the others are pooled, the unchecked marks
// equal those of the all-inline compile, the decisions equal the old
// classifier's, and the function is analysed a second time only when a
// literal stayed inline.
func TestRangeLoadBearingLiterals(t *testing.T) {
	for _, bc := range bearingCases {
		t.Run(bc.name, func(t *testing.T) {
			_, inline, _ := compileBearing(bc, Options{Elim: true})
			want := uncheckedSet(inline)
			if len(want) == 0 {
				t.Fatal("the all-inline compile eliminated no check; the case proves nothing")
			}

			analyzed0 := obsFuncsAnalyzed.Load()
			c, f, cands := compileBearing(bc, Options{Elim: true, Hoist: true})
			analyzed := obsFuncsAnalyzed.Load() - analyzed0
			if err := c.mod.VerifyModule(); err != nil {
				t.Fatal(err)
			}

			var pooled []qir.Value
			for i, v := range cands {
				isPool := f.Instrs[v].Op == qir.OpConstPool
				if isPool != bc.pooled[i] {
					t.Errorf("candidate %d (%%%d): pooled=%v, want %v", i, v, isPool, bc.pooled[i])
				}
				if isPool {
					pooled = append(pooled, v)
				}
			}
			if got := uncheckedSet(f); !reflect.DeepEqual(got, want) {
				t.Errorf("unchecked marks %v, the all-inline compile marks %v", got, want)
			}
			h := c.out.Hoist
			if h.Candidates != len(cands) || h.Hoisted != len(pooled) || h.KeptInline != len(cands)-len(pooled) ||
				f.Prov.Hoisted != h.Hoisted || f.Prov.KeptInline != h.KeptInline {
				t.Errorf("stats %+v / prov %d hoisted %d inline, want %d of %d hoisted",
					h, f.Prov.Hoisted, f.Prov.KeptInline, len(pooled), len(cands))
			}
			// What a cache of compiled programs goes by: a pooled literal is
			// reported against its slot, a load-bearing one as compiled in.
			var wantPool, wantInline []plan.Expr
			for i, lit := range c.hoistLits[f] {
				if bc.pooled[i] {
					wantPool = append(wantPool, lit)
				} else {
					wantInline = append(wantInline, lit)
				}
			}
			if !slices.Equal(c.out.PoolLits, wantPool) || !slices.Equal(c.out.InlineLits, wantInline) {
				t.Errorf("reported pooled %v inline %v, want %v and %v", c.out.PoolLits, c.out.InlineLits, wantPool, wantInline)
			}
			for s, lit := range c.out.PoolLits {
				if pc, _ := PoolConstOf(lit); pc != c.mod.Pool[s] {
					t.Errorf("slot %d holds %+v, its literal encodes as %+v", s, c.mod.Pool[s], pc)
				}
			}
			if want := 1 + min(1, len(cands)-len(pooled)); analyzed != int64(want) {
				t.Errorf("%d analyses with %d of %d literals inline, want %d", analyzed, len(cands)-len(pooled), len(cands), want)
			}

			// The oracle classifies a fresh, unrewritten copy.
			oc, of, ocands := compileBearing(bc, Options{})
			old := oldClassifyHoists(of, func() *sa.Facts { return oc.out.factsFor(0, nil, nil) }, ocands)
			if !reflect.DeepEqual(old, pooled) && (len(old) != 0 || len(pooled) != 0) {
				t.Errorf("pooled %v, the old classifier hoists %v", pooled, old)
			}
		})
	}
}
