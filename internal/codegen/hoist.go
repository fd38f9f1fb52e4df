package codegen

import (
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

var (
	obsHoistCands = obs.NewCounter("hoist.candidates")
	obsHoisted    = obs.NewCounter("hoist.hoisted")
	obsKeptInline = obs.NewCounter("hoist.kept_inline")
	obsHoistSlots = obs.NewCounter("hoist.pool_slots")
)

// HoistStats summarizes the constant-hoisting pass over one module.
type HoistStats struct {
	// Enabled records whether the pass ran at all.
	Enabled bool
	// Candidates is the number of user literals considered.
	Candidates int
	// Hoisted is how many were moved to the constant pool.
	Hoisted int
	// KeptInline is how many stayed inline because their value can reach a
	// memory address, where it may be what proves a check redundant (the
	// literal is range-load-bearing), or because the pool was full.
	KeptInline int
	// PoolSlots is the number of pool slots the module uses.
	PoolSlots int
}

// poolLiterals rewrites the candidates of f listed in pool into
// constant-pool loads and tallies the decisions; the others stay inline. It
// reports whether every member of pool was rewritten — rewriteToPool refuses
// when the pool is full. Either way the candidate's plan literal is reported:
// in Compiled.PoolLits against its new slot, or in Compiled.InlineLits.
//
// Hoisting turns the compiled body into a parameterized plan: modules that
// differ only in literal values produce identical function bodies and
// therefore share entries in the content-addressed code cache, with the
// actual values bound into pool slots at execution time.
func (c *Compiler) poolLiterals(f *qir.Func, cands, pool []qir.Value, stats *HoistStats) bool {
	lits := c.hoistLits[f]
	all := true
	for i, v := range cands {
		ord := c.ncands
		c.ncands++
		// pool is a subsequence of cands, so one cursor finds its members.
		if len(pool) > 0 && pool[0] == v {
			pool = pool[1:]
			if c.rewriteToPool(f, v, lits[i]) {
				c.slotCands = append(c.slotCands, ord)
				stats.Hoisted++
				f.Prov.Hoisted++
				continue
			}
			all = false
		}
		c.out.InlineLits = append(c.out.InlineLits, lits[i])
		stats.KeptInline++
		f.Prov.KeptInline++
	}
	return all
}

// rewriteToPool replaces literal instruction v, emitted for plan literal lit,
// with a constant-pool load, allocating the next module pool slot. Returns
// false when the pool is full: the literal stays inline — a performance
// fallback, not an error.
func (c *Compiler) rewriteToPool(f *qir.Func, v qir.Value, lit plan.Expr) bool {
	if len(c.mod.Pool) >= rt.ConstPoolSlots {
		return false
	}
	pc, ok := PoolConstOf(lit)
	if !ok {
		return false
	}
	in := &f.Instrs[v]
	if in.Op == qir.OpConst128 {
		// Zero the orphaned literal words: f.I128 is hashed in full by the
		// cache unit key, and the whole point of hoisting is that the
		// hashed body no longer depends on the literal's value.
		f.I128[2*in.Imm], f.I128[2*in.Imm+1] = 0, 0
	}
	// A string's interned copy in mod.Strings stays behind (harmlessly — the
	// unit key only hashes string table entries still referenced by an
	// OpConstStr instruction); the pool slot carries the value.
	slot := c.mod.AddPoolConst(pc)
	c.out.PoolLits = append(c.out.PoolLits, lit)
	*in = qir.Instr{Op: qir.OpConstPool, Type: pc.Type, A: qir.NoValue, B: qir.NoValue, C: qir.NoValue, Imm: slot}

	// Relocate the pool load to the entry block, just before its terminator.
	// Literals typically sit in hot scan loops; the load is loop-invariant by
	// construction (the slot address is compile-time fixed and the value
	// cannot change mid-query), so executing it once per function call
	// instead of once per row removes the indirection from the row loop. A
	// def already in the entry block stays put: the entry runs once anyway,
	// and moving it past a same-block use would break scheduling. For defs
	// in later blocks no use can sit in the entry (SSA: the def's block
	// dominates every use, and nothing but the entry dominates the entry).
	for b := 1; b < len(f.Blocks); b++ {
		list := f.Blocks[b].List
		for i, lv := range list {
			if lv != v {
				continue
			}
			f.Blocks[b].List = append(list[:i], list[i+1:]...)
			entry := &f.Blocks[0]
			n := len(entry.List)
			entry.List = append(entry.List, v)
			entry.List[n-1], entry.List[n] = v, entry.List[n-1]
			return true
		}
	}
	return true
}
