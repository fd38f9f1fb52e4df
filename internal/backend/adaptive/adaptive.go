// Package adaptive implements Umbra's default execution strategy described
// in Sec. III-C of the paper: every function starts in the low-latency
// DirectEmit tier; once it has proven hot, a simple code-size heuristic
// estimates whether optimized compilation pays off, and if so the module is
// recompiled with the LLVM-optimized back-end and subsequent calls use the
// optimized code. Morsel-driven execution makes the function-level switch
// safe — each call processes a bounded chunk.
//
// Hotness is measured in executed VM instructions, not raw call counts: a
// function called three times over a million-row morsel promotes, a trivial
// helper called a thousand times does not. This is the cheap, accurate
// hot-path identification that Ma et al. (PAPERS.md) identify as the
// precondition for JIT paying off.
package adaptive

import (
	"qcc/internal/backend"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/lbe"
	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/vt"
)

// statPromotions counts tier switches process-wide; per-run counts land in
// Stats under "tier_promotions".
var statPromotions = obs.NewCounter("adaptive.tier_promotions")

// Engine is the adaptive two-tier back-end (vx64 only, like DirectEmit).
type Engine struct {
	// HotThreshold is the executed-instruction total a function must
	// accumulate in the fast tier before the promotion heuristic runs.
	HotThreshold int64
	// SizeThreshold is the minimum QIR instruction count for which
	// optimized compilation is estimated to be beneficial.
	SizeThreshold int
}

// New returns the adaptive engine with the default thresholds.
func New() *Engine { return &Engine{HotThreshold: 256, SizeThreshold: 40} }

// Name implements backend.Engine.
func (e *Engine) Name() string { return "Adaptive" }

type exec struct {
	mod  *qir.Module
	env  *backend.Env
	fast backend.Exec
	opt  backend.Exec

	// hot holds per-function executed-instruction totals, the promotion
	// heuristic's signal.
	hot       []int64
	threshold int64
	sizeOK    []bool
	// Promotions counts tier switches (observable in tests/examples).
	Promotions int
	stats      *backend.Stats
}

// Compile implements backend.Engine.
func (e *Engine) Compile(mod *qir.Module, env *backend.Env) (backend.Exec, *backend.Stats, error) {
	if env.Arch != vt.VX64 {
		return nil, nil, &backend.ErrUnsupported{Backend: "adaptive", Reason: "DirectEmit tier is vx64-only"}
	}
	fast, stats, err := direct.New().Compile(mod, env)
	if err != nil {
		return nil, nil, err
	}
	x := &exec{
		mod: mod, env: env, fast: fast,
		hot:       make([]int64, len(mod.Funcs)),
		sizeOK:    make([]bool, len(mod.Funcs)),
		threshold: e.HotThreshold,
		stats:     stats,
	}
	for i, f := range mod.Funcs {
		x.sizeOK[i] = f.NumInstrs() >= e.SizeThreshold
	}
	return x, stats, nil
}

// Footprint reports the heap held by the tiers compiled so far
// (backend.FootprintOf). A later promotion adds the optimized module.
func (x *exec) Footprint() int64 {
	n := backend.FootprintOf(x.fast)
	if x.opt != nil {
		n += backend.FootprintOf(x.opt)
	}
	return n
}

// Call implements backend.Exec with tier switching.
func (x *exec) Call(fn int, args ...uint64) ([2]uint64, error) {
	if x.opt != nil {
		return x.opt.Call(fn, args...)
	}
	if x.hot[fn] >= x.threshold && x.sizeOK[fn] {
		// Promote: compile the module with the optimizing tier. (The
		// paper does this on a background thread; we compile inline,
		// which only shifts when the cost is paid.)
		opt, ostats, err := lbe.NewOpt().Compile(x.mod, x.env)
		if err == nil {
			x.opt = opt
			x.Promotions++
			statPromotions.Inc()
			x.stats.Count("tier_promotions", 1)
			x.stats.Merge(ostats)
			return x.opt.Call(fn, args...)
		}
	}
	// Weight the call by its inclusive executed-instruction cost: the
	// machine's counter advances across the call (including callees), so
	// the delta is exactly what this invocation cost.
	before := x.env.DB.M.Executed
	res, err := x.fast.Call(fn, args...)
	x.hot[fn] += x.env.DB.M.Executed - before
	return res, err
}
