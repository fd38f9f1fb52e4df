// Package pcc is the parallel compilation driver: it shards a qir.Module
// into per-function compilation units, compiles them on N worker goroutines
// against any backend.FuncEngine (DirectEmit, Cranelift-like, LLVM-like,
// GCC/C-like), and links the units into a single executable. A
// content-addressed code cache (see Cache) can short-circuit compilation of
// functions whose canonical fingerprint was compiled before under the same
// target architecture and back-end configuration.
//
// Determinism is a hard contract: for any worker count the linked machine
// code is byte-identical to a sequential backend.CompileUnits run. The
// driver leans on three mechanisms for that: BeginModule performs all
// shared-state mutation up front (string interning, runtime-helper imports);
// the module and runtime DB are frozen while workers run, so a missed
// pre-interning panics instead of racing; and units are linked strictly in
// function-index order regardless of completion order.
package pcc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qcc/internal/backend"
	"qcc/internal/obs"
	"qcc/internal/qir"
)

// Config configures the driver.
type Config struct {
	// Jobs is the number of worker goroutines; <=0 selects GOMAXPROCS.
	// Jobs 1 runs the exact sequential code path (no freeze, no workers).
	Jobs int
	// Cache, when non-nil, is consulted per function before compiling and
	// updated afterwards. Back-ends whose ModuleCompiler reports an empty
	// Variant are never cached.
	Cache *Cache
	// VariantTag, when non-empty, is appended to the back-end's variant
	// string before key derivation. Callers use it to fold IR-pass
	// configuration (e.g. the check-elimination pass version) into cache
	// keys, so entries compiled under different pass semantics never
	// collide.
	VariantTag string
}

var (
	globalCacheHits   = obs.NewCounter("pcc.cache_hits")
	globalCacheMisses = obs.NewCounter("pcc.cache_misses")
	// Programs are the query path's entries (engine.World.Prepare), whose
	// other counters this one is exported beside.
	globalProgramEvictions = obs.NewCounter("engine.program_cache_evictions")
)

// Engine drives an inner FuncEngine through the parallel pipeline. Use Wrap
// to construct one.
type Engine struct {
	inner backend.FuncEngine
	cfg   Config
}

// Wrap returns eng driven by the parallel driver with the given
// configuration. Engines that do not expose the per-function pipeline
// (backend.FuncEngine) are returned unchanged — the driver has nothing to
// shard.
func Wrap(eng backend.Engine, cfg Config) backend.Engine {
	fe, ok := eng.(backend.FuncEngine)
	if !ok {
		return eng
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	return &Engine{inner: fe, cfg: cfg}
}

// Name implements backend.Engine (transparent to benchmark tables).
func (e *Engine) Name() string { return e.inner.Name() }

// Jobs returns the configured worker count.
func (e *Engine) Jobs() int { return e.cfg.Jobs }

// Compile implements backend.Engine.
func (e *Engine) Compile(mod *qir.Module, env *backend.Env) (backend.Exec, *backend.Stats, error) {
	start := time.Now()
	stats := &backend.Stats{Funcs: len(mod.Funcs)}
	ph := backend.NewPhaser(stats, env.Trace)
	mc, err := e.inner.BeginModule(mod, env, ph)
	if err != nil {
		return nil, nil, err
	}

	n := len(mod.Funcs)
	units := make([]*backend.Unit, n)

	// Cache lookups run sequentially before the parallel section (the key
	// derivation reads the runtime's string-intern table, and determinism
	// is easiest to see when the section's inputs are fixed up front).
	variant := mc.Variant()
	if variant != "" && e.cfg.VariantTag != "" {
		variant += "+" + e.cfg.VariantTag
	}
	useCache := e.cfg.Cache != nil && variant != ""
	var keys []string
	var hits, misses int64
	if useCache {
		sp := ph.Begin("Cache.Lookup")
		keys = make([]string, n)
		for i := range mod.Funcs {
			keys[i] = unitKey(env.Arch, variant, mod, env.DB, i)
			if u, ok := e.cfg.Cache.get(keys[i]); ok {
				// Shallow copy: the payload is shared (immutable by
				// contract), the index belongs to this module.
				cu := *u
				cu.Index = i
				units[i] = &cu
				hits++
			} else {
				misses++
			}
		}
		sp.End()
	}

	var todo []int
	for i := range units {
		if units[i] == nil {
			todo = append(todo, i)
		}
	}

	jobs := e.cfg.Jobs
	if jobs > len(todo) {
		jobs = len(todo)
	}
	if jobs <= 1 {
		// Sequential: identical to backend.CompileUnits over the misses.
		for _, i := range todo {
			fsp := ph.BeginGroup("func:" + mod.Funcs[i].Name)
			u, cerr := mc.CompileFunc(i, ph)
			fsp.End()
			if cerr != nil {
				return nil, nil, cerr
			}
			units[i] = u
		}
	} else if err := e.compileParallel(mod, env, mc, units, todo, jobs, ph); err != nil {
		return nil, nil, err
	}

	if useCache {
		sp := ph.Begin("Cache.Store")
		for _, i := range todo {
			e.cfg.Cache.put(keys[i], units[i])
		}
		sp.End()
		stats.Count("cache_hits", hits)
		stats.Count("cache_misses", misses)
		globalCacheHits.Add(hits)
		globalCacheMisses.Add(misses)
	}

	exec, err := mc.Link(units, ph)
	if err != nil {
		return nil, nil, err
	}
	ph.Finish()
	// Record true elapsed driver time. With jobs > 1 the per-worker phases
	// overlap, so their sum (Total) overstates elapsed time; with jobs = 1
	// the wall clock additionally covers cache lookups and scheduling, so
	// every driver configuration reports the same honest metric and worker
	// counts stay comparable.
	stats.Wall = time.Since(start)
	return exec, stats, nil
}

// compileParallel compiles the todo indices on jobs worker goroutines. The
// module and runtime DB are frozen for the duration: any interning a
// back-end failed to hoist into BeginModule panics (caught and reported)
// instead of silently reordering shared pools. Per-unit phase times land in
// private Stats merged in index order afterwards; per-worker trace forks are
// adopted into the session tracer in worker order, so the trace is
// deterministic in structure even though span timestamps interleave.
func (e *Engine) compileParallel(mod *qir.Module, env *backend.Env, mc backend.ModuleCompiler,
	units []*backend.Unit, todo []int, jobs int, ph *backend.Phaser) error {
	mod.Freeze()
	env.DB.Freeze()

	n := len(mod.Funcs)
	ustats := make([]*backend.Stats, n)
	errs := make([]error, n)
	wtrs := make([]*obs.Tracer, jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wtr := env.Trace.Fork()
		wtrs[w] = wtr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(todo) {
					return
				}
				i := todo[k]
				us := &backend.Stats{}
				uph := backend.NewPhaser(us, wtr)
				u, cerr := compileOne(mc, i, mod.Funcs[i].Name, uph)
				uph.Finish()
				// Allocation deltas are process-global; per-unit readings
				// taken while other workers allocate are meaningless.
				us.AllocBytes, us.AllocObjs = 0, 0
				ustats[i] = us
				if cerr != nil {
					errs[i] = cerr
					continue
				}
				units[i] = u
			}
		}()
	}
	wg.Wait()
	mod.Unfreeze()
	env.DB.Unfreeze()

	if env.Trace.Enabled() {
		for w, wtr := range wtrs {
			g := env.Trace.BeginCat(fmt.Sprintf("worker:%d", w), "group")
			env.Trace.Adopt(wtr, int32(w+2)) // tid 1 is the main goroutine
			g.End()
		}
	}
	for _, i := range todo {
		if ustats[i] != nil {
			ph.Stats().Merge(ustats[i])
		}
	}
	// Report the failure of the lowest function index, matching what a
	// sequential run would have hit first.
	for _, i := range todo {
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// compileOne runs one CompileFunc under its "func:" trace group, converting
// worker panics (e.g. a freeze violation) into errors so one bad function
// cannot take down the process from a worker goroutine.
func compileOne(mc backend.ModuleCompiler, i int, name string, uph *backend.Phaser) (u *backend.Unit, err error) {
	fsp := uph.BeginGroup("func:" + name)
	defer fsp.End()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pcc: %s: worker panic: %v", name, r)
		}
	}()
	return mc.CompileFunc(i, uph)
}
