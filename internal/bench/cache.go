package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"qcc/internal/codegen"
	"qcc/internal/engine"
	"qcc/internal/plan"
	"qcc/internal/tpch"
)

// CacheSchema identifies the plan-cache report format (BENCH_cache.json).
const CacheSchema = "qcc.bench.cache/v1"

// Replay shape: each engine sees a cold pass (variant 0 of every family)
// followed by a Zipf-skewed stream of constant variants. Under constant
// hoisting every variant of a family shares one parameterized body, so the
// warm stream should hit the code cache on (nearly) every function.
const (
	cacheVariants        = 8    // distinct constant settings per family
	cacheEventsPerFamily = 24   // warm replay length per family
	cacheZipfS           = 1.1  // skew: variant rank r has weight (r+1)^-s
	cacheDefaultMB       = 64   // cache budget when cfg.CacheMB is unset
)

// CacheFamily is one parameterized query family's measurements on one
// engine.
type CacheFamily struct {
	Name     string `json:"name"`
	Variants int    `json:"variants"`
	// Events is how many warm replay events landed on this family.
	Events int `json:"events"`
	// ColdNS is the full compile wall time (plan lowering + back-end) of
	// the family's first variant — the price of a cache miss. WarmNS is the
	// mean compile wall time per warm replay event, paid mostly in plan
	// lowering and cache lookups.
	ColdNS int64 `json:"cold_ns"`
	WarmNS int64 `json:"warm_ns"`
	// Hoisted/KeptInline count the family's literals moved to the constant
	// pool vs pinned inline by the sa-facts classification.
	Hoisted    int `json:"hoisted_consts"`
	KeptInline int `json:"kept_inline_consts"`
	// HoistExecNS/InlineExecNS compare execution of the parameterized body
	// (constants loaded from the pool) against the fully inlined body on
	// the canonical variant — the indirection cost the cache pays for.
	HoistExecNS  int64 `json:"hoist_exec_ns"`
	InlineExecNS int64 `json:"inline_exec_ns"`
	Rows         int   `json:"rows"`
}

// ExecRatio is hoisted/inline execution time (>1: pool indirection costs).
func (f CacheFamily) ExecRatio() float64 {
	if f.InlineExecNS <= 0 {
		return 0
	}
	return float64(f.HoistExecNS) / float64(f.InlineExecNS)
}

// CacheEngine aggregates one engine's plan-cache measurements.
type CacheEngine struct {
	Engine   string        `json:"engine"`
	Families []CacheFamily `json:"families"`
	// Hits/Misses count cached vs compiled functions over the warm replay
	// (the cold pass is excluded by construction).
	Hits    int64   `json:"cache_hits"`
	Misses  int64   `json:"cache_misses"`
	HitRate float64 `json:"hit_rate"`
	// CompileSavedNS sums, over the warm replay, the family's cold compile
	// time minus the event's actual compile time.
	CompileSavedNS int64 `json:"compile_saved_ns"`
	// GeomeanExecRatio pools ExecRatio over families (≤1: no regression).
	GeomeanExecRatio float64 `json:"geomean_exec_ratio"`
}

// CacheReport is the full plan-cache experiment (BENCH_cache.json).
type CacheReport struct {
	Schema   string  `json:"schema"`
	Arch     string  `json:"arch"`
	SF       float64 `json:"sf"`
	Runs     int     `json:"runs"`
	Families int     `json:"families"`
	Variants int     `json:"variants_per_family"`
	Events   int     `json:"events_per_engine"`
	CacheMB  int     `json:"cache_mb"`
	Engines  []CacheEngine `json:"engines"`
	// Pooled over engines.
	HitRate          float64 `json:"hit_rate"`
	GeomeanExecRatio float64 `json:"geomean_exec_ratio"`
}

// Write emits the report as indented JSON.
func (r *CacheReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// cacheLCG is a deterministic 64-bit LCG (Knuth MMIX constants); the replay
// must be reproducible run-to-run so BENCH_cache.json diffs are meaningful.
type cacheLCG struct{ x uint64 }

func (l *cacheLCG) next() uint64 {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	return l.x
}

func (l *cacheLCG) f64() float64 { return float64(l.next()>>11) / (1 << 53) }

// zipfCum builds the cumulative distribution of a Zipf(s) law over n ranks.
func zipfCum(n int, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	cum := make([]float64, n)
	acc := 0.0
	for i := range w {
		acc += w[i] / total
		cum[i] = acc
	}
	cum[n-1] = 1
	return cum
}

// PlanCacheCost measures what the constant-hoisted plan cache buys when a
// workload repeats query shapes under different literal constants: per
// engine, a cold pass compiles each parameterized family once, then a
// deterministic Zipf-skewed replay of constant variants runs against the
// same cache. Reported per engine: warm hit rate, compile time saved, and
// the execution-side cost of pool indirection (hoisted vs fully inlined
// bodies, best of cfg.Runs). Families share a body under hoisting, so the
// warm stream should be all hits; every replay event also executes, so a
// stale cached body (wrong constants) would surface as a wrong result.
func PlanCacheCost(cfg Config) (*Report, *CacheReport, error) {
	// One code cache per engine (each gets a fresh world), sequential
	// compiles, tuple-at-a-time execution.
	cfg = seedPath(cfg)
	runs := cfg.Runs
	if cfg.CacheMB <= 0 {
		cfg.CacheMB = cacheDefaultMB
	}
	families := tpch.ParamQueries()
	events := cacheEventsPerFamily * len(families)
	rep := &Report{Title: fmt.Sprintf(
		"Plan cache: constant-hoisted variants (TPC-H, %s, sf=%g, %d families x %d variants, %d warm events, zipf s=%g)",
		cfg.Arch, cfg.SF, len(families), cacheVariants, events, cacheZipfS)}
	jrep := &CacheReport{
		Schema: CacheSchema, Arch: cfg.Arch.String(), SF: cfg.SF, Runs: runs,
		Families: len(families), Variants: cacheVariants, Events: events, CacheMB: cfg.CacheMB,
	}
	var totalHits, totalMisses int64
	var allRatios []float64
	for _, eng := range parallelEngines(cfg) {
		w, err := loadH(cfg, cfg.SF)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: load tpch: %w", err)
		}
		// Drop the previous engine's world before measuring: the replay
		// means are otherwise inflated by collection pauses for hundreds of
		// MiB of dead machine memory.
		runtime.GC()
		w.Checkpoint()
		er := CacheEngine{Engine: eng.Name()}

		// compileOnce lowers and compiles one variant through the cached
		// engine, returning the full compile wall time.
		compileOnce := func(name string, node plan.Node, copts codegen.Options) (*engine.Program, time.Duration, error) {
			start := time.Now()
			c, err := codegen.CompileOpts(name, node, w.Cat, copts)
			if err != nil {
				return nil, 0, fmt.Errorf("%s/%s: %w", eng.Name(), name, err)
			}
			p, err := w.Compile(eng, c)
			if err != nil {
				return nil, 0, fmt.Errorf("%s/%s: %w", eng.Name(), name, err)
			}
			return p, time.Since(start), nil
		}
		// replay compiles one variant and executes it once, so a stale
		// cached body (wrong constants) would surface as a wrong result.
		replay := func(name string, node plan.Node) (*engine.Program, time.Duration, error) {
			w.DB.ResetToCheckpoint()
			p, dur, err := compileOnce(name, node, w.Codegen())
			if err != nil {
				return nil, 0, err
			}
			if _, err := w.Measure(p); err != nil {
				return nil, 0, fmt.Errorf("%s/%s: run: %w", eng.Name(), name, err)
			}
			return p, dur, nil
		}

		// Cold pass: variant 0 of each family misses and seeds the cache.
		fams := make([]*CacheFamily, len(families))
		for i, f := range families {
			p, dur, err := replay(f.Name, f.Build(0))
			if err != nil {
				return nil, nil, err
			}
			fams[i] = &CacheFamily{
				Name: f.Name, Variants: cacheVariants, ColdNS: dur.Nanoseconds(),
				Hoisted: p.Compiled.Hoist.Hoisted, KeptInline: p.Compiled.Hoist.KeptInline,
			}
		}

		// Warm replay: Zipf-skewed variants, uniformly mixed families. Each
		// event compiles (hitting the cache when hoisting did its job) and
		// executes, so results stay end-to-end checked.
		rng := &cacheLCG{x: 0x9E3779B97F4A7C15}
		cum := zipfCum(cacheVariants, cacheZipfS)
		for e := 0; e < events; e++ {
			fi := int(rng.next()>>33) % len(families)
			u := rng.f64()
			variant := 0
			for variant < len(cum)-1 && u > cum[variant] {
				variant++
			}
			fs := fams[fi]
			p, dur, err := replay(fs.Name, families[fi].Build(variant))
			if err != nil {
				return nil, nil, fmt.Errorf("variant %d: %w", variant, err)
			}
			er.Hits += p.Stats.Counters["cache_hits"]
			er.Misses += p.Stats.Counters["cache_misses"]
			fs.Events++
			fs.WarmNS += dur.Nanoseconds()
			er.CompileSavedNS += fs.ColdNS - dur.Nanoseconds()
		}
		for _, fs := range fams {
			if fs.Events > 0 {
				fs.WarmNS /= int64(fs.Events)
			}
		}
		if er.Hits+er.Misses > 0 {
			er.HitRate = float64(er.Hits) / float64(er.Hits+er.Misses)
		}

		// Indirection cost: the canonical variant of each family executed
		// from its parameterized body (pool loads) vs its fully inlined
		// body, best of runs after one warm-up.
		var ratios []float64
		for i, fs := range fams {
			measure := func(hoist bool) (int64, int, error) {
				w.DB.ResetToCheckpoint()
				copts := w.Codegen()
				copts.Hoist = hoist
				p, _, err := compileOnce(fs.Name, families[i].Build(0), copts)
				if err != nil {
					return 0, 0, err
				}
				m, err := bestExec(w, eng, p, runs, 1)
				return m.Exec.Nanoseconds(), m.Rows, err
			}
			hoistNS, hoistRows, err := measure(true)
			if err != nil {
				return nil, nil, err
			}
			inlineNS, inlineRows, err := measure(false)
			if err != nil {
				return nil, nil, err
			}
			if hoistRows != inlineRows {
				return nil, nil, fmt.Errorf("%s/%s: hoisted body produced %d rows, inline %d",
					eng.Name(), fs.Name, hoistRows, inlineRows)
			}
			fs.HoistExecNS, fs.InlineExecNS, fs.Rows = hoistNS, inlineNS, hoistRows
			if fs.ExecRatio() > 0 {
				ratios = append(ratios, fs.ExecRatio())
			}
		}
		er.GeomeanExecRatio = geomean(ratios)
		allRatios = append(allRatios, ratios...)
		totalHits += er.Hits
		totalMisses += er.Misses
		for _, fs := range fams {
			er.Families = append(er.Families, *fs)
		}
		jrep.Engines = append(jrep.Engines, er)

		rep.addf("")
		rep.addf("%s", er.Engine)
		rep.addf("  %-6s %6s %12s %12s %7s %7s %12s %12s %8s", "family",
			"events", "cold", "warm", "hoist", "inline", "exec-hoist", "exec-inline", "ratio")
		for _, fs := range er.Families {
			rep.addf("  %-6s %6d %9.3f ms %9.3f ms %7d %7d %9.3f ms %9.3f ms %7.3fx",
				fs.Name, fs.Events, float64(fs.ColdNS)/1e6, float64(fs.WarmNS)/1e6,
				fs.Hoisted, fs.KeptInline,
				float64(fs.HoistExecNS)/1e6, float64(fs.InlineExecNS)/1e6, fs.ExecRatio())
		}
		rep.addf("  warm: %d hits, %d misses (hit rate %.1f%%), compile saved %.1f ms, exec ratio geomean %.3fx",
			er.Hits, er.Misses, er.HitRate*100, float64(er.CompileSavedNS)/1e6, er.GeomeanExecRatio)
	}
	if totalHits+totalMisses > 0 {
		jrep.HitRate = float64(totalHits) / float64(totalHits+totalMisses)
	}
	jrep.GeomeanExecRatio = geomean(allRatios)
	rep.addf("")
	rep.addf("overall: hit rate %.1f%%, exec ratio geomean %.3fx (1.00 = free indirection)",
		jrep.HitRate*100, jrep.GeomeanExecRatio)
	return rep, jrep, nil
}

// GateCache enforces the plan-cache CI gate: every engine's warm hit rate
// must reach minHit, and the pooled geomean hoisted/inline execution ratio
// must not exceed maxRatio (e.g. 1.03 tolerates a 3% indirection cost).
// The exec gate pools across engines because per-engine, per-family timings
// at benchmark scale carry a few percent of run-to-run noise.
func GateCache(r *CacheReport, minHit, maxRatio float64) error {
	for _, eng := range r.Engines {
		if eng.HitRate < minHit {
			return fmt.Errorf("%s: warm hit rate %.1f%% below gate %.1f%%",
				eng.Engine, eng.HitRate*100, minHit*100)
		}
	}
	if r.GeomeanExecRatio > maxRatio {
		return fmt.Errorf("exec regression %.3fx geomean exceeds gate %.3fx",
			r.GeomeanExecRatio, maxRatio)
	}
	return nil
}
