package bench

import (
	"fmt"
	"time"

	"qcc/internal/backend"
)

// parallelEngines is the lineup the parallel-compilation experiments sweep:
// every wired back-end exposing the per-function pipeline (the interpreter
// has nothing to compile).
func parallelEngines(cfg Config) []backend.Engine {
	var es []backend.Engine
	for _, e := range Engines(cfg.Arch) {
		if _, ok := e.(backend.FuncEngine); ok {
			es = append(es, e)
		}
	}
	return es
}

// Scaling measures compile-time scaling of the parallel driver: total
// TPC-H suite compile wall-clock per back-end for each worker count.
func Scaling(cfg Config, jobsList []int) (*Report, error) {
	if len(jobsList) == 0 {
		jobsList = []int{1, 2, 4, 8}
	}
	cfg = seedPath(cfg)
	r := &Report{Title: fmt.Sprintf("Compile-time scaling: parallel per-function compilation (%s, all TPC-H)", cfg.Arch)}
	head := fmt.Sprintf("  %-20s", "engine")
	for _, j := range jobsList {
		head += fmt.Sprintf("  jobs=%-2d    ", j)
	}
	head += "  speedup"
	r.Lines = append(r.Lines, head)
	for _, eng := range parallelEngines(cfg) {
		suite := func(jobs int) (*EngineRun, error) {
			cfg.Jobs = jobs
			w, err := loadH(cfg, cfg.SF)
			if err != nil {
				return nil, err
			}
			return RunSuite(w, eng, HQueries(), 1)
		}
		// One untimed warm-up pass per engine: the first suite compile in a
		// process pays one-time costs (lazy table construction, page
		// faults, GC growth) that would otherwise inflate whichever worker
		// count happens to run first.
		if _, err := suite(jobsList[0]); err != nil {
			return nil, err
		}
		line := fmt.Sprintf("  %-20s", eng.Name())
		var first, last time.Duration
		for k, j := range jobsList {
			run, err := suite(j)
			if err != nil {
				return nil, err
			}
			line += fmt.Sprintf("  %s", fmtDur(run.Compile))
			if k == 0 {
				first = run.Compile
			}
			last = run.Compile
		}
		if last > 0 {
			line += fmt.Sprintf("  %5.2fx", float64(first)/float64(last))
		}
		r.Lines = append(r.Lines, line)
	}
	return r, nil
}

// CacheWarm measures the content-addressed code cache on a repeated
// workload: the TPC-H suite compiled twice against one shared cache. The
// first pass is cold (all misses); the second recompiles the same queries
// and should hit for every function.
func CacheWarm(cfg Config) (*Report, error) {
	jobs, cacheMB := cfg.Jobs, cfg.CacheMB
	if cacheMB <= 0 {
		cacheMB = 64
	}
	if jobs <= 0 {
		jobs = 1
	}
	cfg = seedPath(cfg)
	cfg.Jobs, cfg.CacheMB = jobs, cacheMB
	r := &Report{Title: fmt.Sprintf("Code cache: repeated TPC-H workload (%s, jobs=%d, budget %d MiB)", cfg.Arch, jobs, cacheMB)}
	r.addf("  %-20s %-12s %-12s %6s %6s %9s", "engine", "cold", "warm", "hits", "misses", "hit-rate")
	for _, eng := range parallelEngines(cfg) {
		w, err := loadH(cfg, cfg.SF)
		if err != nil {
			return nil, err
		}
		cold, err := RunSuite(w, eng, HQueries(), 1)
		if err != nil {
			return nil, err
		}
		warm, err := RunSuite(w, eng, HQueries(), 1)
		if err != nil {
			return nil, err
		}
		hits := warm.Stats.Counters["cache_hits"]
		misses := warm.Stats.Counters["cache_misses"]
		rate := 0.0
		if hits+misses > 0 {
			rate = 100 * float64(hits) / float64(hits+misses)
		}
		r.addf("  %-20s %s %s %6d %6d   %6.1f%%", eng.Name(),
			fmtDur(cold.Compile), fmtDur(warm.Compile), hits, misses, rate)
	}
	return r, nil
}
