package bench

import (
	"fmt"

	"qcc/internal/obs"
)

// EngineReportOf converts one suite run into the stable report schema.
func EngineReportOf(run *EngineRun) obs.EngineReport {
	er := obs.EngineReport{
		Engine:     run.Engine,
		Funcs:      run.Stats.Funcs,
		CodeBytes:  run.Stats.CodeBytes,
		CompileNS:  run.Compile.Nanoseconds(),
		ExecNS:     run.Exec.Nanoseconds(),
		AllocBytes: run.Stats.AllocBytes,
		AllocObjs:  run.Stats.AllocObjs,
		Phases:     []obs.PhaseReport{},
	}
	for _, p := range run.Stats.Phases {
		er.Phases = append(er.Phases, obs.PhaseReport{Name: p.Name, NS: p.Dur.Nanoseconds()})
	}
	if len(run.Stats.Counters) > 0 {
		er.Counters = make(map[string]int64, len(run.Stats.Counters))
		for k, v := range run.Stats.Counters {
			er.Counters[k] = v
		}
		er.CacheHits = run.Stats.Counters["cache_hits"]
		er.CacheMisses = run.Stats.Counters["cache_misses"]
	}
	for _, q := range run.Queries {
		er.Queries = append(er.Queries, obs.QueryReport{
			Name:             q.Name,
			CompileNS:        q.Compile.Nanoseconds(),
			ExecNS:           q.Exec.Nanoseconds(),
			Rows:             q.Rows,
			Instrs:           q.Executed,
			Branches:         q.Branches,
			MemOps:           q.MemOps,
			FuseInstrs:       q.FuseInstrs,
			FuseMicroOps:     q.FuseMicroOps,
			StaticMemOps:     q.StaticMemOps,
			ChecksEliminated: q.ChecksElim,
			LintFindings:     q.LintFindings,
			AnalysisNS:       q.AnalysisNs,
		})
	}
	return er
}

// JSONReport runs the TPC-H suite on the standard engine lineup and returns
// the machine-readable report behind `qbench -json` (schema
// obs.Schema). Each engine gets a fresh world — and with it its own code
// cache — so heap layout and hit rates are comparable across engines.
func JSONReport(cfg Config) (*obs.Report, error) {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	rep := &obs.Report{
		Schema:   obs.Schema,
		Arch:     cfg.Arch.String(),
		Workload: "tpch",
		SF:       cfg.SF,
		Jobs:     jobs,
		Engines:  []obs.EngineReport{},
	}
	for _, eng := range Engines(cfg.Arch) {
		w, err := loadH(cfg, cfg.SF)
		if err != nil {
			return nil, fmt.Errorf("bench: load tpch: %w", err)
		}
		run, err := RunSuite(w, eng, HQueries(), cfg.Runs)
		if err != nil {
			return nil, err
		}
		rep.Engines = append(rep.Engines, EngineReportOf(run))
	}
	rep.Global = obs.GlobalCounters()
	return rep, nil
}
