package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"qcc/internal/backend"
)

// ExecSchema identifies the dispatch-cost report format (BENCH_exec.json).
const ExecSchema = "qcc.bench.exec/v1"

// ExecQuery is one query's fused-vs-unfused execution measurement. The same
// compiled module runs through both dispatch strategies, so the comparison
// isolates dispatch cost: code bytes, decoded program, results, and the
// architecture-neutral counters are identical by construction (enforced by
// the conformance differential).
type ExecQuery struct {
	Name    string `json:"name"`
	Rows    int    `json:"rows"`
	PlainNS int64  `json:"plain_ns"` // decoded-switch dispatch (-nofuse)
	FusedNS int64  `json:"fused_ns"` // superinstruction threaded dispatch
	Instrs  int64  `json:"vm_instrs"`
	// FuseInstrs/FuseMicroOps give the module's fusion rate
	// (fuse_micro_ops / fuse_instrs): how many dispatches the fused view
	// performs per decoded instruction.
	FuseInstrs   int64 `json:"fuse_instrs"`
	FuseMicroOps int64 `json:"fuse_micro_ops"`
}

// Speedup is the wall-clock ratio plain/fused (>1 means fusion wins).
func (q ExecQuery) Speedup() float64 {
	if q.FusedNS <= 0 {
		return 0
	}
	return float64(q.PlainNS) / float64(q.FusedNS)
}

// ExecEngine aggregates one engine's dispatch-cost measurements.
type ExecEngine struct {
	Engine  string      `json:"engine"`
	Queries []ExecQuery `json:"queries"`
	// GeomeanSpeedup is the geometric-mean wall-clock speedup of fused
	// over plain dispatch across the engine's queries.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// ExecReport is the full dispatch-cost experiment (BENCH_exec.json).
type ExecReport struct {
	Schema  string       `json:"schema"`
	Arch    string       `json:"arch"`
	SF      float64      `json:"sf"`
	Runs    int          `json:"runs"`
	Engines []ExecEngine `json:"engines"`
	// GeomeanSpeedup pools every (engine, query) pair.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// Write emits the report as indented JSON.
func (r *ExecReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

// DispatchCost measures the execution-time cost of vm dispatch strategy
// over the TPC-H suite: each query is compiled once per back-end, then the
// very same module object is executed through the plain decoded-switch loop
// and through the fused threaded dispatcher (toggled via Module.SetFuse),
// best-of-cfg.Runs each. Compiling once removes every compile-side variable
// from the comparison. The interpreter is skipped — it executes QIR
// directly and has no vm dispatch to toggle.
func DispatchCost(cfg Config) (*Report, *ExecReport, error) {
	cfg = seedPath(cfg)
	runs := cfg.Runs
	rep := &Report{Title: fmt.Sprintf("Dispatch cost: fused vs -nofuse (TPC-H, %s, sf=%g, best of %d)", cfg.Arch, cfg.SF, runs)}
	jrep := &ExecReport{Schema: ExecSchema, Arch: cfg.Arch.String(), SF: cfg.SF, Runs: runs}
	var allRatios []float64
	for _, eng := range Engines(cfg.Arch) {
		w, err := loadH(cfg, cfg.SF)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: load tpch: %w", err)
		}
		er := ExecEngine{Engine: eng.Name()}
		var ratios []float64
		w.Checkpoint()
		skipped := false
		for _, q := range HQueries() {
			p, err := compileQuery(w, eng, q)
			if err != nil {
				return nil, nil, err
			}
			mod := backend.ModuleOf(p.Exec)
			if mod == nil {
				skipped = true
				break
			}
			eq := ExecQuery{Name: q.Name}
			run := func(fuse bool) (time.Duration, error) {
				mod.SetFuse(fuse)
				// One warm-up: the first fused call builds the fused
				// view lazily.
				m, err := bestExec(w, eng, p, runs, 1)
				eq.Rows, eq.Instrs = m.Rows, m.Executed
				return m.Exec, err
			}
			plain, err := run(false)
			if err != nil {
				return nil, nil, err
			}
			fused, err := run(true)
			if err != nil {
				return nil, nil, err
			}
			eq.PlainNS = plain.Nanoseconds()
			eq.FusedNS = fused.Nanoseconds()
			fs := mod.FuseStats()
			eq.FuseInstrs, eq.FuseMicroOps = int64(fs.Instrs), int64(fs.MicroOps)
			er.Queries = append(er.Queries, eq)
			if eq.Speedup() > 0 {
				ratios = append(ratios, eq.Speedup())
			}
			w.DB.ResetToCheckpoint()
		}
		if skipped || len(er.Queries) == 0 {
			continue // no vm module to toggle (interpreter)
		}
		er.GeomeanSpeedup = geomean(ratios)
		allRatios = append(allRatios, ratios...)
		jrep.Engines = append(jrep.Engines, er)

		rep.addf("")
		rep.addf("%s", er.Engine)
		rep.addf("  %-6s %12s %12s %8s %10s %10s %6s", "query",
			"-nofuse", "fused", "speedup", "Mi/s plain", "Mi/s fused", "rate")
		for _, q := range er.Queries {
			mips := func(ns int64) float64 {
				if ns <= 0 {
					return 0
				}
				return float64(q.Instrs) / float64(ns) * 1e3
			}
			rate := 0.0
			if q.FuseInstrs > 0 {
				rate = float64(q.FuseMicroOps) / float64(q.FuseInstrs)
			}
			rep.addf("  %-6s %9.3f ms %9.3f ms %7.2fx %10.1f %10.1f %6.2f",
				q.Name, float64(q.PlainNS)/1e6, float64(q.FusedNS)/1e6,
				q.Speedup(), mips(q.PlainNS), mips(q.FusedNS), rate)
		}
		rep.addf("  geomean speedup: %.2fx", er.GeomeanSpeedup)
	}
	jrep.GeomeanSpeedup = geomean(allRatios)
	rep.addf("")
	rep.addf("overall geomean speedup (all engines, all queries): %.2fx", jrep.GeomeanSpeedup)
	return rep, jrep, nil
}
