package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"qcc/internal/codegen"
	"qcc/internal/qir"
)

// CheckElimSchema identifies the check-elimination report format
// (BENCH_checkelim.json).
const CheckElimSchema = "qcc.bench.checkelim/v1"

// CheckElimQuery is one query's checked-vs-unchecked execution measurement:
// the same plan compiled twice, once as produced (statically proven checks
// eliminated) and once with every MemUnchecked mark stripped (all runtime
// checks kept), so the delta isolates what the eliminated checks cost.
type CheckElimQuery struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	// StaticMemOps/Eliminated are the analysis outcome on the query's QIR.
	StaticMemOps int     `json:"static_mem_ops"`
	Eliminated   int     `json:"checks_eliminated"`
	Ratio        float64 `json:"elim_ratio"`
	AnalysisNS   int64   `json:"analysis_ns"`
	CheckedNS    int64   `json:"checked_ns"`   // all checks kept
	UncheckedNS  int64   `json:"unchecked_ns"` // proven checks eliminated
}

// Speedup is the wall-clock ratio checked/unchecked (>1 means elimination
// wins).
func (q CheckElimQuery) Speedup() float64 {
	if q.UncheckedNS <= 0 {
		return 0
	}
	return float64(q.CheckedNS) / float64(q.UncheckedNS)
}

// CheckElimEngine aggregates one engine's measurements.
type CheckElimEngine struct {
	Engine         string           `json:"engine"`
	Queries        []CheckElimQuery `json:"queries"`
	GeomeanSpeedup float64          `json:"geomean_speedup"`
}

// CheckElimReport is the full check-elimination experiment
// (BENCH_checkelim.json).
type CheckElimReport struct {
	Schema      string            `json:"schema"`
	Arch        string            `json:"arch"`
	SF          float64           `json:"sf"`
	Runs        int               `json:"runs"`
	ElimVersion string            `json:"elim_version"`
	Engines     []CheckElimEngine `json:"engines"`
	// GeomeanSpeedup pools every (engine, query) pair.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// Write emits the report as indented JSON.
func (r *CheckElimReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// stripUnchecked removes every MemUnchecked mark from the module, restoring
// the fully checked lowering.
func stripUnchecked(m *qir.Module) {
	for _, f := range m.Funcs {
		for i := range f.Instrs {
			// Aux is overloaded per op (branch targets, param indices);
			// the MemUnchecked bit only exists on loads and stores.
			if f.Instrs[i].Unchecked() {
				f.Instrs[i].Aux &^= qir.MemUnchecked
			}
		}
	}
}

// CheckElimCost measures what the compile-time check elimination buys at
// execution time over the TPC-H suite: each query is compiled twice per
// back-end — once as the pass produced it and once with the unchecked marks
// stripped — and both variants execute best-of-cfg.Runs on the same world.
// Everything else (plan, QIR, catalog layout, back-end) is identical, so the
// delta is the runtime cost of the statically discharged bounds/null checks.
func CheckElimCost(cfg Config) (*Report, *CheckElimReport, error) {
	cfg = seedPath(cfg)
	runs := cfg.Runs
	rep := &Report{Title: fmt.Sprintf("Check elimination: checked vs unchecked (TPC-H, %s, sf=%g, best of %d)", cfg.Arch, cfg.SF, runs)}
	jrep := &CheckElimReport{Schema: CheckElimSchema, Arch: cfg.Arch.String(), SF: cfg.SF, Runs: runs,
		ElimVersion: codegen.CheckElimVersion}
	var allRatios []float64
	for _, eng := range Engines(cfg.Arch) {
		w, err := loadH(cfg, cfg.SF)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: load tpch: %w", err)
		}
		er := CheckElimEngine{Engine: eng.Name()}
		var ratios []float64
		w.Checkpoint()
		for _, q := range HQueries() {
			eq := CheckElimQuery{Name: q.Name}
			// One measurement: lower the plan, optionally strip the
			// unchecked marks, compile, run best-of-runs (+1 warm-up).
			measure := func(strip bool) (time.Duration, error) {
				c, err := w.Lower(q.Name, q.Build())
				if err != nil {
					return 0, fmt.Errorf("%s/%s: %w", eng.Name(), q.Name, err)
				}
				if strip {
					stripUnchecked(c.Module)
				} else {
					eq.StaticMemOps = c.Elim.MemOps
					eq.Eliminated = c.Elim.Unchecked
					eq.Ratio = c.Elim.Ratio()
					eq.AnalysisNS = c.Elim.AnalysisNs
				}
				p, err := w.Compile(eng, c)
				if err != nil {
					return 0, fmt.Errorf("%s/%s: %w", eng.Name(), q.Name, err)
				}
				m, err := bestExec(w, eng, p, runs, 1)
				eq.Rows = m.Rows
				return m.Exec, err
			}
			unchecked, err := measure(false)
			if err != nil {
				return nil, nil, err
			}
			checked, err := measure(true)
			if err != nil {
				return nil, nil, err
			}
			eq.CheckedNS = checked.Nanoseconds()
			eq.UncheckedNS = unchecked.Nanoseconds()
			er.Queries = append(er.Queries, eq)
			if eq.Speedup() > 0 {
				ratios = append(ratios, eq.Speedup())
			}
			w.DB.ResetToCheckpoint()
		}
		er.GeomeanSpeedup = geomean(ratios)
		allRatios = append(allRatios, ratios...)
		jrep.Engines = append(jrep.Engines, er)

		rep.addf("")
		rep.addf("%s", er.Engine)
		rep.addf("  %-6s %8s %8s %7s %12s %12s %8s", "query",
			"memops", "elim", "ratio", "checked", "unchecked", "speedup")
		for _, q := range er.Queries {
			rep.addf("  %-6s %8d %8d %6.1f%% %9.3f ms %9.3f ms %7.2fx",
				q.Name, q.StaticMemOps, q.Eliminated, 100*q.Ratio,
				float64(q.CheckedNS)/1e6, float64(q.UncheckedNS)/1e6, q.Speedup())
		}
		rep.addf("  geomean speedup: %.2fx", er.GeomeanSpeedup)
	}
	jrep.GeomeanSpeedup = geomean(allRatios)
	rep.addf("")
	rep.addf("overall geomean speedup (all engines, all queries): %.2fx", jrep.GeomeanSpeedup)
	return rep, jrep, nil
}
