package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"qcc/internal/backend"
	"qcc/internal/engine"
	"qcc/internal/prof"
	"qcc/internal/vm"
)

// ProfSchema identifies the profiler-overhead report format (BENCH_prof.json).
const ProfSchema = "qcc.bench.prof/v1"

// ProfQuery is one query's sampling-overhead and attribution measurement:
// the same compiled module runs with the sampler off and on, so the
// comparison isolates the profiler's dispatch-loop cost.
type ProfQuery struct {
	Name  string `json:"name"`
	Rows  int    `json:"rows"`
	OffNS int64  `json:"off_ns"` // sampler off (nil check only)
	OnNS  int64  `json:"on_ns"`  // sampler installed
	// Instrs is the executed VM instruction count of one run.
	Instrs  int64 `json:"vm_instrs"`
	Samples int64 `json:"samples"`
	// AttributionPct is the share of samples resolved to named plan
	// operators (the tentpole acceptance metric).
	AttributionPct float64 `json:"attribution_pct"`
	// TopOperator is the hottest operator path and its sample share.
	TopOperator    string  `json:"top_operator,omitempty"`
	TopOperatorPct float64 `json:"top_operator_pct,omitempty"`
}

// OverheadPct is the sampling-on slowdown in percent (negative = noise).
func (q ProfQuery) OverheadPct() float64 {
	if q.OffNS <= 0 {
		return 0
	}
	return 100 * (float64(q.OnNS)/float64(q.OffNS) - 1)
}

// ProfEngine aggregates one engine's measurements.
type ProfEngine struct {
	Engine  string      `json:"engine"`
	Queries []ProfQuery `json:"queries"`
	// GeomeanOverheadPct is the geometric-mean on/off ratio expressed as a
	// percentage overhead.
	GeomeanOverheadPct float64 `json:"geomean_overhead_pct"`
	// MinAttributionPct is the weakest attribution over the queries.
	MinAttributionPct float64 `json:"min_attribution_pct"`
}

// ProfReport is the profiler experiment output (BENCH_prof.json).
type ProfReport struct {
	Schema string  `json:"schema"`
	Arch   string  `json:"arch"`
	SF     float64 `json:"sf"`
	Runs   int     `json:"runs"`
	// Period is the sampling period in executed VM instructions.
	Period  int64        `json:"period"`
	Engines []ProfEngine `json:"engines"`
	// GeomeanOverheadPct pools every (engine, query) pair.
	GeomeanOverheadPct float64 `json:"geomean_overhead_pct"`
	// MinAttributionPct is the weakest attribution anywhere in the run.
	MinAttributionPct float64 `json:"min_attribution_pct"`
}

// Write emits the report as indented JSON.
func (r *ProfReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ProfileSuite measures the profiler itself over the TPC-H suite: per
// back-end and query, the same compiled module executes with sampling off
// (the residual cost is one nil check per branch checkpoint) and with a
// collector attached at the given period, best-of-cfg.Runs each. Attribution
// comes from the sampling runs. period <= 0 selects vm.DefaultSamplePeriod.
// The interpreter is skipped — it executes QIR directly and has no vm
// dispatch loop to sample.
func ProfileSuite(cfg Config, period int64) (*Report, *ProfReport, error) {
	cfg = seedPath(cfg)
	runs := cfg.Runs
	if period <= 0 {
		period = vm.DefaultSamplePeriod
	}
	rep := &Report{Title: fmt.Sprintf("Profiler overhead and attribution (TPC-H, %s, sf=%g, period=%d, best of %d)",
		cfg.Arch, cfg.SF, period, runs)}
	jrep := &ProfReport{Schema: ProfSchema, Arch: cfg.Arch.String(), SF: cfg.SF, Runs: runs, Period: period,
		MinAttributionPct: 100}
	var allRatios []float64
	for _, eng := range Engines(cfg.Arch) {
		w, err := loadH(cfg, cfg.SF)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: load tpch: %w", err)
		}
		er := ProfEngine{Engine: eng.Name(), MinAttributionPct: 100}
		var ratios []float64
		w.Checkpoint()
		skipped := false
		for _, q := range HQueries() {
			p, err := compileQuery(w, eng, q)
			if err != nil {
				return nil, nil, err
			}
			if backend.ModuleOf(p.Exec) == nil {
				skipped = true
				break
			}
			pq := ProfQuery{Name: q.Name}
			col := prof.NewCollector(p.Compiled.Module)
			smp := &vm.Sampler{Period: period, Hit: col.Hit}
			run := func(s *vm.Sampler) (time.Duration, error) {
				best, err := engine.BestOf(runs, 1, func() (time.Duration, error) {
					// (Re-)arm per run so the warm-up run samples too.
					w.DB.M.SetSampler(s)
					m, err := w.Measure(p)
					w.DB.M.SetSampler(nil)
					pq.Rows, pq.Instrs = m.Rows, m.Executed
					return m.Exec, err
				})
				if err != nil {
					return 0, fmt.Errorf("%s/%s: run: %w", eng.Name(), q.Name, err)
				}
				return best, nil
			}
			off, err := run(nil)
			if err != nil {
				return nil, nil, err
			}
			on, err := run(smp)
			if err != nil {
				return nil, nil, err
			}
			pq.OffNS = off.Nanoseconds()
			pq.OnNS = on.Nanoseconds()
			pq.Samples = smp.Samples
			profile := col.Profile(cfg.Arch.String(), q.Name, smp)
			pq.AttributionPct = 100 * profile.AttributionRate()
			var topOp string
			var topN int64
			for op, n := range profile.ByOperator() {
				if op == "?" {
					continue
				}
				if n > topN || (n == topN && op < topOp) {
					topOp, topN = op, n
				}
			}
			if profile.Samples > 0 && topN > 0 {
				pq.TopOperator = topOp
				pq.TopOperatorPct = 100 * float64(topN) / float64(profile.Samples)
			}
			er.Queries = append(er.Queries, pq)
			if pq.AttributionPct < er.MinAttributionPct {
				er.MinAttributionPct = pq.AttributionPct
			}
			if pq.OffNS > 0 && pq.OnNS > 0 {
				ratios = append(ratios, float64(pq.OnNS)/float64(pq.OffNS))
			}
			w.DB.ResetToCheckpoint()
		}
		if skipped || len(er.Queries) == 0 {
			continue // no vm module to sample (interpreter)
		}
		er.GeomeanOverheadPct = 100 * (geomean(ratios) - 1)
		allRatios = append(allRatios, ratios...)
		if er.MinAttributionPct < jrep.MinAttributionPct {
			jrep.MinAttributionPct = er.MinAttributionPct
		}
		jrep.Engines = append(jrep.Engines, er)

		rep.addf("")
		rep.addf("%s", er.Engine)
		rep.addf("  %-6s %12s %12s %9s %8s %7s  %s", "query",
			"sampler off", "sampler on", "overhead", "samples", "attrib", "top operator")
		for _, q := range er.Queries {
			rep.addf("  %-6s %9.3f ms %9.3f ms %+8.2f%% %8d %6.1f%%  %s (%.0f%%)",
				q.Name, float64(q.OffNS)/1e6, float64(q.OnNS)/1e6,
				q.OverheadPct(), q.Samples, q.AttributionPct,
				q.TopOperator, q.TopOperatorPct)
		}
		rep.addf("  geomean overhead: %+.2f%%, min attribution: %.1f%%",
			er.GeomeanOverheadPct, er.MinAttributionPct)
	}
	jrep.GeomeanOverheadPct = 100 * (geomean(allRatios) - 1)
	rep.addf("")
	rep.addf("overall geomean overhead (all engines, all queries): %+.2f%%; min attribution: %.1f%%",
		jrep.GeomeanOverheadPct, jrep.MinAttributionPct)
	return rep, jrep, nil
}
