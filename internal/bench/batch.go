package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"qcc/internal/backend"
	"qcc/internal/obs"
)

// BatchSchema identifies the batch/parallel execution report format
// (BENCH_batch.json).
const BatchSchema = "qcc.bench.batch/v1"

// ScanHeavy lists the scan-dominated TPC-H queries the batch kernels target
// (single-pipeline aggregations over lineitem); the executor gate measures
// these.
var ScanHeavy = map[string]bool{"q1": true, "q6": true}

// BatchQuery is one query measured under three execution regimes on the
// same engine: sequential tuple-at-a-time (the seed path and PR-6
// baseline), sequential with batch kernels, and the morsel-parallel
// executor with batch kernels at the report's worker count.
type BatchQuery struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	// TupleNS is the sequential tuple-at-a-time baseline.
	TupleNS int64 `json:"tuple_ns"`
	// BatchNS is sequential (1 worker) with batch kernels.
	BatchNS int64 `json:"batch_ns"`
	// ParNS is the morsel-parallel executor with batch kernels.
	ParNS int64 `json:"par_ns"`
	// BatchMode reports whether the compiler actually lowered a pipeline
	// of this query to batch kernels (ineligible queries run tuple code
	// under every regime, so their ratios measure executor overhead only).
	BatchMode bool `json:"batch_mode"`
	// ParallelRan reports whether the executor actually dispatched morsels
	// to workers (guards against silently-sequential "speedups").
	ParallelRan bool `json:"parallel_ran"`
}

// BatchSpeedup is tuple/batch at one worker (>1: batch kernels win).
func (q BatchQuery) BatchSpeedup() float64 {
	if q.BatchNS <= 0 {
		return 0
	}
	return float64(q.TupleNS) / float64(q.BatchNS)
}

// ParSpeedup is tuple/parallel (>1: the full batch+morsel stack wins).
func (q BatchQuery) ParSpeedup() float64 {
	if q.ParNS <= 0 {
		return 0
	}
	return float64(q.TupleNS) / float64(q.ParNS)
}

// BatchEngine aggregates one engine's measurements.
type BatchEngine struct {
	Engine  string       `json:"engine"`
	Queries []BatchQuery `json:"queries"`
	// GeomeanBatch pools BatchSpeedup over all queries; GeomeanPar pools
	// ParSpeedup; ScanHeavyPar pools ParSpeedup over the scan-heavy subset
	// (q1/q6) — the headline number and the CI gate's input.
	GeomeanBatch float64 `json:"geomean_batch_speedup"`
	GeomeanPar   float64 `json:"geomean_par_speedup"`
	ScanHeavyPar float64 `json:"scan_heavy_par_speedup"`
}

// BatchReport is the full batch/parallel execution experiment
// (BENCH_batch.json).
type BatchReport struct {
	Schema  string        `json:"schema"`
	Arch    string        `json:"arch"`
	SF      float64       `json:"sf"`
	Runs    int           `json:"runs"`
	Jobs    int           `json:"jobs"`
	Engines []BatchEngine `json:"engines"`
	// Pooled geomeans across engines.
	GeomeanPar   float64 `json:"geomean_par_speedup"`
	ScanHeavyPar float64 `json:"scan_heavy_par_speedup"`
}

// Write emits the report as indented JSON.
func (r *BatchReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// BatchCost measures what batch-at-a-time kernels and the morsel-parallel
// executor buy at execution time over the TPC-H suite. Per engine and
// query, three regimes run best-of-cfg.Runs on the same world: the
// sequential tuple path (identical to the seed benchmarks), batch kernels
// at one worker, and batch kernels under the parallel executor at
// cfg.ExecJobs workers (default 4). The parallel differential guarantees
// all three produce identical results, so the ratios isolate execution
// cost. Engines without a vm module (the interpreter) are skipped — the
// executor's workers replay generated code on worker machines. -jobs and
// -cache-mb do not apply: every compile is sequential and uncached.
func BatchCost(cfg Config) (*Report, *BatchReport, error) {
	jobs := cfg.ExecJobs
	if jobs <= 1 {
		jobs = 4
	}
	cfg = seedPath(cfg)
	cfg.ExecJobs, cfg.Batch = jobs, true
	runs := cfg.Runs
	rep := &Report{Title: fmt.Sprintf("Batch kernels + morsel parallelism (TPC-H, %s, sf=%g, %d workers, best of %d)",
		cfg.Arch, cfg.SF, jobs, runs)}
	jrep := &BatchReport{Schema: BatchSchema, Arch: cfg.Arch.String(), SF: cfg.SF, Runs: runs, Jobs: jobs}
	var allPar, allScanHeavy []float64
	for _, eng := range Engines(cfg.Arch) {
		// par is the world as configured — batch kernels on the persistent
		// worker pool; the other two regimes are views of the same data.
		par, err := loadH(cfg, cfg.SF)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: load tpch: %w", err)
		}
		tuple, batch1 := par.WithExec(1, false), par.WithExec(1, true)
		er := BatchEngine{Engine: eng.Name()}
		var batchRatios, parRatios, scanHeavy []float64
		par.Checkpoint()
		skipped := false
		for _, q := range HQueries() {
			// One tuple-mode compile (the baseline) and one batch+parallel
			// compile per query, both before any measurement.
			pt, err := compileQuery(tuple, eng, q)
			if err != nil {
				return nil, nil, err
			}
			if backend.ModuleOf(pt.Exec) == nil {
				skipped = true
				break
			}
			pb, err := compileQuery(par, eng, q)
			if err != nil {
				return nil, nil, err
			}
			bq := BatchQuery{Name: q.Name}
			for _, f := range pb.Compiled.Module.Funcs {
				if f.Prov.Mode == "batch" {
					bq.BatchMode = true
				}
			}
			// Every regime runs once untimed to warm caches.
			m, err := bestExec(tuple, eng, pt, runs, 1)
			if err != nil {
				return nil, nil, err
			}
			bq.TupleNS = m.Exec.Nanoseconds()
			if m, err = bestExec(batch1, eng, pb, runs, 1); err != nil {
				return nil, nil, err
			}
			bq.BatchNS = m.Exec.Nanoseconds()
			workersBefore := obs.NewCounter("exec_workers").Load()
			if m, err = bestExec(par, eng, pb, runs, 1); err != nil {
				return nil, nil, err
			}
			bq.ParallelRan = obs.NewCounter("exec_workers").Load() > workersBefore
			bq.Rows, bq.ParNS = m.Rows, m.Exec.Nanoseconds()
			er.Queries = append(er.Queries, bq)
			if bq.BatchSpeedup() > 0 {
				batchRatios = append(batchRatios, bq.BatchSpeedup())
			}
			if bq.ParSpeedup() > 0 {
				parRatios = append(parRatios, bq.ParSpeedup())
				if ScanHeavy[bq.Name] {
					scanHeavy = append(scanHeavy, bq.ParSpeedup())
				}
			}
			par.DB.ResetToCheckpoint()
		}
		if skipped || len(er.Queries) == 0 {
			continue // no vm module for workers to execute (interpreter)
		}
		er.GeomeanBatch = geomean(batchRatios)
		er.GeomeanPar = geomean(parRatios)
		er.ScanHeavyPar = geomean(scanHeavy)
		allPar = append(allPar, parRatios...)
		allScanHeavy = append(allScanHeavy, scanHeavy...)
		jrep.Engines = append(jrep.Engines, er)

		rep.addf("")
		rep.addf("%s", er.Engine)
		rep.addf("  %-6s %12s %12s %12s %8s %8s %6s %4s", "query",
			"tuple", "batch", fmt.Sprintf("par(%d)", jobs), "batch-x", "par-x", "mode", "par?")
		for _, q := range er.Queries {
			mode := "tuple"
			if q.BatchMode {
				mode = "batch"
			}
			ran := "-"
			if q.ParallelRan {
				ran = "y"
			}
			rep.addf("  %-6s %9.3f ms %9.3f ms %9.3f ms %7.2fx %7.2fx %6s %4s",
				q.Name, float64(q.TupleNS)/1e6, float64(q.BatchNS)/1e6, float64(q.ParNS)/1e6,
				q.BatchSpeedup(), q.ParSpeedup(), mode, ran)
		}
		rep.addf("  geomean: batch %.2fx, parallel %.2fx, scan-heavy (q1/q6) parallel %.2fx",
			er.GeomeanBatch, er.GeomeanPar, er.ScanHeavyPar)
	}
	jrep.GeomeanPar = geomean(allPar)
	jrep.ScanHeavyPar = geomean(allScanHeavy)
	rep.addf("")
	rep.addf("overall: parallel geomean %.2fx, scan-heavy (q1/q6) geomean %.2fx",
		jrep.GeomeanPar, jrep.ScanHeavyPar)
	return rep, jrep, nil
}

// GateBatch enforces the executor CI gate on a report: every engine's q1
// and q6 must reach at least minPar parallel speedup, and the sequential
// batch path must not regress the tuple baseline by more than slack (e.g.
// slack 1.25 tolerates a 25% single-worker regression before failing).
func GateBatch(r *BatchReport, minPar, slack float64) error {
	for _, eng := range r.Engines {
		for _, q := range eng.Queries {
			if ScanHeavy[q.Name] && q.ParSpeedup() < minPar {
				return fmt.Errorf("%s/%s: parallel speedup %.2fx below gate %.2fx",
					eng.Engine, q.Name, q.ParSpeedup(), minPar)
			}
			if ScanHeavy[q.Name] && !q.ParallelRan {
				return fmt.Errorf("%s/%s: parallel executor never dispatched to workers", eng.Engine, q.Name)
			}
			if q.TupleNS > 0 && float64(q.BatchNS) > float64(q.TupleNS)*slack {
				return fmt.Errorf("%s/%s: single-worker batch run %.2f ms regresses tuple baseline %.2f ms beyond %.2fx slack",
					eng.Engine, q.Name, float64(q.BatchNS)/1e6, float64(q.TupleNS)/1e6, slack)
			}
		}
	}
	return nil
}
